import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gridlay.design import Design, Wire, check_all
from gridlay.errors import (
    DuplicatePin,
    FlowError,
    LayoutError,
    MissingVia,
    NonRectilinear,
    UnknownGenerator,
    UnknownLayer,
    UnknownWire,
)
from gridlay.flow import FlowFlags, run_flow, run_pass
from gridlay.geometry import Point, Rect, Transform
from gridlay.grid import OneDimGrid, PlacementGrid, generate_routing_grid
from gridlay.layoutjson import write_layout_json
from gridlay.template import generate

BIG = Rect("", Point(0, 0), Point(10 ** 6, 10 ** 6))


@pytest.fixture
def sig_grid(finfet):
    return generate_routing_grid(finfet, finfet.grid_spec("sig"), BIG)


@pytest.fixture
def unit_grid():
    return PlacementGrid(OneDimGrid(1, (0,)), OneDimGrid(1, (0,)))


# -- place ---------------------------------------------------------------------

def test_place_on_unit_grid(finfet, unit_grid):
    d = Design("t", finfet)
    vi = generate(finfet.template("mos"), {}, finfet)
    placed = d.place(vi, unit_grid, (0, 0))
    assert placed.origin == Point(0, 0)
    assert placed.transform is Transform.R0
    assert d.instances == [placed]


def test_place_snaps_abstract_coords(finfet):
    grid = PlacementGrid(OneDimGrid(100, (0, 40, 85)), OneDimGrid(100, (0, 40, 85)))
    d = Design("t", finfet)
    vi = generate(finfet.template("mos"), {}, finfet)
    placed = d.place(vi, grid, (2, 1))
    assert placed.origin == Point(85, 40)


def test_place_allows_overlap(finfet, unit_grid):
    d = Design("t", finfet)
    vi = generate(finfet.template("mos"), {}, finfet)
    d.place(vi, unit_grid, (0, 0))
    d.place(vi, unit_grid, (0, 0))   # reported by check_all, not here
    assert len(d.instances) == 2


# -- route ----------------------------------------------------------------------

def test_route_single_segment(finfet, sig_grid):
    d = Design("t", finfet)
    wires = d.route(sig_grid, [(0, 0), (3, 0)])
    assert len(wires) == 1 and len(d.vias) == 0
    w = wires[0]
    assert w.axis == "h"
    assert w.layer == sig_grid.ytracks.get(0).layer
    assert w.width == sig_grid.ytracks.get(0).width
    assert w.track == sig_grid.ygrid.phys(0)


def test_route_corner_places_via(finfet, sig_grid):
    d = Design("t", finfet)
    wires = d.route(sig_grid, [(0, 0), (3, 0), (3, 2)])
    assert len(wires) == 2
    assert len(d.vias) == 1
    assert d.vias[0].pos == Point(sig_grid.xgrid.phys(3), sig_grid.ygrid.phys(0))
    assert d.vias[0].via == "v12"


def test_route_rejects_diagonal(finfet, sig_grid):
    d = Design("t", finfet)
    with pytest.raises(NonRectilinear):
        d.route(sig_grid, [(0, 0), (2, 3)])
    with pytest.raises(NonRectilinear):
        d.route(sig_grid, [(0, 0)])


def test_route_wires_sit_on_track_centers(finfet, sig_grid):
    rng = random.Random(31)
    for _ in range(50):
        d = Design("t", finfet)
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.5:
                x += rng.choice([-3, -2, -1, 1, 2, 3])
            else:
                y += rng.choice([-3, -2, -1, 1, 2, 3])
            pts.append((x, y))
        wires = d.route(sig_grid, pts)
        for w in wires:
            grid = sig_grid.ygrid if w.axis == "h" else sig_grid.xgrid
            assert grid.index_where("==", w.track) is not None


def test_via_count_equals_direction_changes(finfet, sig_grid):
    rng = random.Random(32)
    for _ in range(100):
        d = Design("t", finfet)
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        pts = [(x, y)]
        dirs = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.5:
                x += rng.choice([-2, -1, 1, 2])
                dirs.append("h")
            else:
                y += rng.choice([-2, -1, 1, 2])
                dirs.append("v")
            pts.append((x, y))
        d.route(sig_grid, pts)
        changes = sum(1 for a, b in zip(dirs, dirs[1:]) if a != b)
        assert len(d.vias) == changes


def test_route_missing_via(finfet):
    # a grid whose layer pair has no via: m1 vertical against m3 horizontal
    from gridlay.grid import GridSpec, TrackSpec

    spec = GridSpec("nv", (TrackSpec("m1"),), (TrackSpec("m3"),))
    g = generate_routing_grid(finfet, spec, BIG)
    d = Design("t", finfet)
    with pytest.raises(MissingVia):
        d.route(g, [(0, 0), (2, 0), (2, 2)])


def test_route_missing_later_via_leaves_the_design_unchanged(finfet):
    # x tracks m1, m2 and y track m3: the bend at (1, 2) has v23, the one at
    # (0, 2) has no via, so route must place neither via nor wire.
    from gridlay.grid import GridSpec, TrackSpec

    spec = GridSpec("nv", (TrackSpec("m1"), TrackSpec("m2")), (TrackSpec("m3"),))
    g = generate_routing_grid(finfet, spec, BIG)
    d = Design("t", finfet)
    with pytest.raises(MissingVia, match=r"^no via at track intersection \(0, 2\)$"):
        d.route(g, [(1, 0), (1, 2), (0, 2), (0, 4)])
    assert d.vias == [] and d.wires == []


LAND_TECH = """
{
  "name": "landtech",
  "layers": [
    {"name": "m1", "gds": [1, 0], "min_width": 20, "min_spacing": 20},
    {"name": "m2", "gds": [2, 0], "min_width": 20, "min_spacing": 20},
    {"name": "v", "gds": [3, 0], "min_width": 24, "min_spacing": 20}
  ],
  "vias": [{"name": "v12", "lower": "m1", "upper": "m2", "cut_layer": "v",
            "cut_size": [24, 24], "enclosure": {"m1": 4, "m2": 4}}],
  "grids": {"g": {"xtracks": [{"layer": "m1"}], "ytracks": [{"layer": "m2"}]}}
}
"""


def test_route_extends_for_via_landing():
    # landing pad (cut 24 + 2*4) is wider than the wire, so the via end must
    # extend past the bare square end cap
    from gridlay.tech import load_tech

    tech = load_tech(LAND_TECH)
    g = generate_routing_grid(tech, tech.grid_spec("g"), BIG)
    d = Design("t", tech)
    h, v = d.route(g, [(0, 0), (3, 0), (3, 2)])
    assert h.lo == g.xgrid.phys(0) - 10            # bare end: half width
    assert h.hi == g.xgrid.phys(3) + 12 + 4        # via end: cut/2 + enclosure
    assert v.lo == g.ygrid.phys(0) - 16
    assert v.hi == g.ygrid.phys(2) + 10


def route_oracle(tech, grid, pts):
    """The wires (layer, axis, track, lo, hi, width) and vias (via, pos) that
    routing `pts` must give, from the grids' period/coords and the ViaDef
    cut sizes and enclosures."""
    def at(g, i):
        q, r = divmod(i, len(g.coords))
        return q * g.period + g.coords[r]

    segs = [(a, b) for a, b in zip(pts, pts[1:]) if a != b]
    axes = ["h" if a[1] == b[1] else "v" for a, b in segs]
    bends = [segs[n][0] for n in range(1, len(segs)) if axes[n] != axes[n - 1]]
    rows = grid.viamap.rows
    names = {p: rows[p[0] % len(rows)][p[1] % len(rows[0])] for p in bends}
    vias = [(names[p], (at(grid.xgrid, p[0]), at(grid.ygrid, p[1]))) for p in bends]
    wires = []
    for (a, b), axis in zip(segs, axes):
        k = 0 if axis == "h" else 1  # the waypoint coordinate along the wire
        along, across = (grid.xgrid, grid.ygrid) if axis == "h" else (grid.ygrid, grid.xgrid)
        tracks = (grid.ytracks if axis == "h" else grid.xtracks).elements
        layer, width, _ = tracks[a[1 - k] % len(tracks)]

        def reach(p):
            # half the width; at a via, at least the pad's half extent
            if p not in names:
                return width // 2
            via = tech.vias[names[p]]
            return max(width // 2, via.cut_size[k] // 2 + via.enclosure.get(layer, 0))

        lo, hi = sorted((a, b), key=lambda p: p[k])
        wires.append((layer, axis, at(across, a[1 - k]), at(along, lo[k]) - reach(lo),
                      at(along, hi[k]) + reach(hi), width))
    return wires, vias


@st.composite
def rectilinear_paths(draw):
    """Paths of 2-9 waypoints, each one step along x or y from the last: a
    zero step repeats a point, a step against the last one backtracks."""
    pts = [(draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))]
    for axis in draw(st.lists(st.sampled_from("hv"), min_size=1, max_size=8)):
        x, y = pts[-1]
        step = draw(st.integers(-3, 3))
        pts.append((x + step, y) if axis == "h" else (x, y + step))
    return pts


# A fixed seed, not derandomize, so that editing the body keeps the draw.
@settings(max_examples=150, deadline=None, derandomize=False, database=None)
@seed(146)
@given(pts=rectilinear_paths())
@pytest.mark.parametrize("tech_name", ["mock_finfet", "landtech"])
def test_route_matches_oracle_on_random_paths(finfet, tech_name, pts):
    from gridlay.tech import load_tech

    tech = finfet if tech_name == "mock_finfet" else load_tech(LAND_TECH)
    g = generate_routing_grid(tech, tech.grid_spec("sig" if tech is finfet else "g"), BIG)
    want_wires, want_vias = route_oracle(tech, g, pts)
    d = Design("t", tech)
    if not want_wires:
        with pytest.raises(NonRectilinear, match="path has zero length"):
            d.route(g, pts)
        assert d.wires == [] and d.vias == []
        return
    wires = d.route(g, pts)
    assert wires == d.wires
    assert [(w.layer, w.axis, w.track, w.lo, w.hi, w.width) for w in wires] == want_wires
    assert [(v.via, tuple(v.pos)) for v in d.vias] == want_vias


# -- pins -----------------------------------------------------------------------

def test_add_pin_flips_wire(finfet, sig_grid):
    d = Design("t", finfet)
    (w,) = d.route(sig_grid, [(0, 0), (3, 0)])
    assert not w.is_pin
    pin = d.add_pin("a", "neta", w)
    assert w.is_pin and pin.wire is w
    # the pin is exported as a pin-purpose overlay of its wire's box
    assert [r for r in d.own_rows() if r[6] == "pin"] == [(w.layer, *w.box(), "pin", "pin")]


def test_duplicate_pin_name_same_net_ok(finfet, sig_grid):
    d = Design("t", finfet)
    w1 = d.route(sig_grid, [(0, 0), (3, 0)])[0]
    w2 = d.route(sig_grid, [(0, 3), (3, 3)])[0]
    d.add_pin("a", "neta", w1)
    d.add_pin("a", "neta", w2)
    with pytest.raises(DuplicatePin):
        d.add_pin("a", "othernet", w2)


def test_pin_on_foreign_wire(finfet):
    d = Design("t", finfet)
    w = Wire(layer="m1", axis="h", track=0, lo=0, hi=10, width=20)
    with pytest.raises(UnknownWire):
        d.add_pin("a", "n", w)
    # an equal-valued but foreign wire object is still rejected
    owned = d.add_wire(Wire(layer="m1", axis="h", track=0, lo=0, hi=10, width=20))
    twin = Wire(layer="m1", axis="h", track=0, lo=0, hi=10, width=20)
    assert twin == owned
    with pytest.raises(UnknownWire):
        d.add_pin("a", "n", twin)


# -- check_all --------------------------------------------------------------------

def two_wire_design(finfet, gap):
    d = Design("t", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=50, width=20))
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=50 + gap, hi=120 + gap, width=20))
    return d


def test_spacing_boundary_satisfies_rule(finfet):
    d = two_wire_design(finfet, finfet.layer("m1").min_spacing)
    assert [v for v in check_all(d) if v.layer == "m1"] == []


def test_spacing_one_below_violates(finfet):
    d = two_wire_design(finfet, finfet.layer("m1").min_spacing - 1)
    violations = [v for v in check_all(d) if v.layer == "m1"]
    assert len(violations) == 1


def test_cut_suppresses_violation(finfet):
    gap = finfet.layer("m1").min_spacing - 1
    d = two_wire_design(finfet, gap)
    center = 50 + gap // 2
    rule = finfet.layer("m1").cut
    d.rects.append(
        Rect(
            rule.cut_layer,
            Point(center - rule.cut_width // 2, 90),
            Point(center + rule.cut_width // 2, 110),
            "cut",
        )
    )
    assert [v for v in check_all(d) if v.layer == "m1"] == []


def test_touching_shapes_merge(finfet):
    d = two_wire_design(finfet, 0)    # abutting: one aggregated pattern
    assert [v for v in check_all(d) if v.layer == "m1"] == []
    d2 = two_wire_design(finfet, -10)  # overlapping
    assert [v for v in check_all(d2) if v.layer == "m1"] == []


def test_diagonal_gap_uses_euclidean(finfet):
    d = Design("t", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    # dx=12, dy=16 -> distance 20 == min_spacing: no violation
    d.rects.append(Rect("m1", Point(32, 36), Point(52, 56)))
    assert [v for v in check_all(d) if v.layer == "m1"] == []
    # dx=12, dy=15 -> distance < 20: violation
    d2 = Design("t", finfet)
    d2.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    d2.rects.append(Rect("m1", Point(32, 35), Point(52, 55)))
    assert len([v for v in check_all(d2) if v.layer == "m1"]) == 1


def test_shape_on_undefined_layer_is_rejected(finfet):
    d = Design("t", finfet)
    d.rects.append(Rect("nosuch", Point(0, 0), Point(20, 20)))
    d.rects.append(Rect("nosuch", Point(22, 0), Point(42, 20)))
    with pytest.raises(UnknownLayer, match="nosuch"):
        check_all(d)


# -- run_flow ----------------------------------------------------------------------

def test_run_flow_planar_no_cuts(planar):
    d = run_flow("dac", {"bits": 2}, planar)
    units = [vi for vi in d.instances if vi.master == "mos"]
    assert len(units) == 4
    assert sum(1 for r in d.rects if r.purpose == "cut") == 0


def test_run_flow_finfet_has_cuts(finfet):
    d = run_flow("dac", {"bits": 2}, finfet)
    units = [vi for vi in d.instances if vi.master == "mos"]
    assert len(units) == 4
    assert sum(1 for r in d.rects if r.purpose == "cut") > 0


def test_run_flow_unknown_generator(finfet):
    with pytest.raises(UnknownGenerator):
        run_flow("nonesuch", {}, finfet)


def test_run_flow_deterministic(finfet):
    a = run_flow("scan", {"n_bits": 4}, finfet)
    b = run_flow("scan", {"n_bits": 4}, finfet)
    assert write_layout_json(a) == write_layout_json(b)


def test_run_flow_errors_carry_stage(finfet):
    broken = finfet._replace(grids={})
    with pytest.raises(FlowError) as err:
        run_flow("dac", {"bits": 1}, broken)
    assert err.value.stage == "grids"
    assert "grids" in str(err.value)


def test_flow_flags_disable_cuts(finfet):
    d = run_flow("dac", {"bits": 1}, finfet, FlowFlags(cuts=False))
    assert sum(1 for r in d.rects if r.purpose == "cut") == 0


def test_run_pass_rejects_unknown_pass(finfet):
    d = run_flow("dac", {"bits": 1}, finfet)
    with pytest.raises(LayoutError, match="polish"):
        run_pass(d, "polish")


def test_check_all_clean_designs(finfet, planar):
    for tech in (finfet, planar):
        d = run_flow("dac", {"bits": 2}, tech)
        assert check_all(d) == []
