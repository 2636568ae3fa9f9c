import random

import pytest

from gridlay.design import Design, Wire, check_all, check_spacing
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
    d.place(vi, unit_grid, (0, 0))   # reported by check_spacing, not here
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


# -- check_spacing ----------------------------------------------------------------

def two_wire_design(finfet, gap):
    d = Design("t", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=50, width=20))
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=50 + gap, hi=120 + gap, width=20))
    return d


def test_spacing_boundary_satisfies_rule(finfet):
    d = two_wire_design(finfet, finfet.layer("m1").min_spacing)
    assert check_spacing(d, "m1") == []


def test_spacing_one_below_violates(finfet):
    d = two_wire_design(finfet, finfet.layer("m1").min_spacing - 1)
    violations = check_spacing(d, "m1")
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
    assert check_spacing(d, "m1") == []


def test_touching_shapes_merge(finfet):
    d = two_wire_design(finfet, 0)    # abutting: one aggregated pattern
    assert check_spacing(d, "m1") == []
    d2 = two_wire_design(finfet, -10)  # overlapping
    assert check_spacing(d2, "m1") == []


def test_diagonal_gap_uses_euclidean(finfet):
    d = Design("t", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    # dx=12, dy=16 -> distance 20 == min_spacing: no violation
    d.rects.append(Rect("m1", Point(32, 36), Point(52, 56)))
    assert check_spacing(d, "m1") == []
    # dx=12, dy=15 -> distance < 20: violation
    d2 = Design("t", finfet)
    d2.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    d2.rects.append(Rect("m1", Point(32, 35), Point(52, 55)))
    assert len(check_spacing(d2, "m1")) == 1


def test_shape_on_undefined_layer_is_rejected(finfet):
    d = Design("t", finfet)
    d.rects.append(Rect("nosuch", Point(0, 0), Point(20, 20)))
    d.rects.append(Rect("nosuch", Point(22, 0), Point(42, 20)))
    with pytest.raises(UnknownLayer, match="nosuch"):
        check_all(d)
    with pytest.raises(UnknownLayer, match="nosuch"):
        check_spacing(d, "m1")


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
