import random
import re

import pytest

from gridlay.errors import InfeasibleSpec, NotOnGrid, UnknownLayer
from gridlay.geometry import Point, Rect
from gridlay.grid import (
    CircularMapping,
    CircularMappingArray,
    GridSpec,
    OneDimGrid,
    RoutingGrid,
    Track,
    TrackSpec,
    generate_routing_grid,
    overlap_range,
)
from gridlay.tech import load_tech

GRID_TECH = """
{
  "name": "gridtech",
  "layers": [
    {"name": "m1", "gds": [1, 0], "min_width": 20, "min_spacing": 20},
    {"name": "m2", "gds": [2, 0], "min_width": 30, "min_spacing": 30},
    {"name": "mc", "gds": [3, 0], "min_width": 10, "min_spacing": 14, "colorable": true}
  ]
}
"""


def unrolled(elements, copies):
    """Oracle: the cyclic list written out `2*copies+1` times around zero."""
    return list(elements) * (2 * copies + 1)


# -- CircularMapping ----------------------------------------------------------

def test_cm_get_examples():
    m = CircularMapping(["a", "b", "c"])
    assert m.get(0) == "a"
    assert m.get(4) == "b"
    assert m.get(-1) == "c"   # floored modulo: wraps to the last element


def test_cm_get_matches_unrolled_oracle():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 8)
        elements = [rng.randint(0, 99) for _ in range(r)]
        m = CircularMapping(elements)
        K = 4
        flat = unrolled(elements, K)
        for i in range(-K * r, K * r):
            assert m.get(i) == flat[i + K * r]


def test_cm_slice_examples():
    m = CircularMapping(["a", "b", "c"])
    assert m.slice(0, 3, 1) == ["a", "b", "c"]
    assert m.slice(2, 6, 1) == ["c", "a", "b", "c"]
    assert m.slice(4, 1, -2) == ["b", "c"]
    assert m[2:6] == ["c", "a", "b", "c"]
    assert m[4:1:-2] == ["b", "c"]


def test_cm_slice_matches_index_oracle():
    rng = random.Random(12)
    for _ in range(200):
        r = rng.randint(1, 8)
        m = CircularMapping([rng.randint(0, 99) for _ in range(r)])
        start, stop = rng.randint(-20, 20), rng.randint(-20, 20)
        step = rng.choice([-3, -2, -1, 1, 2, 3])
        assert m.slice(start, stop, step) == [m.get(i) for i in range(start, stop, step)]


def test_cm_rejects_empty_and_zero_step():
    with pytest.raises(ValueError):
        CircularMapping([])
    with pytest.raises(ValueError):
        CircularMapping([1]).slice(0, 3, 0)


def test_cm_array():
    a = CircularMappingArray([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3)
    assert a.get(0, 0) == 1
    assert a.get(2, 3) == 1      # wraps both axes
    assert a.get(-1, -1) == 6
    assert a[1, 4] == 5
    with pytest.raises(ValueError):
        CircularMappingArray([[1, 2], [3]])


# -- OneDimGrid ---------------------------------------------------------------

def test_phys_examples():
    g = OneDimGrid(100, (0, 40, 85))
    assert g.phys(0) == 0
    assert g.phys(4) == 140
    assert g.phys(-1) == -15


def test_phys_monotone_and_periodic():
    g = OneDimGrid(100, (0, 40, 85))
    for i in range(-30, 30):
        assert g.phys(i + 1) > g.phys(i)
        assert g.phys(i + len(g.coords)) - g.phys(i) == g.period


def test_grid_validation():
    with pytest.raises(ValueError, match="grid period must be positive"):
        OneDimGrid(0, (0,))
    with pytest.raises(ValueError, match="grid needs at least one coordinate"):
        OneDimGrid(100, ())
    with pytest.raises(ValueError, match="grid coordinates must be strictly increasing"):
        OneDimGrid(100, (0, 0))
    with pytest.raises(ValueError, match=re.escape("grid coordinates must lie in [0, period)")):
        OneDimGrid(100, (0, 100))


def test_index_where_examples():
    g = OneDimGrid(100, (0, 40, 85))
    assert g.index_where(">=", 130) == 4
    assert g.phys(4) == 140
    assert g.index_where(">=", 0) == 0
    assert g.index_where("==", 85) == 2
    with pytest.raises(NotOnGrid):
        g.index_where("==", 86)


def linear_scan(g, op, value):
    """Oracle: walk indices far beyond the query and pick per the operator."""
    span = 4 * len(g.coords) + abs(value) // g.period * len(g.coords) + 8 * len(g.coords)
    indices = range(-span, span)
    if op == ">=":
        return min(i for i in indices if g.phys(i) >= value)
    if op == ">":
        return min(i for i in indices if g.phys(i) > value)
    if op == "<=":
        return max(i for i in indices if g.phys(i) <= value)
    if op == "<":
        return max(i for i in indices if g.phys(i) < value)
    hits = [i for i in indices if g.phys(i) == value]
    return hits[0] if hits else None


def test_index_where_matches_linear_scan():
    rng = random.Random(13)
    for _ in range(150):
        period = rng.randint(4, 60)
        n = rng.randint(1, min(5, period))
        coords = tuple(sorted(rng.sample(range(period), n)))
        g = OneDimGrid(period, coords)
        for _ in range(10):
            v = rng.randint(-3 * period, 3 * period)
            for op in ("<", "<=", ">=", ">"):
                assert g.index_where(op, v) == linear_scan(g, op, v), (coords, period, op, v)
            expected = linear_scan(g, "==", v)
            if expected is None:
                with pytest.raises(NotOnGrid):
                    g.index_where("==", v)
            else:
                assert g.index_where("==", v) == expected


def test_index_where_round_trip():
    g = OneDimGrid(100, (0, 40, 85))
    for i in range(-20, 21):
        assert g.index_where(">=", g.phys(i)) == i
        assert g.index_where("<=", g.phys(i)) == i
        assert g.index_where("==", g.phys(i)) == i


def test_index_where_off_grid_bracketing():
    rng = random.Random(14)
    g = OneDimGrid(100, (0, 40, 85))
    on_grid = {g.phys(i) for i in range(-40, 40)}
    for _ in range(200):
        v = rng.randint(-900, 900)
        if v in on_grid:
            continue
        i = g.index_where(">=", v)
        assert g.phys(i) >= v
        assert g.phys(i - 1) < v


# -- overlap_range ------------------------------------------------------------

def make_grid():
    axis = OneDimGrid(100, (0, 40, 85))
    return RoutingGrid(
        name="t",
        xgrid=axis,
        ygrid=axis,
        xtracks=CircularMapping([Track("m1", 20)] * 3),
        ytracks=CircularMapping([Track("m2", 30)] * 3),
        viamap=CircularMappingArray([[None] * 3] * 3),
    )


def test_routing_grid_validates_attribute_lengths():
    axis = OneDimGrid(100, (0, 40, 85))
    with pytest.raises(ValueError, match="track records do not match their axes"):
        RoutingGrid(
            name="t", xgrid=axis, ygrid=axis,
            xtracks=CircularMapping([Track("m1", 20)] * 2),      # wrong length
            ytracks=CircularMapping([Track("m2", 30)] * 3),
            viamap=CircularMappingArray([[None] * 3] * 3),
        )
    with pytest.raises(ValueError, match="viamap shape does not match the axes"):
        RoutingGrid(
            name="t", xgrid=axis, ygrid=axis,
            xtracks=CircularMapping([Track("m1", 20)] * 3),
            ytracks=CircularMapping([Track("m2", 30)] * 3),
            viamap=CircularMappingArray([[None] * 2] * 3),       # wrong shape
        )


def test_track_rejects_zero_width():
    with pytest.raises(ValueError, match="track widths must be positive"):
        Track("m1", 0)


@pytest.mark.parametrize("fields", [{"kind": "pwr"}, {"wmul": 0}, {"color": "C"}])
def test_track_spec_rejects_bad_fields(fields):
    (name,) = fields  # the error names the field
    with pytest.raises(ValueError, match=name):
        TrackSpec("m1", **fields)


def test_overlap_range_identical_rects():
    g = make_grid()
    r = Rect("m1", Point(0, 0), Point(100, 100))
    win = overlap_range(g, r, r)
    assert (win.x0, win.x1) == (0, 3)   # grid points 0, 40, 85, 100
    assert (win.y0, win.y1) == (0, 3)


def test_overlap_range_disjoint():
    g = make_grid()
    a = Rect("m1", Point(0, 0), Point(10, 10))
    b = Rect("m1", Point(500, 500), Point(510, 510))
    assert overlap_range(g, a, b) is None


def test_overlap_range_partial():
    g = make_grid()
    a = Rect("m1", Point(0, 0), Point(50, 100))
    b = Rect("m1", Point(40, 0), Point(90, 100))
    win = overlap_range(g, a, b)
    assert (win.x0, win.x1) == (1, 1)   # only coordinate 40


def test_overlap_range_matches_enumeration():
    g = make_grid()
    rng = random.Random(15)
    for _ in range(200):
        ax = sorted(rng.randint(-150, 250) for _ in range(2))
        ay = sorted(rng.randint(-150, 250) for _ in range(2))
        bx = sorted(rng.randint(-150, 250) for _ in range(2))
        by = sorted(rng.randint(-150, 250) for _ in range(2))
        a = Rect("m1", Point(ax[0], ay[0]), Point(ax[1], ay[1]))
        b = Rect("m1", Point(bx[0], by[0]), Point(bx[1], by[1]))
        box = a.intersection(b)
        expect_x = expect_y = None
        if box is not None:
            xs = [i for i in range(-10, 10) if box.lo.x <= g.xgrid.phys(i) <= box.hi.x]
            ys = [j for j in range(-10, 10) if box.lo.y <= g.ygrid.phys(j) <= box.hi.y]
            if xs and ys:
                expect_x, expect_y = (xs[0], xs[-1]), (ys[0], ys[-1])
        win = overlap_range(g, a, b)
        if expect_x is None:
            assert win is None
        else:
            assert (win.x0, win.x1) == expect_x
            assert (win.y0, win.y1) == expect_y


# -- generate_routing_grid ------------------------------------------------------

@pytest.fixture(scope="module")
def gridtech():
    return load_tech(GRID_TECH)


BIG = Rect("", Point(0, 0), Point(10000, 10000))


def test_single_signal_track(gridtech):
    spec = GridSpec("g", (TrackSpec("m1"),), (TrackSpec("m2"),))
    g = generate_routing_grid(gridtech, spec, BIG)
    assert g.xgrid.period == 40           # min_width 20 + min_spacing 20
    assert g.xgrid.coords == (0,)
    assert g.xtracks.elements == (Track("m1", 20),)
    assert g.ygrid.period == 60
    assert g.ytracks.elements == (Track("m2", 30),)


def test_power_track_pattern(gridtech):
    # Formula per track: pitch = max(w*wmul + spacing, landing); no vias here.
    # [signal, signal, power(3)] on m1: pitches 40, 40, 80 -> period 160,
    # slot centers 20, 60, 120, normalized to the first track -> 0, 40, 100.
    spec = GridSpec(
        "g",
        (TrackSpec("m1"), TrackSpec("m1"), TrackSpec("m1", kind="power", wmul=3)),
        (TrackSpec("m2"),),
    )
    g = generate_routing_grid(gridtech, spec, BIG)
    assert g.xgrid.period == 160
    assert g.xgrid.coords == (0, 40, 100)
    assert [t.width for t in g.xtracks.elements] == [20, 20, 60]


def test_empty_pattern_infeasible(gridtech):
    with pytest.raises(InfeasibleSpec):
        generate_routing_grid(gridtech, GridSpec("g", (), (TrackSpec("m2"),)), BIG)


def test_cycle_must_fit_region(gridtech):
    spec = GridSpec("g", (TrackSpec("m1"),), (TrackSpec("m2"),))
    with pytest.raises(InfeasibleSpec):
        generate_routing_grid(gridtech, spec, Rect("", Point(0, 0), Point(39, 1000)))


def test_unknown_layer(gridtech):
    spec = GridSpec("g", (TrackSpec("m9"),), (TrackSpec("m2"),))
    with pytest.raises(UnknownLayer):
        generate_routing_grid(gridtech, spec, BIG)


def test_auto_colors_alternate(gridtech):
    spec = GridSpec("g", (TrackSpec("mc"), TrackSpec("mc")), (TrackSpec("m2"),))
    g = generate_routing_grid(gridtech, spec, BIG)
    assert [t.color for t in g.xtracks.elements] == ["A", "B"]
    assert g.ytracks.get(0).color is None   # m2 is not colorable


def test_auto_colors_alternate_per_layer(gridtech):
    # The mc tracks sit at pattern indices 0 and 2, but are the layer's first
    # and second colored tracks.
    spec = GridSpec("g", (TrackSpec("mc"), TrackSpec("m2"), TrackSpec("mc"), TrackSpec("m2")),
                    (TrackSpec("m2"),))
    g = generate_routing_grid(gridtech, spec, BIG)
    assert [t.color for t in g.xtracks.elements] == ["A", None, "B", None]


def test_track_spacing_invariant(gridtech):
    # Adjacent track edges keep min spacing over two full periods, for random
    # patterns: 2*(c2 - c1) >= w1 + w2 + 2*spacing.
    rng = random.Random(16)
    for _ in range(100):
        layer = rng.choice(["m1", "m2", "mc"])
        tracks = []
        for _k in range(rng.randint(1, 5)):
            if rng.random() < 0.3:
                tracks.append(TrackSpec(layer, kind="power", wmul=rng.randint(2, 4)))
            else:
                tracks.append(TrackSpec(layer))
        spec = GridSpec("g", tuple(tracks), (TrackSpec("m2"),))
        g = generate_routing_grid(gridtech, spec, Rect("", Point(0, 0), Point(10 ** 7, 10 ** 7)))
        n = len(g.xgrid.coords)
        s = gridtech.layer(layer).min_spacing
        for i in range(2 * n):
            c1, c2 = g.xgrid.phys(i), g.xgrid.phys(i + 1)
            w1, w2 = g.xtracks.get(i).width, g.xtracks.get(i + 1).width
            assert 2 * (c2 - c1) >= w1 + w2 + 2 * s, (tracks, i)


def test_determinism(gridtech):
    spec = GridSpec(
        "g",
        (TrackSpec("m1"), TrackSpec("m1", kind="power", wmul=2)),
        (TrackSpec("m2"), TrackSpec("mc")),
    )
    a = generate_routing_grid(gridtech, spec, BIG)
    b = generate_routing_grid(gridtech, spec, BIG)
    assert a == b
