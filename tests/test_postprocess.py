import itertools
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gridlay import postprocess
from gridlay.design import Design, Wire, check_spacing
from gridlay.errors import (
    LayoutError,
    NoCutRule,
    NoDummyTemplate,
    NotColorable,
)
from gridlay.flow import FlowFlags, run_flow
from gridlay.geometry import Point, Rect, Transform
from gridlay.grid import OneDimGrid, PlacementGrid, generate_routing_grid
from gridlay.postprocess import (
    assign_colors,
    cut_pattern_gen,
    extend_min_area,
    fill_dummies,
)
from gridlay.tech import load_tech
from gridlay.template import VirtualInstance, generate

BIG = Rect("", Point(0, 0), Point(10 ** 6, 10 ** 6))


def wire_design(finfet, spans, track=100, pins=()):
    d = Design("t", finfet)
    for k, (lo, hi) in enumerate(spans):
        d.add_wire(
            Wire(layer="m1", axis="h", track=track, lo=lo, hi=hi, width=20,
                 is_pin=k in pins)
        )
    return d


def cut_rects(d):
    return sorted(
        ((r.lo.x, r.lo.y, r.hi.x, r.hi.y) for r in d.rects if r.purpose == "cut")
    )


# -- cut generation ------------------------------------------------------------

def test_cut_between_close_wires(finfet):
    # gap 10 < threshold 20: one cut centered at 55
    d = wire_design(finfet, [(0, 50), (60, 120)])
    cut_pattern_gen(d, "m1")
    cuts = cut_rects(d)
    # cut width 16 along the wire, length 20 across, centered on track 100
    assert (55 - 8, 90, 55 + 8, 110) in cuts
    # plus one boundary cut at each outer end (end margin 8)
    assert (0 - 8 - 8, 90, 0 - 8 + 8, 110) in cuts
    assert (120 + 8 - 8, 90, 120 + 8 + 8, 110) in cuts
    assert len(cuts) == 3


def test_no_cut_when_spacing_ok(finfet):
    d = wire_design(finfet, [(0, 50), (90, 120)])   # gap 30 >= threshold
    cut_pattern_gen(d, "m1")
    cuts = cut_rects(d)
    assert len(cuts) == 2    # boundary cuts only
    assert all(c[0] < 0 or c[2] > 120 for c in cuts)


def test_single_wire_boundary_cuts(finfet):
    d = wire_design(finfet, [(0, 50)])
    cut_pattern_gen(d, "m1")
    assert len(cut_rects(d)) == 2


def test_pin_wire_gets_no_boundary_cut(finfet):
    d = wire_design(finfet, [(0, 50)], pins={0})
    cut_pattern_gen(d, "m1")
    assert cut_rects(d) == []


def test_pin_wire_still_gets_gap_cut(finfet):
    # pins are exempt from boundary cuts only; the inter-wire rule still holds
    d = wire_design(finfet, [(0, 50), (60, 120)], pins={0, 1})
    cut_pattern_gen(d, "m1")
    cuts = cut_rects(d)
    assert len(cuts) == 1
    assert cuts[0] == (47, 90, 63, 110)


def test_vertical_wire_cuts_follow_axis(finfet):
    d = Design("t", finfet)
    d.add_wire(Wire(layer="m1", axis="v", track=40, lo=0, hi=50, width=20))
    cut_pattern_gen(d, "m1")
    cuts = cut_rects(d)
    assert len(cuts) == 2
    # cut length spans across the track (x), cut width along the wire (y)
    assert (40 - 10, -8 - 8, 40 + 10, -8 + 8) in cuts
    assert (40 - 10, 58 - 8, 40 + 10, 58 + 8) in cuts


def test_overlapping_wires_get_no_cut(finfet):
    d = wire_design(finfet, [(0, 50), (40, 90), (90, 130)])
    cut_pattern_gen(d, "m1")
    assert len(cut_rects(d)) == 2    # merged into one pattern: boundary cuts only


def test_cut_requires_rule(finfet, planar):
    d = Design("t", finfet)
    d.add_wire(Wire(layer="m3", axis="h", track=0, lo=0, hi=50, width=28))
    with pytest.raises(NoCutRule):
        cut_pattern_gen(d, "m3")
    d2 = Design("t", planar)
    d2.add_wire(Wire(layer="m1", axis="h", track=0, lo=0, hi=100, width=60))
    with pytest.raises(NoCutRule):
        cut_pattern_gen(d2, "m1")


def test_cut_idempotent(finfet):
    d = wire_design(finfet, [(0, 50), (60, 120), (130, 200)])
    first = cut_pattern_gen(d, "m1")
    snapshot = cut_rects(d)
    second = cut_pattern_gen(d, "m1")
    assert second == []
    assert cut_rects(d) == snapshot
    assert len(first) == len(snapshot)


def test_closed_form_cut_count(finfet):
    # k clustered non-pin wires: (k-1) inter-wire cuts + 2 boundary cuts
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(1, 12)
        spans = []
        x = 0
        for _i in range(k):
            length = rng.randint(20, 60)   # >= threshold, so only consecutive
            spans.append((x, x + length))  # pairs are close
            x += length + rng.randint(1, 19)
        d = wire_design(finfet, spans)
        made = cut_pattern_gen(d, "m1")
        assert len(made) == (k - 1) + 2, spans


def test_cut_soundness_randomized(finfet):
    # after the pass, the spacing checker is quiet on the track
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 20)
        spans = []
        for _i in range(n):
            lo = rng.randint(0, 900)
            spans.append((lo, lo + rng.randint(5, 120)))
        d = wire_design(finfet, spans)
        cut_pattern_gen(d, "m1")
        assert check_spacing(d, "m1") == [], spans


# A fixed seed, not derandomize, so that editing the body keeps the draw.
@settings(max_examples=80, deadline=None, derandomize=False, database=None)
@seed(159)
@given(
    spans=st.lists(st.tuples(st.integers(-200, 200), st.integers(1, 150), st.booleans()), max_size=2),
    low=st.integers(1, 150),
    high=st.integers(1, 150),
    ties=st.tuples(st.booleans(), st.booleans()),
    axis=st.sampled_from("hv"),
)
@example(spans=[], low=500, high=500, ties=(True, True), axis="h")  # a pin and a non-pin wire, one span
@example(spans=[(10, 10, False)], low=100, high=150, ties=(False, False), axis="h")  # pins at both ends
def test_cuts_do_not_depend_on_wire_order(finfet, spans, low, high, ties, axis):
    """A pin wire reaches each outer end of the track, tied at either end
    with a non-pin wire of the same extent where `ties` says. Every order of
    the wires gives the same cuts, and an end gets its cut iff some non-pin
    wire reaches it."""
    wires = [(lo, lo + n, is_pin) for lo, n, is_pin in spans]
    first = min([0] + [lo for lo, _, _ in wires])
    last = max([first + low, first + high] + [hi for _, hi, _ in wires])
    wires += [(first, first + low, p) for p in (True, False)[:1 + ties[0]]]
    wires += [(last - high, last, p) for p in (True, False)[:1 + ties[1]]]
    reached = (any(lo == first and not p for lo, _, p in wires),
               any(hi == last and not p for _, hi, p in wires))
    rule = finfet.layer("m1").cut
    c0 = 100 - rule.cut_length // 2
    ends = [(a - rule.cut_width // 2, c0) for a in (first - rule.end_margin, last + rule.end_margin)]
    if axis == "v":
        ends = [(c, a) for a, c in ends]
    seen = set()
    for order in itertools.permutations(wires):
        d = Design("t", finfet)
        for lo, hi, is_pin in order:
            d.add_wire(Wire(layer="m1", axis=axis, track=100, lo=lo, hi=hi, width=20, is_pin=is_pin))
        seen.add(frozenset((r.lo.x, r.lo.y) for r in cut_pattern_gen(d, "m1")))
        assert len(seen) == 1, order
    cuts = seen.pop()
    assert [end in cuts for end in ends] == list(reached)


# -- min-area extension ----------------------------------------------------------

def test_extend_min_area_example(finfet):
    # width 20, length 40, min_area 1200 -> length 60, 10 per side
    d = Design("t", finfet)
    w = d.add_wire(Wire(layer="m1", axis="h", track=0, lo=100, hi=140, width=20))
    touched = extend_min_area(d, "m1")
    assert touched == [w]
    assert (w.lo, w.hi) == (90, 150)
    assert w.width * w.length == 1200


def test_extend_leaves_large_wires(finfet):
    d = Design("t", finfet)
    w = d.add_wire(Wire(layer="m1", axis="h", track=0, lo=0, hi=60, width=20))
    assert extend_min_area(d, "m1") == []
    assert (w.lo, w.hi) == (0, 60)


def test_extend_noop_without_rule(planar):
    d = Design("t", planar)
    w = d.add_wire(Wire(layer="m1", axis="h", track=0, lo=0, hi=60, width=60))
    assert extend_min_area(d, "m1") == []   # min_area 0
    assert (w.lo, w.hi) == (0, 60)


def test_extend_never_shrinks_and_meets_area(finfet):
    rng = random.Random(43)
    d = Design("t", finfet)
    wires = [
        d.add_wire(Wire(layer="m1", axis=rng.choice("hv"), track=200 * i,
                        lo=0, hi=rng.randint(1, 120), width=20))
        for i in range(50)
    ]
    before = [(w.lo, w.hi) for w in wires]
    extend_min_area(d, "m1")
    for w, (lo0, hi0) in zip(wires, before):
        assert w.lo <= lo0 and w.hi >= hi0
        assert w.width * w.length >= 1200
        # symmetric within one grid unit
        assert abs((lo0 - w.lo) - (w.hi - hi0)) <= 1


def test_extend_rounds_up_on_indivisible_area(finfet):
    # area 1200 with width 28 needs ceil(1200/28)=43: strictly above min_area
    import dataclasses

    layers = dict(finfet.layers)
    layers["m3"] = dataclasses.replace(layers["m3"], min_area=1200)
    tech = dataclasses.replace(finfet, layers=layers)
    d = Design("t", tech)
    w = d.add_wire(Wire(layer="m3", axis="h", track=0, lo=0, hi=10, width=28))
    extend_min_area(d, "m3")
    assert w.length == 43
    assert w.width * w.length >= 1200


# -- coloring ---------------------------------------------------------------------

def colored_design(finfet):
    d = Design("t", finfet)
    d.rgrid = generate_routing_grid(finfet, finfet.grid_spec("sig"), BIG)
    for i in range(4):
        d.add_wire(
            Wire(layer="m1", axis="v", track=d.rgrid.xgrid.phys(i),
                 lo=0, hi=300, width=20)
        )
    return d


def test_assign_colors_alternates(finfet):
    d = colored_design(finfet)
    assign_colors(d, "m1", 0)
    assert [w.color for w in d.wires] == ["A", "B", "A", "B"]


def test_assign_colors_offset_shifts(finfet):
    d = colored_design(finfet)
    assign_colors(d, "m1", 1)
    assert [w.color for w in d.wires] == ["B", "A", "B", "A"]


def test_assign_colors_rejects_uncolorable(finfet, planar):
    d = Design("t", finfet)
    with pytest.raises(NotColorable):
        assign_colors(d, "m3", 0)
    d2 = Design("t", planar)
    with pytest.raises(NotColorable):
        assign_colors(d2, "m1", 0)


def test_assign_colors_skips_offgrid_wires(finfet):
    d = colored_design(finfet)
    w = d.add_wire(Wire(layer="m1", axis="v", track=7, lo=0, hi=300, width=20))
    assign_colors(d, "m1", 0)
    assert w.color is None


def test_adjacent_tracks_never_share_color(finfet):
    # strict alternation over two grid periods on the x axis
    d = colored_design(finfet)
    g = d.rgrid
    n = len(g.xgrid)
    for i in range(2 * n):
        assert g.xtracks.get(i).color != g.xtracks.get(i + 1).color


# -- dummy fill ---------------------------------------------------------------------

def dummy_design(finfet):
    d = Design("t", finfet)
    dummy = generate(finfet.templates["dummy"], {}, finfet)
    w, h = dummy.size.x, dummy.size.y
    d.pgrid = PlacementGrid(OneDimGrid(w, (0,)), OneDimGrid(h, (0,)))
    return d, dummy


def test_fill_empty_region(finfet):
    d, dummy = dummy_design(finfet)
    region = Rect("", Point(0, 0), Point(3 * dummy.size.x, 2 * dummy.size.y))
    added = fill_dummies(d, region)
    assert len(added) == 6
    assert all(vi.master == "dummy" for vi in added)


def test_fill_covered_region(finfet):
    d, dummy = dummy_design(finfet)
    mos = generate(finfet.template("mos"), {"nf": 1}, finfet)
    d.place(mos, d.pgrid, (0, 0))
    d.place(mos, d.pgrid, (1, 0))
    region = Rect("", Point(0, 0), Point(2 * dummy.size.x, dummy.size.y))
    assert fill_dummies(d, region) == []


def test_fill_partial_region(finfet):
    # one instance covering 2 of 3x2 sites leaves 4 free
    d, dummy = dummy_design(finfet)
    wide = generate(finfet.template("mos"), {"nf": 1}, finfet)
    assert wide.size.x == dummy.size.x
    d.place(wide, d.pgrid, (0, 0))
    d.place(wide, d.pgrid, (1, 0))
    region = Rect("", Point(0, 0), Point(3 * dummy.size.x, 2 * dummy.size.y))
    added = fill_dummies(d, region)
    assert len(added) == 4


def test_fill_generates_the_dummy_only_for_a_free_site(finfet, monkeypatch):
    calls = []

    def counting(tpl, params, tech):
        calls.append(tpl.name)
        return generate(tpl, params, tech)

    monkeypatch.setattr(postprocess, "generate", counting)
    d = run_flow("dac", {"bits": 2}, finfet, FlowFlags(dummies=False))
    lo, hi = d.instance_bbox()
    assert fill_dummies(d, Rect("", lo, hi)) == [] and calls == []   # DAC packs its row
    grow = d.pgrid.ygrid.period
    added = fill_dummies(d, Rect("", Point(lo.x, lo.y - grow), hi))
    assert added and calls == ["dummy"]   # one generation, however many dummies


def brute_force_free_sites(boxes, pgrid, region):
    """Every site in row-major order whose cell no box overlaps with positive area."""
    gx, gy = pgrid.xgrid, pgrid.ygrid
    free = []
    j = gy.index_where(">=", region.lo.y)
    while gy.phys(j) < region.hi.y:
        i = gx.index_where(">=", region.lo.x)
        while gx.phys(i) < region.hi.x:
            x0, x1, y0, y1 = gx.phys(i), gx.phys(i + 1), gy.phys(j), gy.phys(j + 1)
            if not any(lo.x < x1 and x0 < hi.x and lo.y < y1 and y0 < hi.y for lo, hi in boxes):
                free.append(Point(x0, y0))
            i += 1
        j += 1
    return free


grid_axis = st.integers(5, 40).flatmap(
    lambda period: st.sets(st.integers(0, period - 1), min_size=1, max_size=4).map(
        lambda coords: OneDimGrid(period, tuple(sorted(coords)))
    )
)
block = st.tuples(st.integers(-60, 160), st.integers(-60, 160), st.integers(0, 70), st.integers(0, 70))


# A fixed seed, not derandomize, so that editing the body keeps the draw.
@settings(max_examples=200, deadline=None, derandomize=False, database=None)
@seed(16)
@given(
    xgrid=grid_axis,
    ygrid=grid_axis,
    blocks=st.lists(block, max_size=12),
    region=st.tuples(st.integers(-40, 120), st.integers(-40, 120), st.integers(0, 120), st.integers(0, 120)),
)
def test_fill_matches_brute_force_occupancy(finfet, xgrid, ygrid, blocks, region):
    d = Design("t", finfet)
    d.pgrid = PlacementGrid(xgrid, ygrid)
    for x, y, w, h in blocks:
        d.instances.append(VirtualInstance("blk", {}, Point(x, y), Transform.R0, Point(w, h), (), {}))
    x, y, w, h = region
    area = Rect("", Point(x, y), Point(x + w, y + h))
    want = brute_force_free_sites([(vi.origin, vi.origin + vi.size) for vi in d.instances],
                                  d.pgrid, area)
    added = fill_dummies(d, area)
    assert [vi.origin for vi in added] == want
    assert d.instances[len(blocks):] == added


def test_fill_requires_dummy_template(finfet):
    doc = """
    {"name": "nodummy",
     "layers": [{"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": 10}]}
    """
    tech = load_tech(doc)
    d = Design("t", tech)
    d.pgrid = PlacementGrid(OneDimGrid(10, (0,)), OneDimGrid(10, (0,)))
    with pytest.raises(NoDummyTemplate):
        fill_dummies(d, Rect("", Point(0, 0), Point(100, 100)))


def test_fill_requires_placement_grid(finfet):
    d = Design("t", finfet)
    with pytest.raises(LayoutError):
        fill_dummies(d, Rect("", Point(0, 0), Point(100, 100)))
