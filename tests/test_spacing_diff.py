"""Differential tests: the sweep checker against the all-pairs oracle.

Both must return the same Violation list, element for element: the same
pairs, in the same order, with the same squared gaps.
"""

import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gridlay.design import Design, check_all, check_spacing
from gridlay.flow import run_flow
from gridlay.geometry import Point, Rect

from spacing_oracle import oracle_check_all, oracle_check_spacing

TECHS = ("mock_finfet", "mock_planar")
LAYERS = ("m1", "m2")
PURPOSES = ("drawing", "drawing", "drawing", "colorA", "dummy", "pin", "cut")


@pytest.fixture(scope="module")
def techs(finfet, planar):
    return {"mock_finfet": finfet, "mock_planar": planar}


def assert_same(d: Design):
    assert check_all(d) == oracle_check_all(d)
    for layer in LAYERS:
        assert check_spacing(d, layer) == oracle_check_spacing(d, layer)


def bisecting_cut(tech, a: Rect, b: Rect) -> Rect | None:
    """A cut on a's cut layer centered in the gap of a and b, spanning it."""
    rule = tech.layer(a.layer).cut
    if rule is None:
        return None
    if b.lo.x >= a.hi.x or a.lo.x >= b.hi.x:
        mid = (min(a.hi.x, b.hi.x) + max(a.lo.x, b.lo.x)) // 2
        y0, y1 = min(a.lo.y, b.lo.y), max(a.hi.y, b.hi.y)
        return Rect(rule.cut_layer, Point(mid - 1, y0), Point(mid + 1, y1), "cut")
    mid = (min(a.hi.y, b.hi.y) + max(a.lo.y, b.lo.y)) // 2
    x0, x1 = min(a.lo.x, b.lo.x), max(a.hi.x, b.hi.x)
    return Rect(rule.cut_layer, Point(x0, mid - 1), Point(x1, mid + 1), "cut")


# Coordinates on a lattice of a quarter of m1's spacing, so shapes touch,
# overlap, tie in distance and sit diagonally at sub-spacing gaps often. A
# jitter of one unit now and then puts gaps just below and above the rule.
jitter = st.sampled_from((0, 0, 0, 0, -1, 1))
lattice_rect = st.tuples(
    st.sampled_from(LAYERS),
    st.integers(0, 24), st.integers(0, 24),   # lo, in lattice steps
    st.integers(1, 6), st.integers(1, 6),     # size, in lattice steps
    jitter, jitter,
    st.sampled_from(PURPOSES),
)


# A fixed seed, not derandomize, so that editing the body keeps the draw.
@settings(max_examples=150, deadline=None, derandomize=False, database=None)
@seed(16)
@given(
    tech_name=st.sampled_from(TECHS),
    shapes=st.lists(lattice_rect, max_size=24),
    cuts=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24),
                            st.integers(1, 3), st.integers(1, 12)), max_size=4),
    bisect=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=4),
)
# two m1 shapes a quarter spacing apart, their gap bisected by a cut
@example(tech_name="mock_finfet", cuts=[], bisect=[(0, 1)],
         shapes=[("m1", 0, 0, 2, 2, 0, 0, "drawing"), ("m1", 3, 0, 2, 2, 0, 0, "drawing")])
# two m1 shapes a quarter spacing apart diagonally, a cut spanning their x gap:
# a diagonal gap is never cuttable
@example(tech_name="mock_finfet", cuts=[(2, 0, 1, 3)], bisect=[],
         shapes=[("m1", 0, 0, 2, 2, 0, 0, "drawing"), ("m1", 3, 3, 2, 2, 0, 0, "drawing")])
def test_sweep_matches_oracle_on_random_rects(techs, tech_name, shapes, cuts, bisect):
    tech = techs[tech_name]
    step = tech.layer("m1").min_spacing // 4
    d = Design("prop", tech)
    for layer, x, y, w, h, jx, jy, purpose in shapes:
        lo = Point(x * step + jx, y * step + jy)
        d.rects.append(Rect(layer, lo, Point(lo.x + w * step, lo.y + h * step), purpose))
    for layer in LAYERS:
        rule = tech.layer(layer).cut
        if rule is None:
            continue
        for x, y, w, h in cuts:
            d.rects.append(Rect(rule.cut_layer, Point(x * step, y * step),
                                Point((x + w) * step, (y + h) * step), "cut"))
    raw = list(d.rects)
    for i, j in bisect:
        if i < len(raw) and j < len(raw) and raw[i].layer == raw[j].layer:
            cut = bisecting_cut(tech, raw[i], raw[j])
            if cut is not None:
                d.rects.append(cut)
    assert_same(d)


def test_tie_goes_to_the_smallest_index_pair(finfet):
    # Two shapes of one pattern stand at the same gap from a third shape;
    # the first in iter_rows order is reported, with the exact squared gap.
    d = Design("tie", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    d.rects.append(Rect("m1", Point(0, 20), Point(20, 40)))   # touches the first
    d.rects.append(Rect("m1", Point(30, 10), Point(50, 30)))  # gap 10 to both
    out = check_all(d)
    assert out == oracle_check_all(d)
    assert [(v.a, v.b, v.gap_sq) for v in out] == [(d.rects[0], d.rects[2], 100)]


def test_pattern_merged_through_a_later_shape(finfet):
    # 0 and 2 are close; 1 bridges them only after both were seen.
    d = Design("bridge", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(20, 20)))
    d.rects.append(Rect("m1", Point(25, 0), Point(45, 20)))
    d.rects.append(Rect("m1", Point(10, 20), Point(35, 40)))
    assert check_all(d) == oracle_check_all(d) == []


def test_long_shape_stays_in_the_window(finfet):
    # The first shape ends far right of where the later ones start.
    d = Design("long", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(1000, 20)))
    d.rects.append(Rect("m1", Point(500, 30), Point(520, 50)))
    d.rects.append(Rect("m1", Point(990, -25), Point(1100, -15)))
    out = check_all(d)
    assert out == oracle_check_all(d)
    assert [v.gap_sq for v in out] == [100, 225]


def inject_defects(d: Design, rng: random.Random, k: int) -> None:
    """Add k raw rects at a sub-spacing gap (in x, in y or diagonal) from
    existing m1/m2 shapes, and one isolated too-close pair above the design."""
    targets = [Rect._make(row[:6]) for row in d.iter_rows()
               if row[0] in LAYERS and row[5] != "pin"]
    top = max(row[4] for row in d.iter_rows()) + 1000
    s = d.tech.layer("m1").min_spacing
    d.rects.append(Rect("m1", Point(0, top), Point(s, top + s)))
    d.rects.append(Rect("m1", Point(2 * s - 1, top), Point(3 * s, top + s)))
    for _ in range(k):
        r = rng.choice(targets)
        s = d.tech.layer(r.layer).min_spacing
        gap = rng.randint(1, s - 1)
        kind = rng.choice(("x", "y", "diagonal"))
        if kind == "x":
            lo = Point(r.hi.x + gap, r.lo.y)
        elif kind == "y":
            lo = Point(r.lo.x, r.hi.y + gap)
        else:
            lo = Point(r.hi.x + gap, r.hi.y + rng.randint(1, s - 1))
        d.rects.append(Rect(r.layer, lo, Point(lo.x + s, lo.y + s)))


FLOW_CASES = [
    ("dac", {"bits": 2}), ("dac", {"bits": 3}), ("dac", {"bits": 4}), ("dac", {"bits": 5}),
    ("scan", {"n_bits": 1}), ("scan", {"n_bits": 7, "with_levelshift": True}),
    ("scan", {"n_bits": 16}),
]


@pytest.mark.parametrize("tech_name", TECHS)
@pytest.mark.parametrize("gen,params", FLOW_CASES)
def test_sweep_matches_oracle_on_flow_designs(techs, tech_name, gen, params):
    tech = techs[tech_name]
    rng = random.Random(f"{tech_name}:{gen}:{sorted(params.items())}")
    clean = run_flow(gen, params, tech)
    assert check_all(clean) == oracle_check_all(clean) == []
    d = run_flow(gen, params, tech)
    inject_defects(d, rng, rng.randint(1, 4))
    out = check_all(d)
    assert out
    assert out == oracle_check_all(d)
