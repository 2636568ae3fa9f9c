import copy
import pickle
import random

import pytest

from gridlay.design import Design, check_all
from gridlay.flow import run_flow
from gridlay.geometry import (
    Point,
    Rect,
    Transform,
    apply,
    apply_rect,
    compose,
)
from gridlay.template import PinDef, VirtualInstance

ALL = list(Transform)

# Each orientation's 2x2 matrix, written out here so the tests below check
# the sign-pair code against the matrix algebra it stands for.
MATRIX = {
    Transform.R0: ((1, 0), (0, 1)),
    Transform.MX: ((1, 0), (0, -1)),
    Transform.MY: ((-1, 0), (0, 1)),
    Transform.R180: ((-1, 0), (0, -1)),
}
IDENTITY = ((1, 0), (0, 1))


def mat_apply(m, p: Point) -> Point:
    return Point(m[0][0] * p.x + m[0][1] * p.y, m[1][0] * p.x + m[1][1] * p.y)


def mat_mul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def random_points(seed: int, n: int = 100) -> list[Point]:
    rng = random.Random(seed)
    return [Point(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(n)]


def test_transform_matrices():
    # apply(t, p) is the matrix product M * p
    for t in ALL:
        for p in random_points(1):
            assert apply(t, p) == mat_apply(MATRIX[t], p)


def test_half_i_minus_matrices():
    # anchor() is origin + 0.5*(I - M) * size, and a pin corner q lands on
    # anchor + M * q
    rng = random.Random(2)
    for t in ALL:
        m = MATRIX[t]
        i_minus = tuple(tuple(IDENTITY[i][j] - m[i][j] for j in range(2)) for i in range(2))
        assert all(e % 2 == 0 for row in i_minus for e in row)
        half = tuple(tuple(e // 2 for e in row) for row in i_minus)
        for _ in range(20):
            size = Point(rng.randint(1, 500), rng.randint(1, 500))
            origin = Point(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
            lo = Point(rng.randint(0, size.x // 2), rng.randint(0, size.y // 2))
            pin = Rect("m1", lo, Point(rng.randint(lo.x, size.x), rng.randint(lo.y, size.y)), "pin")
            vi = VirtualInstance("m", {}, Point(0, 0), Transform.R0, size, (), {"p": PinDef(pin)})
            placed = vi.at(origin, t)
            anchor = origin + mat_apply(half, size)
            assert placed.anchor() == (anchor.x, anchor.y)
            lo, hi = (anchor + mat_apply(m, q) for q in (pin.lo, pin.hi))
            assert placed.pin_abs("p") == Rect("m1", lo, hi, "pin")
            # the declared box spans origin to origin + size in every orientation
            assert (placed.origin, placed.origin + placed.size) == (origin, origin + size)


def test_matrix_properties():
    # every orientation is its own inverse: M * M^T = I and M is symmetric,
    # so applying it twice gives the point back
    for t in ALL:
        m = MATRIX[t]
        mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
        assert mt == m and mat_mul(m, mt) == IDENTITY
        for p in random_points(3):
            assert apply(t, apply(t, p)) == p == mat_apply(mat_mul(m, mt), p)


def test_apply_examples():
    assert apply(Transform.R0, Point(3, 4)) == Point(3, 4)
    assert apply(Transform.MX, Point(3, 4)) == Point(3, -4)
    r = apply_rect(Transform.MY, Rect("m1", Point(1, 2), Point(5, 6)))
    assert (r.lo, r.hi) == (Point(-5, 2), Point(-1, 6))


def test_compose_examples():
    assert compose(Transform.R0, Transform.MX) is Transform.MX
    assert compose(Transform.MX, Transform.MY) is Transform.R180
    assert compose(Transform.R180, Transform.R180) is Transform.R0


def test_compose_table_matches_matrix_products():
    pairs = [(a, b) for a in ALL for b in ALL]
    assert len(pairs) == 16
    for a, b in pairs:
        assert MATRIX[compose(a, b)] == mat_mul(MATRIX[a], MATRIX[b])


def test_group_structure():
    # R0 is the identity, every element is its own inverse (Z2 x Z2)
    for a in ALL:
        assert compose(Transform.R0, a) is a
        assert compose(a, Transform.R0) is a
        assert compose(a, a) is Transform.R0
    for a in ALL:
        for b in ALL:
            for c in ALL:
                assert compose(compose(a, b), c) is compose(a, compose(b, c))
            assert compose(a, b) is compose(b, a)


def test_apply_respects_composition():
    pts = random_points(7)
    for a in ALL:
        for b in ALL:
            for p in pts:
                assert apply(compose(a, b), p) == apply(a, apply(b, p))


def test_rect_normalizes_corners():
    r = Rect("m1", Point(5, 6), Point(1, 2))
    assert r.lo == Point(1, 2) and r.hi == Point(5, 6)
    assert r.width == 4 and r.height == 4


def test_rect_is_its_flat_row(finfet):
    r = Rect("m1", Point(5, 6), Point(1, 2), "pin")
    assert tuple(r) == ("m1", 1, 2, 5, 6, "pin")
    made = Rect._make(("m1", 1, 2, 5, 6, "pin"))
    assert type(made) is Rect and made == r
    # A caller-built rect appended to a flow design, as the signoff benchmark
    # injects its defects, is a raw row as it stands, and the checker reports it.
    d = run_flow("dac", {"bits": 2}, finfet)
    assert check_all(d) == []
    a = Rect("m1", Point(1000, 1000), Point(1040, 1040))
    b = Rect("m1", Point(1050, 1000), Point(1090, 1040))
    d.rects += [a, b]
    assert list(d.own_rows())[-2:] == [(*a, "raw"), (*b, "raw")]
    [v] = check_all(d)
    assert (v.a, v.b, v.gap_sq) == (a, b, 100)
    assert str(v) == "m1: spacing violation between (1000,1000,1040,1040) and (1050,1000,1090,1040)"


def test_transform_members_are_keys_and_survive_copies():
    # members hash by identity: each is found in dicts and sets, and every
    # copy of a member is the member itself
    table = {t: t.value for t in ALL}
    for t in ALL:
        assert table[Transform(t.value)] == t.value and t in set(ALL)
        assert (t.value, t) in {(u.value, u) for u in ALL}
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t and copy.copy(t) is t
        assert copy.deepcopy({t: [t]}) == {t: [t]}


def test_rect_corners_are_points():
    r = Rect._make(("m1", 1, 2, 5, 6, "drawing"))
    for corner, want in ((r.lo, Point(1, 2)), (r.hi, Point(5, 6))):
        assert type(corner) is Point and corner == want
        assert (corner.x, corner.y) == tuple(want)
    assert r.lo + r.hi == Point(6, 8) and r.hi - r.lo == Point(4, 4)


def test_rect_rejects_unknown_purpose():
    with pytest.raises(ValueError):
        Rect("m1", Point(0, 0), Point(1, 1), "wiring")


def test_rect_intersection_and_overlap():
    a = Rect("m1", Point(0, 0), Point(10, 10))
    b = Rect("m1", Point(5, 5), Point(20, 20))
    box = a.intersection(b)
    assert (box.lo, box.hi) == (Point(5, 5), Point(10, 10))
    c = Rect("m1", Point(10, 0), Point(20, 10))  # abutting
    assert a.intersection(c).width == 0
    d = Rect("m1", Point(11, 0), Point(20, 10))
    assert a.intersection(d) is None


def test_point_arithmetic_and_bbox(finfet):
    assert Point(1, 2) + Point(3, 4) == Point(4, 6)
    assert Point(1, 2) - Point(3, 4) == Point(-2, -2)
    # the instance bbox spans every instance's origin to origin + size
    d = Design("t", finfet)
    assert d.instance_bbox() is None
    for origin, size, t in [((0, 0), (2, 1), Transform.MX), ((-5, 1), (5, 6), Transform.R180)]:
        d.instances.append(VirtualInstance("b", {}, Point(*origin), t, Point(*size), (), {}))
    assert d.instance_bbox() == (Point(-5, 0), Point(2, 7))
