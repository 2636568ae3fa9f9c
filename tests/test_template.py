import random

import pytest

from gridlay.errors import BadParams, UnknownPin
from gridlay.geometry import Point, Rect, Transform, apply_rect
from gridlay.template import (
    PinDef,
    SubElement,
    VirtualInstance,
    array_of,
    generate,
)

ALL = list(Transform)


# -- dynamic generation (mos) -------------------------------------------------

def test_mos_counts_nf1(finfet):
    vi = generate(finfet.template("mos"), {"nf": 1, "vth": "svt"}, finfet)
    cores = [s for s in vi.subelements if s.master.endswith("core")]
    bnds = [s for s in vi.subelements if s.master.endswith("bnd")]
    assert len(cores) == 1 and len(bnds) == 2
    pp = finfet.template("mos").config["poly_pitch"]
    rh = finfet.template("mos").config["row_height"]
    assert vi.size == Point(3 * pp, rh)


def test_mos_counts_nf4(finfet):
    vi = generate(finfet.template("mos"), {"nf": 4}, finfet)
    cores = [s for s in vi.subelements if s.master.endswith("core")]
    bnds = [s for s in vi.subelements if s.master.endswith("bnd")]
    assert len(cores) == 4 and len(bnds) == 2
    assert vi.size.x == 6 * finfet.template("mos").config["poly_pitch"]


def test_mos_bad_params(finfet):
    tpl = finfet.template("mos")
    with pytest.raises(BadParams):
        generate(tpl, {"nf": 0}, finfet)
    with pytest.raises(BadParams):
        generate(tpl, {"nf": 1, "vth": "uvt"}, finfet)
    with pytest.raises(BadParams):
        generate(tpl, {"nf": 1, "bogus": 3}, finfet)


def test_mos_vth_marker_selected(finfet):
    svt = generate(finfet.template("mos"), {"nf": 1, "vth": "svt"}, finfet)
    lvt = generate(finfet.template("mos"), {"nf": 1, "vth": "lvt"}, finfet)
    assert not any(r.layer == "vtl" for r in svt.flatten())
    assert any(r.layer == "vtl" for r in lvt.flatten())


def test_generate_determinism(finfet):
    a = generate(finfet.template("mos"), {"nf": 3, "vth": "hvt"}, finfet)
    b = generate(finfet.template("mos"), {"nf": 3, "vth": "hvt"}, finfet)
    assert a == b


def test_native_generation(finfet):
    vi = generate(finfet.template("scan_core"), {}, finfet)
    assert len(vi.subelements) == 1
    assert set(vi.pins) == {"scan_in", "scan_out", "clk"}
    with pytest.raises(BadParams):
        generate(finfet.template("scan_core"), {"n": 1}, finfet)


def test_native_template_takes_no_params(finfet):
    with pytest.raises(BadParams, match=r"^unknown parameter 'x'$"):
        generate(finfet.template("dummy"), {"x": 1}, finfet)


def test_scan_bit_levelshift(finfet):
    plain = generate(finfet.template("scan_bit"), {"with_levelshift": False}, finfet)
    shifted = generate(finfet.template("scan_bit"), {"with_levelshift": True}, finfet)
    assert len(plain.subelements) == 1
    assert len(shifted.subelements) == 2
    assert shifted.size.x > plain.size.x
    # chain pins flush on the cell edges
    for vi in (plain, shifted):
        assert vi.pins["scan_in"].rect.lo.x == 0
        assert vi.pins["scan_out"].rect.hi.x == vi.size.x


# -- placement algebra ---------------------------------------------------------

def simple_vi(origin=Point(0, 0), transform=Transform.R0, size=Point(40, 20),
              sub_offset=Point(10, 5), sub_transform=Transform.R0,
              rects=(Rect("m1", Point(0, 0), Point(1, 1)),)):
    return VirtualInstance(
        master="t",
        params={},
        origin=origin,
        transform=transform,
        size=size,
        subelements=(SubElement(tuple(rects), sub_offset, sub_transform),),
        pins={},
    )


# A sub-element's offset maps through the instance transform, and its own
# orientation composes onto the instance's. The 3x2 rect shows both: where
# its corner lands, and which way it extends from there.
L_RECT = (Rect("m1", Point(0, 0), Point(3, 2)),)


def test_place_subelement_r0():
    vi = simple_vi(rects=L_RECT)
    assert vi.flatten() == [Rect("m1", Point(10, 5), Point(13, 7))]


def test_place_subelement_my():
    vi = simple_vi(origin=Point(100, 0), transform=Transform.MY, rects=L_RECT)
    # corner at (100,0) + (40,0) + (-10,5) = (130,5); MY extends it to -x
    assert vi.flatten() == [Rect("m1", Point(127, 5), Point(130, 7))]


def test_place_subelement_r180():
    vi = simple_vi(transform=Transform.R180, sub_offset=Point(0, 0),
                   sub_transform=Transform.MX, rects=L_RECT)
    # corner at 0.5*(I-T)*s = s = (40,20) for R180; R180 after MX is MY
    assert vi.flatten() == [Rect("m1", Point(37, 20), Point(40, 22))]


def test_flatten_identity():
    r = Rect("m1", Point(3, 4), Point(7, 9))
    vi = simple_vi(sub_offset=Point(0, 0), rects=(r,))
    assert vi.flatten() == [r]


def test_flatten_mx_mirrors_about_bbox_midline():
    r = Rect("m1", Point(2, 3), Point(6, 8))
    vi = simple_vi(transform=Transform.MX, sub_offset=Point(0, 0), rects=(r,))
    (out,) = vi.flatten()
    sy = vi.size.y
    assert (out.lo, out.hi) == (Point(2, sy - 8), Point(6, sy - 3))


def test_flatten_empty():
    vi = VirtualInstance(
        master="t", params={}, origin=Point(0, 0), transform=Transform.R0,
        size=Point(10, 10), subelements=(), pins={},
    )
    assert vi.flatten() == []


def test_pin_abs(finfet):
    vi = generate(finfet.template("scan_core"), {}, finfet)
    r0 = vi.at(Point(1000, 500), Transform.R0)
    pin = r0.pin_abs("scan_in")
    assert pin == vi.pins["scan_in"].rect.translated(Point(1000, 500))
    # MY moves a left-edge pin to the right edge, same distance from it
    my = vi.at(Point(1000, 500), Transform.MY)
    flipped = my.pin_abs("scan_in")
    assert flipped.hi.x - 1000 == vi.size.x - vi.pins["scan_in"].rect.lo.x
    assert flipped.lo.y == pin.lo.y
    with pytest.raises(UnknownPin):
        r0.pin_abs("nope")


def rand_vi(rng):
    size = Point(2 * rng.randint(5, 50), 2 * rng.randint(5, 50))
    subs = []
    for _ in range(rng.randint(1, 4)):
        w = rng.randint(1, 5)
        h = rng.randint(1, 5)
        # keep the sub-element box inside the declared size for any T_i
        ox = rng.randint(w, size.x - w)
        oy = rng.randint(h, size.y - h)
        rects = (Rect("m1", Point(-w, -h), Point(w, h)),)
        subs.append(SubElement(rects, Point(ox, oy), rng.choice(ALL)))
    return VirtualInstance(
        master="t", params={}, origin=Point(0, 0), transform=Transform.R0,
        size=size, subelements=tuple(subs), pins={},
    )


def rect_key(r):
    return (r.layer, r.lo.x, r.lo.y, r.hi.x, r.hi.y)


def bbox_of(rects):
    """Lower-left / upper-right corners of a non-empty rect list."""
    return (Point(min(r.lo.x for r in rects), min(r.lo.y for r in rects)),
            Point(max(r.hi.x for r in rects), max(r.hi.y for r in rects)))


def test_transformed_flatten_equals_transformed_r0_flatten():
    """flatten(T placement) == T applied to flatten(R0), shifted to the same bbox."""
    rng = random.Random(21)
    for _ in range(200):
        base = rand_vi(rng)
        origin = Point(rng.randint(-500, 500), rng.randint(-500, 500))
        r0 = base.at(origin, Transform.R0)
        flat0 = r0.flatten()
        for t in ALL:
            placed = base.at(origin, t)
            got = sorted(placed.flatten(), key=rect_key)
            moved = [apply_rect(t, r) for r in flat0]
            lo_exp = bbox_of(moved)[0]
            lo_got = bbox_of(got)[0]
            shift = lo_got - lo_exp
            expected = sorted((r.translated(shift) for r in moved), key=rect_key)
            assert got == expected, t


def test_flatten_inside_declared_bbox():
    rng = random.Random(22)
    for _ in range(100):
        base = rand_vi(rng)
        origin = Point(rng.randint(-300, 300), rng.randint(-300, 300))
        for t in ALL:
            placed = base.at(origin, t)
            lo, hi = placed.origin, placed.origin + placed.size
            assert lo == origin and hi == origin + base.size
            box = bbox_of(placed.flatten())
            assert box[0].x >= lo.x and box[0].y >= lo.y
            assert box[1].x <= hi.x and box[1].y <= hi.y


def test_array_expansion(finfet):
    vi = generate(finfet.template("mos"), {"nf": 2}, finfet)
    cols, rows = 4, 3
    arr = array_of(vi, cols, rows, vi.size)
    assert len(arr) == cols * rows
    placed = [row for inst in arr for row in inst.rows()]
    assert len(placed) == cols * rows * len(vi.rows())
    assert len(set(placed)) == len(placed)
    with pytest.raises(BadParams):
        array_of(vi, 0, 1, vi.size)


def test_pins_must_lie_inside_bbox():
    with pytest.raises(ValueError, match="instance t: pin a outside bbox"):
        VirtualInstance(
            master="t", params={}, origin=Point(0, 0), transform=Transform.R0,
            size=Point(10, 10), subelements=(),
            pins={"a": PinDef(Rect("m1", Point(5, 5), Point(15, 8), "pin"))},
        )
