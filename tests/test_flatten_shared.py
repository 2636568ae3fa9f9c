"""Differential tests: shared-cache flattening against a placement oracle.

Copies of a master share its flat local rows and pin rects. The oracle here
maps every sub-element rect itself, through origin + 0.5*(I - M)*size + M*q
with q = S*c + offset for each corner c, and every pin rect with q = c, using
its own sign matrices; it calls none of anchor, flatten, rows and pin_abs.
"""

import random

import pytest

from gridlay.design import Design
from gridlay.flow import run_flow
from gridlay.geometry import Point, Rect, Transform
from gridlay.layoutjson import document_to_design, read_layout_json, write_layout_json
from gridlay.template import SubElement, VirtualInstance, generate

ALL = list(Transform)
SIGNS = {"R0": (1, 1), "MX": (1, -1), "MY": (-1, 1), "R180": (-1, -1)}

# Every template with its default parameters, plus non-default ones.
EXTRA_PARAMS = {
    "mos": [{"nf": 3, "vth": "lvt", "channel": "p"}, {"nf": 1, "vth": "hvt"}],
    "scan_bit": [{"with_levelshift": True}],
}
FLOWS = [("dac", {"bits": 3}), ("scan", {"n_bits": 3}), ("scan", {"n_bits": 2, "with_levelshift": True})]


def placed(vi: VirtualInstance) -> tuple[int, int, int, int]:
    """The instance's sign matrix diag(mx, my) and where its local origin lands."""
    mx, my = SIGNS[vi.transform.value]
    return mx, my, vi.origin.x + (1 - mx) // 2 * vi.size.x, vi.origin.y + (1 - my) // 2 * vi.size.y


def oracle(vi: VirtualInstance) -> list[tuple]:
    mx, my, ax, ay = placed(vi)
    out = []
    for sub in vi.subelements:
        sx, sy = SIGNS[sub.transform.value]
        for r in sub.rects:
            xs = [ax + mx * (sx * c + sub.offset.x) for c in (r.lo.x, r.hi.x)]
            ys = [ay + my * (sy * c + sub.offset.y) for c in (r.lo.y, r.hi.y)]
            out.append((r.layer, r.purpose, min(xs), min(ys), max(xs), max(ys)))
    return out


def pin_oracle(vi: VirtualInstance) -> list[tuple]:
    mx, my, ax, ay = placed(vi)
    out = []
    for name, pin in sorted(vi.pins.items()):
        r = pin.rect
        xs = [ax + mx * c for c in (r.lo.x, r.hi.x)]
        ys = [ay + my * c for c in (r.lo.y, r.hi.y)]
        out.append((name, r.layer, r.purpose, min(xs), min(ys), max(xs), max(ys)))
    return out


def flat(vi: VirtualInstance) -> list[tuple]:
    return [(r.layer, r.purpose, r.lo.x, r.lo.y, r.hi.x, r.hi.y) for r in vi.flatten()]


def pins(vi: VirtualInstance) -> list[tuple]:
    return [(name, r.layer, r.purpose, r.lo.x, r.lo.y, r.hi.x, r.hi.y)
            for name in sorted(vi.pins) for r in [vi.pin_abs(name)]]


def masters(tech):
    for name, tpl in tech.templates.items():
        for params in [{}] + (EXTRA_PARAMS.get(name, []) if not hasattr(tpl, "geometry") else []):
            yield generate(tpl, params, tech)


def mixed_master(seed: int) -> VirtualInstance:
    """A master whose sub-elements carry all four orientations of their own."""
    rng = random.Random(seed)
    size = Point(2 * rng.randint(20, 60), 2 * rng.randint(20, 60))
    subs = []
    for t in ALL:
        w, h = rng.randint(1, 8), rng.randint(1, 8)
        rects = (Rect("m1", Point(-w, -h), Point(w, 2 * h)), Rect("m2", Point(0, 0), Point(w, h), "pin"))
        offset = Point(rng.randint(2 * w, size.x - 2 * w), rng.randint(2 * h, size.y - 2 * h))
        subs.append(SubElement(rects, offset, t))
    return VirtualInstance("mixed", {}, Point(0, 0), Transform.R0, size, tuple(subs), {})


@pytest.fixture(scope="module")
def techs(finfet, planar):
    return (finfet, planar)


def check_copies(vi: VirtualInstance, rng: random.Random):
    """Copies made before and after the master's first flatten and first
    pin_abs match the oracle, at all four transforms."""
    before = [vi.at(Point(rng.randint(-900, 900), rng.randint(-900, 900)), t) for t in ALL]
    assert flat(vi) == oracle(vi)
    assert pins(vi) == pin_oracle(vi)
    after = [vi.at(Point(rng.randint(-900, 900), rng.randint(-900, 900)), t) for t in ALL]
    for copy in before + after:
        assert flat(copy) == oracle(copy), (copy.master, copy.transform)
        assert pins(copy) == pin_oracle(copy), (copy.master, copy.transform)
        assert copy.local_rows(copy.transform) is vi.local_rows(copy.transform)


def test_every_template_at_every_transform(techs):
    rng = random.Random(7)
    seen = 0
    for tech in techs:
        for vi in masters(tech):
            check_copies(vi, rng)
            seen += 1
    assert seen == 2 * (5 + 3)


def test_mixed_sub_element_orientations():
    rng = random.Random(8)
    for seed in range(20):
        check_copies(mixed_master(seed), rng)


@pytest.mark.parametrize("gen,params", FLOWS)
def test_every_generator_instance_matches_oracle(techs, gen, params):
    rng = random.Random(9)
    for tech in techs:
        d = run_flow(gen, params, tech)
        assert d.instances
        for vi in d.instances:
            assert flat(vi) == oracle(vi)
        for vi in d.instances[:4]:
            check_copies(vi, rng)


def test_cache_takes_no_part_in_equality_hash_or_repr(finfet):
    class FrozenMap(dict):
        def __hash__(self):
            return hash(tuple(sorted(self.items())))

    def fresh():
        vi = generate(finfet.template("mos"), {"nf": 2}, finfet)
        return VirtualInstance(vi.master, FrozenMap(vi.params), vi.origin, vi.transform,
                               vi.size, vi.subelements, FrozenMap(vi.pins))

    empty, filled = fresh(), fresh()
    h = hash(empty)
    for t in ALL:
        filled.at(Point(5, 5), t).flatten()
    assert filled.local_rows(Transform.MX) and not empty._local
    assert empty == filled and hash(filled) == h and repr(filled) == repr(empty)
    assert filled.at(Point(1, 2), Transform.MY) == empty.at(Point(1, 2), Transform.MY)
    assert filled.at(Point(1, 2), Transform.MY) != empty.at(Point(1, 2), Transform.MX)


@pytest.mark.parametrize("gen,params", FLOWS)
def test_rebuilt_instances_equal_fresh_ones(techs, gen, params):
    for tech in techs:
        d = run_flow(gen, params, tech)
        rebuilt = document_to_design(read_layout_json(write_layout_json(d)), tech)
        assert sorted(map(repr, rebuilt.instances)) == sorted(map(repr, d.instances))
        shared = {}
        for vi in rebuilt.instances:
            fresh = generate(tech.template(vi.master), dict(vi.params), tech).at(vi.origin, vi.transform)
            assert vi == fresh
            assert flat(vi) == flat(fresh) == oracle(vi)
            # one generation per distinct master and parameters
            key = (vi.master, tuple(sorted(vi.params.items())))
            assert shared.setdefault(key, vi._local) is vi._local


def test_rebuild_generates_once_per_master_and_params(finfet):
    d = Design("mix", finfet)
    for k, (name, params, t) in enumerate([
        ("mos", {"nf": 1}, Transform.R0), ("mos", {"nf": 2}, Transform.MY),
        ("mos", {"nf": 1}, Transform.R180), ("scan_core", {}, Transform.MX),
        ("mos", {"nf": 2, "vth": "lvt"}, Transform.R0), ("scan_core", {}, Transform.R0),
    ]):
        d.instances.append(generate(finfet.template(name), params, finfet).at(Point(300 * k, 50 * k), t))
    rebuilt = document_to_design(read_layout_json(write_layout_json(d)), finfet)
    caches = {}
    for vi in rebuilt.instances:
        fresh = generate(finfet.template(vi.master), dict(vi.params), finfet).at(vi.origin, vi.transform)
        assert vi == fresh and flat(vi) == flat(fresh) == oracle(vi)
        caches.setdefault(id(vi._local), set()).add((vi.master, tuple(sorted(vi.params.items()))))
    assert len(caches) == 4 and all(len(keys) == 1 for keys in caches.values())
