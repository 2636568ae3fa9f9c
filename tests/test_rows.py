"""Differential tests: a design's flat rows against an oracle that shares no
code with them.

Instance rows come from the placement oracle of test_flatten_shared, wire
boxes from the track -/+ width / 2 (the odd unit above), and via rows from
SCHEMAS.md's pad rule through test_via_geometry's oracle. Each instance's
`flatten` must be its rows, as Rects, in the same order.
"""

from collections import Counter

import pytest
from test_flatten_shared import oracle
from test_via_geometry import oracle_box

from gridlay.design import Wire
from gridlay.flow import run_flow
from gridlay.geometry import Point, Rect, Transform
from gridlay.postprocess import fill_dummies

PURPOSE = {None: "drawing", "A": "colorA", "B": "colorB"}
CASES = [("dac", {"bits": 3}), ("scan", {"n_bits": 3, "with_levelshift": True})]


def wire_box(w) -> tuple[int, int, int, int]:
    across = (w.track - w.width // 2, w.track + (w.width + 1) // 2)
    if w.axis == "h":
        return w.lo, across[0], w.hi, across[1]
    return across[0], w.lo, across[1], w.hi


def expected_rows(d) -> list[tuple]:
    out = [(layer, x0, y0, x1, y1, purpose, "inst")
           for vi in d.instances for layer, purpose, x0, y0, x1, y1 in oracle(vi)]
    out += [(w.layer, *wire_box(w), PURPOSE[w.color], "wire") for w in d.wires]
    for v in d.vias:
        via = d.tech.vias[v.via]
        for layer, pad in ((via.cut_layer, None), (via.lower, via.lower), (via.upper, via.upper)):
            out.append((layer, *oracle_box(via, pad, (v.pos.x, v.pos.y)), "drawing", "via"))
    out += [(p.wire.layer, *wire_box(p.wire), "pin", "pin") for p in d.pins]
    out += [(r.layer, r.lo.x, r.lo.y, r.hi.x, r.hi.y, r.purpose, "raw") for r in d.rects]
    return out


def full_design(tech, gen, params):
    """A flow's design, plus copies of its first instance at every transform,
    dummies on the rows above and below, a wire of odd width on each axis,
    and one raw rect of each purpose the spacing checker keeps."""
    d = run_flow(gen, params, tech)
    first = d.instances[0]
    lo, hi = d.instance_bbox()
    for k, t in enumerate(Transform):
        d.instances.append(first.at(Point(hi.x + 1000 * (k + 1), lo.y), t))
    grow = 2 * d.pgrid.ygrid.period
    fill_dummies(d, Rect("", Point(lo.x, lo.y - grow), Point(hi.x, hi.y + grow)))
    d.wires += [Wire("m1", "h", -201, -40, 30, 7), Wire("m1", "v", -300, 5, -95, 9, color="A")]
    for k, purpose in enumerate(("drawing", "dummy", "cut")):
        d.rects.append(Rect("m1", Point(-50 * k, -90), Point(-50 * k + 7, -60), purpose))
    return d


@pytest.mark.parametrize("gen,params", CASES)
def test_rows_match_the_oracle(finfet, planar, gen, params):
    for tech in (finfet, planar):
        d = full_design(tech, gen, params)
        rows = list(d.iter_rows())
        assert rows == expected_rows(d), tech.name
        src = Counter(row[6] for row in rows)
        assert all(src[s] for s in ("inst", "wire", "via", "pin", "raw")), src
        assert any(vi.master == "dummy" for vi in d.instances)
        assert {vi.transform for vi in d.instances} == set(Transform)
        if any(rule.colorable for rule in tech.layers.values()):
            assert {w.color for w in d.wires} >= {"A", "B"}

        inst = [r for vi in d.instances for r in vi.flatten()]
        assert inst == [Rect(layer, Point(x0, y0), Point(x1, y1), purpose)
                        for layer, x0, y0, x1, y1, purpose, s in rows if s == "inst"]


def test_own_rows_are_the_rows_after_the_instances(finfet):
    d = full_design(finfet, "dac", {"bits": 2})
    rows = list(d.iter_rows())
    inst = sum(len(vi.rows()) for vi in d.instances)
    assert list(d.own_rows()) == rows[inst:] and all(s == "inst" for *_, s in rows[:inst])
