"""The layout-JSON writer against its oracle, the stdlib encoder.

`LayoutDocument.to_bytes` lays the document out from one template per
section entry. Whatever the design holds, its bytes must equal
`json.dumps(data, indent=2, ensure_ascii=True)` plus a newline, and reading
them back and writing again must give the same bytes. A seeded
hypothesis search builds designs in code whose design name, master names,
params, nets and pin names carry quotes, backslashes, control characters and
non-ASCII text.
"""

import json

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gridlay.design import Design, Pin, PlacedVia, Wire
from gridlay.flow import run_flow
from gridlay.geometry import PURPOSES, Point, Rect, Transform
from gridlay.grid import OneDimGrid, PlacementGrid, generate_routing_grid
from gridlay.layoutjson import design_to_document, read_layout_json, write_layout_json
from gridlay.template import SubElement, VirtualInstance

# A fixed seed per property, not derandomize, so that editing a body keeps its draw.
PROPERTY = settings(max_examples=120, deadline=None, derandomize=False, database=None)

TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é", " ", "\U0001f600"]),
)
COORD = st.integers(-(1 << 20), 1 << 20)
PARAM = st.one_of(st.booleans(), st.integers(-3, 3), TEXT)

# Plain data a design is built from, so that @example can name a case.
designs = st.fixed_dictionaries({
    "name": TEXT,
    "masters": st.lists(st.tuples(TEXT, st.dictionaries(TEXT, PARAM, max_size=3)),
                        min_size=1, max_size=3),
    "instances": st.lists(st.tuples(st.integers(0, 2), COORD, COORD, st.sampled_from(Transform)),
                          max_size=4),
    "wires": st.lists(st.tuples(st.sampled_from(["m1", "m2"]), st.sampled_from("hv"), COORD, COORD,
                                COORD, st.integers(1, 40), st.booleans(), st.none() | TEXT,
                                st.sampled_from(["A", "B", None])), max_size=4),
    "vias": st.lists(st.tuples(COORD, COORD), max_size=2),
    "pins": st.lists(st.tuples(TEXT, TEXT, st.integers(0, 3)), max_size=3),
    "rects": st.lists(st.tuples(st.sampled_from(["m1", "poly"]), COORD, COORD, COORD, COORD,
                                st.sampled_from(PURPOSES)), max_size=3),
    "grid": st.booleans(),
    "pgrid": st.none() | st.tuples(st.integers(1, 50), st.integers(1, 50)),
})

EMPTY = {"name": "", "masters": [("", {})], "instances": [], "wires": [], "vias": [],
         "pins": [], "rects": [], "grid": False, "pgrid": None}


@pytest.fixture(scope="module")
def rgrid(finfet):
    return generate_routing_grid(finfet, finfet.grids["sig"], Rect("", Point(0, 0), Point(400, 400)))


def build(tech, rgrid, case: dict) -> Design:
    d = Design(case["name"], tech)
    masters = [
        VirtualInstance(name, params, Point(0, 0), Transform.R0, Point(10, 10),
                        (SubElement((Rect("m1", Point(0, 0), Point(4, 4)),), Point(0, 0)),), {})
        for name, params in case["masters"]
    ]
    for m, x, y, t in case["instances"]:
        d.instances.append(masters[m % len(masters)].at(Point(x, y), t))
    d.wires.extend(Wire(*w) for w in case["wires"])
    via = sorted(tech.vias)[0]
    d.vias.extend(PlacedVia(via, Point(x, y)) for x, y in case["vias"])
    if d.wires:
        d.pins.extend(Pin(name, net, d.wires[w % len(d.wires)]) for name, net, w in case["pins"])
    d.rects.extend(Rect(layer, Point(x0, y0), Point(x1, y1), purpose)
                   for layer, x0, y0, x1, y1, purpose in case["rects"])
    if case["grid"]:
        d.rgrid = rgrid
    if case["pgrid"] is not None:
        px, py = case["pgrid"]
        d.pgrid = PlacementGrid(OneDimGrid(px, (0,)), OneDimGrid(py, (0, py - 1) if py > 1 else (0,)))
    return d


def oracle(data: dict) -> bytes:
    return (json.dumps(data, indent=2, ensure_ascii=True) + "\n").encode()


@PROPERTY
@seed(25)
@given(case=designs)
@example(case=EMPTY)
@example(case=dict(EMPTY, masters=[("m", {"flag": True}), ("m", {"flag": 1})],
                   instances=[(0, -5, -7, Transform.MX), (1, -5, -7, Transform.MX)],
                   grid=True, pgrid=(40, 1)))
def test_writer_matches_the_stdlib_encoder(finfet, rgrid, case):
    doc = design_to_document(build(finfet, rgrid, case))
    data = doc.to_bytes()
    assert data == oracle(doc.data)
    assert read_layout_json(data).to_bytes() == data


@pytest.mark.parametrize("tech", ["finfet", "planar"])
@pytest.mark.parametrize("gen,params", [
    ("dac", {"bits": 3}),
    ("scan", {"n_bits": 3, "with_levelshift": True}),
])
def test_canonical_documents_write_back_unchanged(request, tech, gen, params):
    data = write_layout_json(run_flow(gen, params, request.getfixturevalue(tech)))
    doc = read_layout_json(data)
    assert oracle(doc.data) == data
    assert doc.to_bytes() == data


def test_unknown_keys_of_a_read_document_are_not_written(finfet):
    data = write_layout_json(run_flow("dac", {"bits": 1}, finfet))
    doc = read_layout_json(data)
    doc.data["note"] = "x"
    doc.data["wires"][0]["note"] = "x"
    assert doc.to_bytes() == data
