import copy
import json
from importlib import resources

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gridlay.errors import LayoutError, ParseError, UnknownLayer, ValidationError
from gridlay.tech import BUNDLED_TECHS, load_tech, load_tech_file


def fixture_text(name: str) -> str:
    return resources.files("gridlay").joinpath(f"techs/{name}.json").read_text()


def test_planar_fixture_loads(planar):
    metals = [n for n in planar.layers if n.startswith("m") and n[1:].isdigit()]
    assert sorted(metals) == ["m1", "m2", "m3", "m4"]
    assert all(planar.layers[m].cut is None for m in metals)
    assert all(layer.cut is None for layer in planar.layers.values())
    assert not any(layer.colorable for layer in planar.layers.values())


def test_finfet_fixture_loads(finfet):
    assert finfet.layers["m1"].cut is not None
    assert finfet.layers["m2"].cut is not None
    assert finfet.layers["m1"].colorable and finfet.layers["m2"].colorable
    assert any(layer.cut is not None for layer in finfet.layers.values())
    assert any(layer.colorable for layer in finfet.layers.values())


def test_rule_queries(finfet, planar):
    assert finfet.layer("m1").min_spacing == 20
    assert finfet.layer("m2").min_spacing == 24
    assert finfet.layer("m1").min_width == 20
    assert finfet.layer("m1").min_area == 1200
    assert finfet.layer("m1").cut.cut_layer == "cutm1"
    assert finfet.layer("m3").cut is None
    with pytest.raises(UnknownLayer):
        planar.layer("m5")


def test_via_lookup(finfet):
    assert finfet.via_between("m1", "m2").name == "v12"
    assert finfet.via_between("m2", "m1").name == "v12"
    assert finfet.via_between("m1", "m3") is None


def test_load_is_pure(finfet):
    text = fixture_text("mock_finfet")
    assert load_tech(text) == load_tech(text)
    assert load_tech(text) == finfet


@pytest.mark.parametrize("name", ["mock_planar", "mock_finfet"])
def test_schema_faithfulness(name):
    """Every rule query equals the literal fixture value."""
    raw = json.loads(fixture_text(name))
    db = load_tech_file(name)
    assert db.name == raw["name"]
    assert len(db.layers) == len(raw["layers"])
    for entry in raw["layers"]:
        layer = db.layer(entry["name"])
        assert layer.gds_layer == entry["gds"][0]
        assert layer.gds_datatype == entry["gds"][1]
        assert layer.min_width == entry["min_width"]
        assert layer.min_spacing == entry["min_spacing"]
        assert layer.min_area == entry.get("min_area", 0)
        assert layer.colorable == entry.get("colorable", False)
        if "cut" in entry:
            assert layer.cut.cut_layer == entry["cut"]["layer"]
            assert layer.cut.spacing_threshold == entry["cut"]["spacing_threshold"]
    for entry in raw.get("vias", ()):
        via = db.vias[entry["name"]]
        assert via.cut_size == tuple(entry["cut_size"])
        assert dict(via.enclosure) == entry["enclosure"]


def test_templates_parsed(finfet):
    assert finfet.template("mos").kind == "mos"
    assert finfet.template("scan_core").kind == "native"
    assert "sig" in finfet.grids


def test_zero_min_width_rejected():
    doc = {
        "name": "bad",
        "layers": [{"name": "m1", "gds": [1, 0], "min_width": 0, "min_spacing": 10}],
    }
    with pytest.raises(ValidationError) as err:
        load_tech(json.dumps(doc))
    assert "min_width" in str(err.value)


def test_validation_names_offending_field():
    doc = {
        "name": "bad",
        "layers": [{"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": -4}],
    }
    with pytest.raises(ValidationError) as err:
        load_tech(json.dumps(doc))
    assert "m1" in str(err.value) and "min_spacing" in str(err.value)


def test_cut_width_above_threshold_rejected():
    doc = {
        "name": "bad",
        "layers": [
            {"name": "c", "gds": [2, 0], "min_width": 10, "min_spacing": 10},
            {"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": 10,
             "cut": {"layer": "c", "width": 30, "length": 10,
                     "spacing_threshold": 20, "end_margin": 5}},
        ],
    }
    with pytest.raises(ValidationError):
        load_tech(json.dumps(doc))


def test_unknown_cut_layer_rejected():
    doc = {
        "name": "bad",
        "layers": [
            {"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": 10,
             "cut": {"layer": "nope", "width": 8, "length": 10,
                     "spacing_threshold": 20, "end_margin": 5}},
        ],
    }
    with pytest.raises(ValidationError):
        load_tech(json.dumps(doc))


def test_duplicate_layer_rejected():
    doc = {
        "name": "bad",
        "layers": [
            {"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": 10},
            {"name": "m1", "gds": [2, 0], "min_width": 10, "min_spacing": 10},
        ],
    }
    with pytest.raises(ValidationError):
        load_tech(json.dumps(doc))


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        load_tech("{not json")


def test_deeply_nested_document_is_a_parse_error():
    with pytest.raises(ParseError, match="^tech document is not valid JSON"):
        load_tech("[" * 100_000)


@pytest.mark.parametrize("text", ["[]", "5", "null"])
def test_document_that_is_no_object_is_named(text):
    with pytest.raises(ValidationError, match=r"^tech: must be an object"):
        load_tech(text)


def test_load_tech_file_unknown():
    with pytest.raises(ParseError):
        load_tech_file("no_such_tech")


# -- malformed documents -------------------------------------------------------

# (path into mock_finfet, value put there, what the ValidationError must name)
BAD_VALUES = [
    (("grids", "sig", "ytracks", 0, "kind"), "bogus", "grid sig"),
    (("grids", "sig", "ytracks", 2, "wmul"), 0, "grid sig.ytracks[2].wmul"),
    # One layer's colored tracks alternate masks, across the period wrap too.
    (("grids", "sig", "xtracks"), [{"layer": "m1"}] * 3,
     "grid sig.xtracks: the colored tracks of layer 'm1' must alternate masks across the "
     "period wrap, got ['A', 'B', 'A']"),
    (("grids", "sig", "ytracks", 1, "color"), "A",
     "grid sig.ytracks: the colored tracks of layer 'm2' must alternate masks across the "
     "period wrap, got ['A', 'A']"),
    (("vias", 0, "cut_size"), [4], "via v12.cut_size"),
    (("vias", 0, "enclosure"), [2, 4], "via v12.enclosure"),
    # An enclosure key must name the via's lower or upper layer, which differ.
    (("vias", 0, "enclosure", "M1"), 2, "via v12.enclosure.M1: must be one of ['m1', 'm2']"),
    (("vias", 0, "upper"), "m1", "via v12.upper: must be a defined layer other than lower 'm1'"),
    (("templates", "scan_core", "pins"), [], "template scan_core"),
    (("templates",), [], "tech.templates"),
    (("grids",), [], "tech.grids"),
    (("templates", "scan_core", "size"), "ab", "template scan_core.size"),
    (("templates", "scan_core", "size", 0), -1, "template scan_core: negative size"),
    (("templates", "scan_core", "pins", "scan_in", "rect"), [0, 80, 20, 201],
     "template scan_core: pin scan_in outside bbox"),
    (("templates", "dummy", "geometry", 0, "rect"), ["0", "0", "9", "9"], "template dummy.rect"),
    (("templates", "dummy", "geometry", 0, "purpose"), "bogus", "template dummy"),
    (("layers", 0), 5, "layers[0]"),
    (("layers", 6, "cut"), 3, "layer m1.cut"),
    (("templates", "mos", "params", "vth", "choices"), 3, "template mos"),
    (("layers", 6, "colorable"), "no", "layer m1.colorable"),
    (("layers", 6, "min_width"), None, "layer m1.min_width"),
    (("templates", "mos", "params", "nf", "min"), "a", "template mos.params.nf.min"),
    (("templates", "mos", "params", "nf", "max"), 2.5, "template mos.params.nf.max"),
    (("templates", "mos", "params", "nf", "default"), "x", "template mos.params.nf.default"),
    (("templates", "mos", "params", "nf", "default"), True, "template mos.params.nf.default"),
    (("templates", "mos", "params", "vth", "default"), 1, "template mos.params.vth.default"),
    # A param spec must agree with itself: its default passes its own checks,
    # min is at most max, and each choice has the param's type.
    (("templates", "mos", "params", "channel", "default"), "x",
     "template mos.params.channel.default: 'channel' must be one of ['n', 'p']"),
    (("templates", "tap", "params", "n", "default"), 0, "template tap.params.n.default: 'n' must be >= 1"),
    (("templates", "decap", "params", "n", "default"), 65,
     "template decap.params.n.default: 'n' must be <= 64"),
    (("templates", "tap", "params", "n", "min"), 100,
     "template tap.params.n.min: must be <= max 64, got 100"),
    (("templates", "mos", "params", "channel", "choices"), ["n", 1],
     "template mos.params.channel.choices[1]: must be a string, got 1"),
    (("templates", "mos", "params", "nf", "type"), "float", "template mos.params.nf.type"),
    (("templates", "mos", "kind"), "foo",
     "template mos.kind: must be one of ['native', 'mos', 'strip', 'scan_bit'], got 'foo'"),
    (("templates", "tap", "config"), [], "template tap.config"),
    (("templates", "mos", "config", "poly_pitch"), "x", "template mos.config.poly_pitch"),
    (("templates", "mos", "config", "pin_margin"), -1, "template mos.config.pin_margin"),
    (("templates", "tap", "config", "cell_rects", 0, "rect"), ["a", 0, 1, 1],
     "template tap.config.cell_rects[0].rect"),
    (("templates", "tap", "config", "pins", "tap", "layer"), 5, "template tap.config.pins.tap.layer"),
    (("templates", "tap", "params", "n", "type"), "str", "template tap.params.n.type"),
    (("templates", "mos", "params", "vth", "type"), "int", "template mos.params.vth.type"),
    (("templates", "scan_bit", "params", "with_levelshift", "type"), "int",
     "template scan_bit.params.with_levelshift.type"),
    (("templates", "scan_bit", "config", "core"), "tap", "template scan_bit.config.core"),
    (("templates", "scan_bit", "config", "levelshift"), "nosuch",
     "template scan_bit.config.levelshift"),
    # Layer names inside templates must name a layer of the tech.
    (("templates", "mos", "config", "vth_markers", "svt"), "nosuch",
     "template mos.config.vth_markers.svt: must be a defined layer, got 'nosuch'"),
    (("templates", "mos", "config", "channel_markers", "p"), "nosuch",
     "template mos.config.channel_markers.p: must be a defined layer, got 'nosuch'"),
    (("templates", "mos", "config", "poly_layer"), "nosuch",
     "template mos.config.poly_layer: must be a defined layer, got 'nosuch'"),
    (("templates", "mos", "config", "active_layer"), "nosuch", "template mos.config.active_layer"),
    (("templates", "mos", "config", "pin_layer"), "nosuch", "template mos.config.pin_layer"),
    (("templates", "dummy", "geometry", 0, "layer"), "nosuch",
     "template dummy.layer: must be a defined layer, got 'nosuch'"),
    (("templates", "scan_core", "pins", "clk", "layer"), "nosuch",
     "template scan_core.pins.clk.layer: must be a defined layer, got 'nosuch'"),
    (("templates", "tap", "config", "cell_rects", 1, "layer"), "nosuch",
     "template tap.config.cell_rects[1].layer: must be a defined layer, got 'nosuch'"),
    (("templates", "tap", "config", "pins", "tap", "layer"), "nosuch",
     "template tap.config.pins.tap.layer"),
]


def finfet_doc() -> dict:
    return json.loads(fixture_text("mock_finfet"))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize(
    "path,value,names", BAD_VALUES, ids=[".".join(map(str, p)) for p, _, _ in BAD_VALUES]
)
def test_malformed_entry_is_a_validation_error_naming_it(path, value, names):
    doc = finfet_doc()
    node_at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ValidationError) as err:
        load_tech(json.dumps(doc))
    assert names in str(err.value)


@pytest.mark.parametrize("path,field", [
    (("layers", 6), "min_spacing"),
    (("layers", 6, "cut"), "end_margin"),
    (("vias", 1), "enclosure"),
    (("templates", "scan_core"), "size"),
    (("grids", "sig", "xtracks", 0), "layer"),
    (("templates", "mos", "config"), "poly_pitch"),
    (("templates", "scan_bit", "config"), "levelshift"),
    (("templates", "mos", "params"), "vth"),
    (("templates", "tap", "params"), "n"),
])
def test_missing_field_is_named(path, field):
    doc = finfet_doc()
    del node_at(doc, path)[field]
    with pytest.raises(ValidationError, match=f"missing field '{field}'"):
        load_tech(json.dumps(doc))


@pytest.mark.parametrize("key,template,pin", [
    ("core", "scan_core", "scan_in"),
    ("core", "scan_core", "scan_out"),
    ("core", "scan_core", "clk"),
    ("levelshift", "lvlshift", "out"),
])
def test_scan_bit_templates_need_the_pins_its_builder_reads(key, template, pin):
    doc = finfet_doc()
    del doc["templates"][template]["pins"][pin]
    named = rf"^template scan_bit\.config\.{key}: template {template} has no pin '{pin}'$"
    with pytest.raises(ValidationError, match=named):
        load_tech(json.dumps(doc))


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    data = fixture_text("mock_finfet").encode().replace(b'"m1"', b'"m\xff1"', 1)
    with pytest.raises(ParseError):
        load_tech(data)
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ParseError):
        load_tech_file(path)


# A fixed seed, not derandomize, so that editing the body keeps the draw.
FUZZ = settings(max_examples=300, deadline=None, derandomize=False, database=None)
SWAPS = (None, True, 0, -1, 2.5, "bogus", "", [], [0, 0, 0], {}, {"x": 1})


def mutate(doc, steps: list[int], swap: int | None) -> None:
    """Walk down `steps` (each picks a key or index, modulo the size) and
    delete or swap the value where the walk stops: at its last step, or
    where the next value is no object or array to descend into."""
    node = doc
    for depth, step in enumerate(steps):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return
        key = keys[step % len(keys)]
        child = node[key]
        if depth == len(steps) - 1 or not (isinstance(child, (dict, list)) and child):
            if swap is not None:
                node[key] = copy.deepcopy(SWAPS[swap])
            elif isinstance(node, dict):
                del node[key]
            else:
                node.pop(key)
            return
        node = child


def test_mutate_leaves_the_swap_values_unchanged():
    doc = {"a": 1, "b": 2}
    mutate(doc, [1], 8)          # doc["b"] = [0, 0, 0]
    mutate(doc, [1, 0], None)    # delete doc["b"][0]
    assert doc == {"a": 1, "b": [0, 0]}
    assert SWAPS[8] == [0, 0, 0]


@FUZZ
@seed(292)
@given(
    name=st.sampled_from(BUNDLED_TECHS),
    mutations=st.lists(
        st.tuples(
            st.lists(st.integers(0, 1 << 10), min_size=1, max_size=6),
            st.one_of(st.none(), st.integers(0, len(SWAPS) - 1)),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_tech_loader_fails_only_with_layout_errors(name, mutations):
    doc = json.loads(fixture_text(name))
    for steps, swap in mutations:
        mutate(doc, steps, swap)
    try:
        load_tech(json.dumps(doc))
    except LayoutError:
        pass
