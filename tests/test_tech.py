import json
from importlib import resources

import pytest

from gridlay.errors import ParseError, UnknownLayer, ValidationError
from gridlay.tech import load_tech, load_tech_file
from gridlay.template import DynamicTemplate, NativeTemplate


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
    assert finfet.min_spacing("m1") == 20
    assert finfet.min_spacing("m2") == 24
    assert finfet.min_width("m1") == 20
    assert finfet.min_area("m1") == 1200
    assert finfet.cut_rule("m1").cut_layer == "cutm1"
    assert finfet.cut_rule("m3") is None
    with pytest.raises(UnknownLayer):
        planar.min_spacing("m5")


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
    assert isinstance(finfet.template("mos"), DynamicTemplate)
    assert isinstance(finfet.template("scan_core"), NativeTemplate)
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


def test_load_tech_file_unknown():
    with pytest.raises(ParseError):
        load_tech_file("no_such_tech")
