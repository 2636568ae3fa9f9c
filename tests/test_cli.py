import json
from importlib import resources

import pytest

from gridlay.cli import main
from gridlay.design import Design, Wire
from gridlay.layoutjson import read_layout_json, write_layout_json
from gridlay.tech import load_tech_file


def run(argv):
    return main(argv)


def test_gen_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["gen", "--tech", "mock_finfet", "--generator", "dac",
            "--param", "bits=2", "--format", "json"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["design"] == "dac_bits2"


def test_gen_gds_and_svg(tmp_path):
    gds = tmp_path / "d.gds"
    svg = tmp_path / "d.svg"
    assert run(["gen", "--tech", "mock_planar", "--generator", "scan",
                "--param", "n_bits=2", "--format", "gds", "--out", str(gds)]) == 0
    assert run(["gen", "--tech", "mock_planar", "--generator", "scan",
                "--param", "n_bits=2", "--format", "svg", "--out", str(svg)]) == 0
    assert gds.read_bytes()[2:4] == b"\x00\x02"   # HEADER record
    assert svg.read_text().startswith("<?xml")


def test_gen_reports_bad_generator(tmp_path, capsys):
    rc = run(["gen", "--tech", "mock_finfet", "--generator", "nonesuch",
              "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "nonesuch" in capsys.readouterr().err


def test_gen_reports_bad_param(tmp_path, capsys):
    rc = run(["gen", "--tech", "mock_finfet", "--generator", "dac",
              "--param", "bits=twelve", "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "bits" in capsys.readouterr().err


@pytest.mark.parametrize("generator,param,message", [
    ("dac", "bits=twelve", "'bits' must be an integer, got 'twelve'"),
    ("dac", "bogus=1", "unknown parameter 'bogus'"),
    ("dac", "bits=99", "'bits' must be <= 8"),
    ("scan", "with_levelshift=maybe", "'with_levelshift' must be a boolean, got 'maybe'"),
])
def test_gen_bad_param_names_the_field(tmp_path, capsys, generator, param, message):
    rc = run(["gen", "--tech", "mock_finfet", "--generator", generator,
              "--param", param, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["gen", "--bogus"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


def test_list_generators(capsys):
    assert run(["list-generators"]) == 0
    out = capsys.readouterr().out
    assert "dac" in out and "scan" in out


def test_check_clean_design(tmp_path):
    out = tmp_path / "d.json"
    assert run(["gen", "--tech", "mock_finfet", "--generator", "scan",
                "--param", "n_bits=2", "--out", str(out)]) == 0
    assert run(["check", "--in", str(out)]) == 0


def test_check_flags_injected_violation(tmp_path, capsys, finfet):
    d = Design("bad", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=100, width=20))
    d.add_wire(Wire(layer="m1", axis="h", track=139, lo=0, hi=100, width=20))
    path = tmp_path / "bad.json"
    path.write_bytes(write_layout_json(d))
    rc = run(["check", "--in", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.strip().splitlines()) == 1
    assert "m1" in out



def test_check_rejects_shape_on_undefined_layer(tmp_path, capsys, finfet):
    doc = json.loads(write_layout_json(Design("bad", finfet)))
    doc["rects"] = [
        {"layer": "nosuch", "datatype": 0, "purpose": "drawing", "src": "raw", "bbox": bbox}
        for bbox in ([0, 0, 20, 20], [22, 0, 42, 20])
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = run(["check", "--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'nosuch'" in captured.err


@pytest.mark.parametrize("index", [1, -1])
def test_check_rejects_bad_pin_wire_index(tmp_path, capsys, finfet, index):
    d = Design("pins", finfet)
    d.add_pin("a", "n", d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=100, width=20)))
    doc = json.loads(write_layout_json(d))
    doc["pins"][0]["wire"] = index
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(doc))
    rc = run(["check", "--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "pins[0].wire" in captured.err

@pytest.mark.parametrize("command", ["check", "postprocess"])
@pytest.mark.parametrize("section,field,value", [
    ("instances", "transform", "R90"),
    ("wires", "axis", "d"),
    ("wires", "width", None),   # deleted
    ("instances", "origin", "ab"),   # unchecked, a TypeError inside check_all
    ("pins", "name", 7),   # unchecked, a TypeError in the pin sort of the writer
    ("pins", "wire", 0),   # unchecked, the pin labels a wire that is no pin
])
def test_broken_document_exits_1_naming_the_field(tmp_path, capsys, command, section, field, value):
    out = tmp_path / "d.json"
    assert run(["gen", "--tech", "mock_finfet", "--generator", "dac",
                "--param", "bits=1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if value is None:
        del doc[section][0][field]
    else:
        doc[section][0][field] = value
    out.write_text(json.dumps(doc))
    argv = [command, "--in", str(out)]
    if command == "postprocess":
        argv += ["--pass", "cuts", "--out", str(tmp_path / "o.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    if value is None:
        named = f"{section}[0]: missing field {field!r}\n"
    else:
        named = f"{section}[0].{field}: "
    assert err.startswith(f"error: {named}") and "Traceback" not in err


def _no_scan_in(templates, doc):
    del templates["scan_core"]["pins"]["scan_in"]


def _dynamic_core(templates, doc):
    templates["scan_bit"]["config"]["core"] = "mos"


def _str_finger_count(templates, doc):
    templates["mos"]["params"]["nf"] = {"type": "str", "default": "1"}
    doc["instances"].append({"master": "mos", "params": {"nf": "2"}, "origin": [0, 0],
                             "transform": "R0"})


@pytest.mark.parametrize("command", ["check", "postprocess"])
@pytest.mark.parametrize("edit", [_no_scan_in, _dynamic_core, _str_finger_count])
def test_rebuild_against_mismatched_templates_exits_1(tmp_path, capsys, command, edit):
    # Templates a builder would fail on: the tech fails to load, naming the template.
    tech = json.loads(resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text())
    src = tmp_path / "d.json"
    assert run(["gen", "--tech", "mock_finfet", "--generator", "scan", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    edit(tech["templates"], doc)
    src.write_text(json.dumps(doc))
    tech_path = tmp_path / "tech.json"
    tech_path.write_text(json.dumps(tech))
    argv = [command, "--tech", str(tech_path), "--in", str(src)]
    if command == "postprocess":
        argv += ["--pass", "cuts", "--out", str(tmp_path / "o.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: template ") and "Traceback" not in err


def test_postprocess_cuts_pass(tmp_path, finfet):
    d = Design("cuts", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=50, width=20))
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=60, hi=120, width=20))
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_bytes(write_layout_json(d))
    assert run(["postprocess", "--pass", "cuts", "--in", str(src),
                "--out", str(dst)]) == 0
    doc = read_layout_json(dst.read_bytes())
    cuts = [r for r in doc.data["rects"] if r["purpose"] == "cut"]
    assert len(cuts) == 3


def test_postprocess_min_area_pass(tmp_path, finfet):
    d = Design("area", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=40, width=20))
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_bytes(write_layout_json(d))
    assert run(["postprocess", "--pass", "min-area", "--in", str(src),
                "--out", str(dst)]) == 0
    doc = read_layout_json(dst.read_bytes())
    (wire,) = doc.data["wires"]
    assert wire["hi"] - wire["lo"] == 60


def test_postprocess_colors_pass(tmp_path, finfet):
    from gridlay.flow import FlowFlags, run_flow

    # generate without coloring, then color through the standalone pass
    d = run_flow("dac", {"bits": 1}, finfet, FlowFlags(colors=False))
    assert not any(w.color for w in d.wires)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_bytes(write_layout_json(d))
    assert run(["postprocess", "--pass", "colors", "--in", str(src),
                "--out", str(dst), "--offset", "1"]) == 0
    doc = read_layout_json(dst.read_bytes())
    assert any(w["color"] for w in doc.data["wires"])


def test_postprocess_dummies_pass(tmp_path, finfet):
    from gridlay.grid import OneDimGrid, PlacementGrid
    from gridlay.template import generate

    d = Design("gapped", finfet)
    mos = generate(finfet.template("mos"), {"nf": 1}, finfet)
    d.pgrid = PlacementGrid(OneDimGrid(mos.size.x, (0,)), OneDimGrid(mos.size.y, (0,)))
    d.place(mos, d.pgrid, (0, 0))
    d.place(mos, d.pgrid, (2, 0))   # hole at site 1
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_bytes(write_layout_json(d))
    assert run(["postprocess", "--pass", "dummies", "--in", str(src),
                "--out", str(dst)]) == 0
    doc = read_layout_json(dst.read_bytes())
    masters = [e["master"] for e in doc.data["instances"]]
    assert masters.count("dummy") == 1


def test_postprocess_rejects_unknown_pass(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["postprocess", "--pass", "polish", "--in", "x", "--out", "y"])
    assert err.value.code == 2


def _bad_track_kind() -> bytes:
    doc = json.loads(resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text())
    doc["grids"]["sig"]["ytracks"][0]["kind"] = "bogus"
    return json.dumps(doc).encode()


# json.loads raises RecursionError on this, not JSONDecodeError
DEEP = b"[" * 100_000


@pytest.mark.parametrize("data", [_bad_track_kind(), b'{"name": "m\xff"}', DEEP],
                         ids=["track-kind", "non-utf8", "deep"])
def test_gen_with_malformed_tech_exits_1(tmp_path, capsys, data):
    tech = tmp_path / "bad.json"
    tech.write_bytes(data)
    rc = run(["gen", "--tech", str(tech), "--generator", "dac", "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


def _clean_document(version: bytes) -> bytes:
    """A clean design's document with its schema_version written as `version`."""
    data = write_layout_json(Design("clean", load_tech_file("mock_finfet")))
    return data.replace(b'"schema_version": 1,', b'"schema_version": ' + version + b",", 1)


@pytest.mark.parametrize("data", [DEEP, _clean_document(b"true"), _clean_document(b"1.0")],
                         ids=["deep", "version-true", "version-float"])
def test_check_of_unreadable_document_exits_1(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    rc = run(["check", "--in", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_gen_accepts_json_suffixed_bundled_name(tmp_path):
    out = tmp_path / "d.json"
    assert run(["gen", "--tech", "mock_finfet.json", "--generator", "dac",
                "--param", "bits=2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tech"] == "mock_finfet"


def test_gen_with_tech_path(tmp_path):
    # tech given as a real file path instead of a bundled name
    from importlib import resources

    text = resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text()
    tech_path = tmp_path / "my_tech.json"
    tech_path.write_text(text)
    out = tmp_path / "d.json"
    assert run(["gen", "--tech", str(tech_path), "--generator", "dac",
                "--param", "bits=1", "--out", str(out)]) == 0


def test_postprocess_pass_errors_carry_stage(tmp_path, capsys, finfet):
    # no routing grid to color against: the error names the pass and layer
    d = Design("gridless", finfet)
    d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=100, width=20))
    src = tmp_path / "in.json"
    src.write_bytes(write_layout_json(d))
    rc = run(["postprocess", "--pass", "colors", "--in", str(src),
              "--out", str(tmp_path / "out.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: postprocess[colors:m1]:")


def test_postprocess_unrequired_pass_writes_document_unchanged(tmp_path):
    # a tech without a dummy template does not require dummy fill
    from importlib import resources

    tech = json.loads(resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text())
    del tech["templates"]["dummy"]
    tech_path = tmp_path / "nodummy.json"
    tech_path.write_text(json.dumps(tech))
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    assert run(["gen", "--tech", "mock_finfet", "--generator", "dac",
                "--param", "bits=1", "--out", str(src)]) == 0
    assert run(["postprocess", "--pass", "dummies", "--tech", str(tech_path),
                "--in", str(src), "--out", str(dst)]) == 0
    assert dst.read_bytes() == src.read_bytes()
