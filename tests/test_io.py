import json
import math
import struct
from importlib import resources

import pytest

from gridlay.design import Design, Wire
from gridlay.errors import GdsOverflow, ParseError, ValidationError
from gridlay.flow import run_flow
from gridlay.gds import (
    LAYER,
    STRNAME,
    XY,
    Boundary,
    Library,
    Sref,
    Structure,
    decode_real,
    encode_real,
    read_library,
    write_gds,
    write_library,
)
from gridlay.geometry import Point, Rect, Transform
from gridlay.layoutjson import (
    design_to_document,
    document_to_design,
    read_layout_json,
    write_layout_json,
)
from gridlay.svg import write_svg
from gridlay.tech import load_tech
from gridlay.template import SubElement, VirtualInstance, generate

from test_golden import DESIGNS, FLAGS, TECHS

# frozen from the 8-byte-real definition: m/2^56 * 16^(e-64), verified by the
# independent decoder below
UNITS_USER = bytes.fromhex("3e4189374bc6a7f0")   # 1e-3
UNITS_DB = bytes.fromhex("3944b82fa09b5a54")     # 1e-9


def independent_decode(b: bytes) -> float:
    """Oracle decoder built only on struct/math, no writer code."""
    (word,) = struct.unpack(">Q", b)
    sign = -1.0 if word >> 63 else 1.0
    exponent = ((word >> 56) & 0x7F) - 64
    mantissa = word & ((1 << 56) - 1)
    return sign * mantissa * math.pow(16.0, exponent) / math.pow(2.0, 56)


def find_record(data: bytes, rtype: int) -> bytes:
    pos = 0
    while pos < len(data):
        size, t = struct.unpack(">HH", data[pos:pos + 4])
        if t == rtype:
            return data[pos + 4:pos + size]
        pos += size
    raise AssertionError(f"record {rtype:#06x} not found")


# -- 8-byte reals -----------------------------------------------------------------

def test_real_constants():
    assert encode_real(1e-3) == UNITS_USER
    assert encode_real(1e-9) == UNITS_DB
    assert independent_decode(UNITS_USER) == 1e-3
    assert independent_decode(UNITS_DB) == 1e-9


def test_real_round_trip():
    for v in (0.0, 1.0, -1.0, 180.0, 1e-3, 1e-9, 0.5, 1024.0, -0.125):
        assert decode_real(encode_real(v)) == v


# -- GDS structure -----------------------------------------------------------------

def test_empty_design_skeleton(finfet):
    d = Design("empty", finfet)
    data = write_gds(d)
    lib = read_library(data)
    assert lib.name == "empty"
    assert lib.user_unit == 1e-3 and lib.db_unit_m == 1e-9
    assert [s.name for s in lib.structures] == ["empty"]
    assert lib.structures[0].elements == ()
    units = find_record(data, 0x0305)
    assert units == UNITS_USER + UNITS_DB


def test_single_rect_boundary(finfet):
    d = Design("one", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(1, 1)))
    lib = read_library(write_gds(d))
    (top,) = lib.structures
    (b,) = top.elements
    assert isinstance(b, Boundary)
    assert b.layer == 15 and b.datatype == 0
    assert len(b.xy) == 5 and b.xy[0] == b.xy[-1]
    assert b.xy == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))


def place_one(finfet, transform, vi=None, origin=Point(100, 200)):
    d = Design("inst", finfet)
    vi = vi if vi is not None else generate(finfet.template("mos"), {}, finfet)
    d.instances.append(vi.at(origin, transform))
    return d


def sref_items(data: bytes) -> list[tuple]:
    return [(e.sname, e.strans, e.angle, e.pos) for s in read_library(data).structures
            for e in s.elements if isinstance(e, Sref)]


def test_each_sref_is_the_one_its_copy_gets_alone(finfet):
    # copies of two mos params, each in all four transforms, interleaved:
    # a structure name or SREF head shared too widely shows up as a copy
    # whose SREF differs from the one written for it alone
    masters = [generate(finfet.template("mos"), {"nf": nf}, finfet) for nf in (1, 2)]
    copies = [(vi, t, Point(1000 * n, 3000 * k)) for n, t in enumerate(Transform)
              for k, vi in enumerate(masters)]
    d = Design("inst", finfet)
    d.instances += [vi.at(origin, t) for vi, t, origin in copies]
    got = sref_items(write_gds(d))
    want = [item for vi, t, origin in copies
            for item in sref_items(write_gds(place_one(finfet, t, vi, origin)))]
    assert len(want) == 8 and len({item[0] for item in want}) == 2
    assert len({item[1:3] for item in want}) == 4
    assert got == sorted(want, key=lambda item: (item[0], *item[3]))


def test_sref_transform_mapping(finfet):
    cases = {
        Transform.R0: (None, None),
        Transform.MX: (0x8000, None),
        Transform.MY: (0x8000, 180.0),
        Transform.R180: (None, 180.0),
    }
    for t, (strans, angle) in cases.items():
        lib = read_library(write_gds(place_one(finfet, t)))
        srefs = [e for s in lib.structures for e in s.elements if isinstance(e, Sref)]
        assert len(srefs) == 1
        assert (srefs[0].strans, srefs[0].angle) == (strans, angle), t


def test_sref_anchor_keeps_bbox(finfet):
    # the master struct holds R0 geometry; the sref anchor compensates the
    # transform so flattening through the stream lands on the same bbox
    vi = generate(finfet.template("mos"), {}, finfet)
    for t in Transform:
        d = place_one(finfet, t)
        lib = read_library(write_gds(d))
        master = next(s for s in lib.structures if s.name != "inst")
        sref = next(
            e for s in lib.structures for e in s.elements if isinstance(e, Sref)
        )
        m = {"R0": (1, 1), "MX": (1, -1), "MY": (-1, 1), "R180": (-1, -1)}[t.value]

        def through_stream(p):
            return (m[0] * p[0] + sref.pos[0], m[1] * p[1] + sref.pos[1])

        pts = [through_stream(p) for b in master.elements for p in b.xy]
        flat = d.instances[0].flatten()
        lo = (min(p[0] for p in pts), min(p[1] for p in pts))
        hi = (max(p[0] for p in pts), max(p[1] for p in pts))
        want_lo, want_hi = (
            min(r.lo.x for r in flat), min(r.lo.y for r in flat)), (
            max(r.hi.x for r in flat), max(r.hi.y for r in flat))
        assert lo == want_lo and hi == want_hi, t


def test_gds_round_trip_byte_identical(finfet, planar):
    for tech in (finfet, planar):
        for gen, params in (("dac", {"bits": 2}), ("scan", {"n_bits": 4})):
            d = run_flow(gen, params, tech)
            first = write_gds(d)
            again = write_library(read_library(first))
            assert first == again


@pytest.mark.parametrize("tech_name", TECHS)
@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("flags", FLAGS)
def test_gds_writers_agree_on_the_golden_corpus(finfet, planar, tech_name, design, flags):
    """write_gds packs the design's rows itself; write_library, given the
    stream read back, must write the same bytes."""
    gen, params = DESIGNS[design]
    tech = {"mock_finfet": finfet, "mock_planar": planar}[tech_name]
    data = write_gds(run_flow(gen, params, tech, FLAGS[flags]))
    assert write_library(read_library(data)) == data


def record_ends(data: bytes) -> list[int]:
    """Offsets just past each record, read from the length words alone."""
    ends, pos = [], 0
    while pos < len(data):
        pos += struct.unpack(">H", data[pos:pos + 2])[0]
        ends.append(pos)
    return ends


@pytest.mark.parametrize("gen,params", [("dac", {"bits": 2}), ("scan", {"n_bits": 2})])
def test_gds_truncated_at_any_record_boundary(finfet, planar, gen, params):
    for tech in (planar, finfet):
        data = write_gds(run_flow(gen, params, tech))
        assert write_library(read_library(data)) == data
        ends = record_ends(data)
        assert ends[-1] == len(data)
        for cut in [0] + ends[:-1]:
            with pytest.raises(ParseError):
                read_library(data[:cut])

def record_offset(data: bytes, rtype: int) -> int:
    pos = 0
    while struct.unpack(">H", data[pos + 2:pos + 4])[0] != rtype:
        pos += struct.unpack(">H", data[pos:pos + 2])[0]
    return pos


def test_gds_payload_that_does_not_fit_its_record_type(finfet):
    data = write_gds(run_flow("dac", {"bits": 2}, finfet))
    at = record_offset(data, LAYER)
    # a LAYER record carrying 4 bytes instead of 2
    wide = data[:at] + struct.pack(">HH", 8, LAYER) + data[at + 4:at + 6] + bytes(2) + data[at + 6:]
    with pytest.raises(ParseError, match=f"record 0x0d02 at offset {at}:"):
        read_library(wide)
    # a structure name byte above 0x7f
    at = record_offset(data, STRNAME)
    name = bytearray(data)
    name[at + 4] = 0xE4
    with pytest.raises(ParseError, match=f"record 0x0606 at offset {at}:"):
        read_library(bytes(name))
    assert write_library(read_library(data)) == data


def test_gds_record_after_endlib(finfet):
    data = write_gds(run_flow("dac", {"bits": 2}, finfet))
    after = f"^record 0x0400 at offset {len(data)}: record after ENDLIB$"
    with pytest.raises(ParseError, match=after):
        read_library(data + struct.pack(">HH", 4, 0x0400))


def test_gds_boundary_xy_of_a_half_point(finfet):
    data = write_gds(run_flow("dac", {"bits": 2}, finfet))
    at = record_offset(data, XY)   # the first element of the first master, a BOUNDARY
    size = struct.unpack(">H", data[at:at + 2])[0]
    # one more 4-byte integer: 11 in all, an x without its y
    odd = (data[:at] + struct.pack(">HH", size + 4, XY) + data[at + 4:at + size] + bytes(4)
           + data[at + size:])
    with pytest.raises(ParseError, match=f"^record 0x1003 at offset {at}: bad {size}-byte payload"):
        read_library(odd)


def test_units_follow_the_tech_unit():
    doc = json.loads(resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text())
    doc["unit_nm"] = 2
    lib = read_library(write_gds(run_flow("dac", {"bits": 1}, load_tech(json.dumps(doc)))))
    assert lib.db_unit_m == pytest.approx(2e-9) and lib.user_unit == pytest.approx(2e-3)


def test_gds_rejects_non_ascii_names(finfet):
    with pytest.raises(ValidationError, match="'dä'"):
        write_gds(Design("dä", finfet))


def test_gds_deterministic(finfet):
    a = write_gds(run_flow("dac", {"bits": 1}, finfet))
    b = write_gds(run_flow("dac", {"bits": 1}, finfet))
    assert a == b


def test_gds_overflow(finfet):
    d = Design("big", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(2 ** 31, 10)))
    with pytest.raises(GdsOverflow):
        write_gds(d)


@pytest.mark.parametrize("v", [2 ** 31, -2 ** 31 - 1])
@pytest.mark.parametrize("where", ["top", "master", "sref"])
def test_gds_overflow_past_either_end_of_32_bits(finfet, v, where):
    d = Design("big", finfet)
    box = Rect("m1", Point(0, 0), Point(v, 10))
    if where == "top":
        d.rects.append(box)
    elif where == "master":  # a master's geometry; its SREF sits at the origin
        sub = SubElement((box,), Point(0, 0))
        d.instances.append(VirtualInstance("big", {}, Point(0, 0), Transform.R0, Point(10, 10),
                                           (sub,), {}))
    else:  # a small master whose SREF anchor lies at x = v
        sub = SubElement((Rect("m1", Point(0, 0), Point(10, 10)),), Point(0, 0))
        d.instances.append(VirtualInstance("big", {}, Point(v, 0), Transform.R0, Point(10, 10),
                                           (sub,), {}))
    with pytest.raises(GdsOverflow, match=f"coordinate {v} exceeds"):
        write_gds(d)


def test_boundaries_of_any_point_count_round_trip():
    tri = Boundary(1, 0, ((0, 0), (5, 0), (0, 0)))
    seven = Boundary(63, 7, ((-2 ** 31, 0), (2 ** 31 - 1, 0), (2 ** 31 - 1, 9), (4, 9),
                             (4, 3), (-2 ** 31, 3), (-2 ** 31, 0)))
    lib = Library("pts", 1e-3, 1e-9, (Structure("s", (tri, seven)),))
    data = write_library(lib)
    assert read_library(data) == lib and write_library(read_library(data)) == data
    for b in (tri, seven):  # each element record by record, packed independently
        xy = [c for p in b.xy for c in p]
        element = b"".join((
            struct.pack(">HH", 4, 0x0800), struct.pack(">HHh", 6, 0x0D02, b.layer),
            struct.pack(">HHh", 6, 0x0E02, b.datatype),
            struct.pack(f">HH{len(xy)}i", 4 + 4 * len(xy), 0x1003, *xy), struct.pack(">HH", 4, 0x1100),
        ))
        assert element in data


def test_records_even_and_big_endian(finfet):
    d = run_flow("scan", {"n_bits": 2}, finfet)
    data = write_gds(d)
    pos = 0
    sizes = []
    while pos < len(data):
        size, _t = struct.unpack(">HH", data[pos:pos + 4])
        assert size % 2 == 0 and size >= 4
        sizes.append(size)
        pos += size
    assert pos == len(data)
    assert struct.unpack(">h", data[4:6])[0] == 600   # HEADER version


def test_pin_labels_present(finfet):
    from gridlay.gds import Text

    d = run_flow("dac", {"bits": 1}, finfet)
    lib = read_library(write_gds(d))
    texts = [e for s in lib.structures for e in s.elements if isinstance(e, Text)]
    assert {t.string for t in texts} == {"out", "b0", "vss"}
    # pin labels go on datatype+1 of the wire's layer
    m2 = finfet.layer("m2")
    assert all(t.layer == m2.gds_layer and t.texttype == m2.gds_datatype + 1
               for t in texts)


# -- layout JSON --------------------------------------------------------------------

def test_empty_design_document(finfet):
    d = Design("empty", finfet)
    doc = design_to_document(d)
    assert doc.data["instances"] == []
    assert doc.data["rects"] == []
    assert list(doc.data)[:3] == ["schema_version", "design", "tech"]


def test_json_deterministic(finfet):
    d = run_flow("dac", {"bits": 2}, finfet)
    assert write_layout_json(d) == write_layout_json(d)


def test_json_insertion_order_irrelevant(finfet):
    d1 = Design("t", finfet)
    d2 = Design("t", finfet)
    rects = [
        Rect("m1", Point(0, 0), Point(10, 10)),
        Rect("m2", Point(50, 0), Point(60, 10)),
        Rect("m1", Point(100, 0), Point(110, 10)),
    ]
    d1.rects.extend(rects)
    d2.rects.extend(reversed(rects))
    assert write_layout_json(d1) == write_layout_json(d2)


def test_json_round_trip(finfet):
    d = run_flow("scan", {"n_bits": 3}, finfet)
    data = write_layout_json(d)
    doc = read_layout_json(data)
    assert doc.to_bytes() == data
    assert doc == design_to_document(d)
    rebuilt = document_to_design(doc, finfet)
    assert write_layout_json(rebuilt) == data


def test_json_validates_schema(finfet):
    with pytest.raises(ValidationError):
        read_layout_json(b'{"schema_version": 99}')


@pytest.mark.parametrize("version", [b"true", b"1.0"])
def test_schema_version_is_the_integer_1(finfet, version):
    # True == 1.0 == 1 in Python, but neither is the schema's integer 1
    data = write_layout_json(run_flow("dac", {"bits": 1}, finfet))
    bad = data.replace(b'"schema_version": 1,', b'"schema_version": ' + version + b",", 1)
    named = {b"true": "True", b"1.0": "1.0"}[version]
    with pytest.raises(ValidationError, match=f"^unsupported schema_version {named}$"):
        read_layout_json(bad)


def test_deeply_nested_document_is_a_parse_error():
    with pytest.raises(ParseError, match="^layout document is not valid JSON"):
        read_layout_json(b"[" * 100_000)



@pytest.mark.parametrize("index", [1, -1, True, "0", None])
def test_pin_wire_index_out_of_range(finfet, index):
    d = Design("pins", finfet)
    d.add_pin("a", "n", d.add_wire(Wire(layer="m1", axis="h", track=100, lo=0, hi=100, width=20)))
    doc = read_layout_json(write_layout_json(d))
    assert document_to_design(doc, finfet).pins[0].wire.net == "n"
    doc.data["pins"][0]["wire"] = index
    with pytest.raises(ValidationError, match=r"pins\[0\]\.wire"):
        document_to_design(doc, finfet)

def delete(key):
    return lambda e: e.pop(key)


def setter(key, value):
    return lambda e: e.__setitem__(key, value)


@pytest.mark.parametrize("section,change,field", [
    ("wires", delete("width"), "width"),
    ("instances", delete("params"), "params"),
    ("instances", setter("transform", "R90"), "transform"),
    ("instances", setter("origin", [0]), "origin"),
    ("wires", setter("axis", "d"), "axis"),
    ("wires", setter("width", "20"), "width"),
    ("vias", setter("pos", 7), "pos"),
    ("rects", setter("purpose", "bogus"), "purpose"),
    ("rects", setter("bbox", [0, 0, 20]), "bbox"),
    ("rects", setter("layer", "nosuch"), "layer"),
    ("rects", delete("src"), "src"),
])
def test_rebuild_errors_name_the_field(finfet, section, change, field):
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 1}, finfet)))
    entries = doc.data[section]
    k = next(i for i, e in enumerate(entries) if section != "rects" or e["src"] == "raw")
    change(entries[k])
    # A bad value is named as the field, a missing one as the entry lacking it.
    if field in entries[k]:
        named = rf"^{section}\[{k}\]\.{field}: "
    else:
        named = rf"^{section}\[{k}\]: missing field '{field}'$"
    with pytest.raises(ValidationError, match=named):
        document_to_design(doc, finfet)


@pytest.mark.parametrize("section,changes,field", [
    ("instances", {"origin": "ab"}, "origin"),
    ("instances", {"origin": [0, "5"]}, "origin"),
    ("wires", {"track": "ab"}, "track"),
    ("wires", {"lo": "a", "hi": "b"}, "lo"),
    ("vias", {"via": "nosuch"}, "via"),
    ("vias", {"via": ["m1"]}, "via"),
    ("vias", {"pos": ["a", "b"]}, "pos"),
    ("rects", {"bbox": ["a", "b", "c", "d"]}, "bbox"),
    ("wires", {"track": True}, "track"),
    ("wires", {"lo": True}, "lo"),
    ("wires", {"hi": True}, "hi"),
    ("wires", {"width": True}, "width"),
    ("instances", {"origin": [True, 0]}, "origin"),
    ("vias", {"pos": [0, False]}, "pos"),
    ("rects", {"bbox": [False, 0, 20, 20]}, "bbox"),
    ("wires", {"is_pin": "yes"}, "is_pin"),
    ("wires", {"net": ["x"]}, "net"),
    ("wires", {"color": 5}, "color"),
    ("wires", {"layer": 5}, "layer"),
    ("pins", {"name": 7}, "name"),
    ("pins", {"net": 7}, "net"),
    ("pins", {"wire": 0}, "wire"),   # a wire that is no pin
    ("pins", {"wire": 4}, "wire"),   # the pin wire of another net
], ids=["origin-str", "origin-str-coord", "track-str", "lo-hi-str", "via-unknown", "via-list",
        "pos-str", "bbox-str", "track-bool", "lo-bool", "hi-bool", "width-bool", "origin-bool",
        "pos-bool", "bbox-bool", "is_pin-str", "net-list", "color-int", "layer-int", "pin-name-int",
        "pin-net-int", "pin-wire-not-pin", "pin-wire-other-net"])
def test_rebuild_rejects_values_that_would_fail_later(finfet, section, changes, field):
    # Values the geometry takes without complaint; unchecked, they surface as a
    # bare TypeError or KeyError in check_all or an exporter.
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 1}, finfet)))
    entries = doc.data[section]
    k = next(i for i, e in enumerate(entries) if section != "rects" or e["src"] == "raw")
    entries[k].update(changes)
    with pytest.raises(ValidationError, match=rf"^{section}\[{k}\]\.{field}: "):
        document_to_design(doc, finfet)


@pytest.mark.parametrize("axis,field,value", [
    ("y", "coords", [False]),
    ("x", "period", True),
    ("x", "coords", "0"),
])
def test_rebuild_rejects_bad_pgrid_values(finfet, axis, field, value):
    # JSON booleans are Python ints: unchecked, a `true` period or a `false`
    # coordinate rebuilds and is written back out as a boolean.
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 1}, finfet)))
    doc.data["pgrid"][axis][field] = value
    with pytest.raises(ValidationError, match=rf"^pgrid\.{axis}\.{field}: "):
        document_to_design(doc, finfet)


def test_rebuild_binds_each_pin_name_to_one_net(finfet):
    # Design.add_pin's rule: a pin name may repeat on its own net only.
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 2}, finfet)))
    pins = doc.data["pins"]
    out = next(p for p in pins if p["name"] == "out")
    pins.append(dict(out))
    assert [p.name for p in document_to_design(doc, finfet).pins].count("out") == 2
    pins.append({"name": "b0", "net": "out", "wire": out["wire"]})
    with pytest.raises(ValidationError, match=rf"^pins\[{len(pins) - 1}\]\.name: pin 'b0' "
                                              r"already bound to net 'b0', got net 'out'$"):
        document_to_design(doc, finfet)


def test_rebuild_rejects_a_color_on_a_layer_that_is_not_colorable(planar):
    # Unchecked, the wire rebuilds and is written back with a colorA rect,
    # which assign_colors would refuse with NotColorable.
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 1}, planar)))
    wire = doc.data["wires"][0]
    assert wire["layer"] == "m1" and not planar.layer("m1").colorable
    wire["color"] = "A"
    with pytest.raises(ValidationError, match=r"^wires\[0\]\.color: must be null on layer 'm1', "
                                              r"which is not colorable, got 'A'$"):
        document_to_design(doc, planar)


def test_rebuild_errors_name_the_instance_of_bad_params(finfet):
    doc = read_layout_json(write_layout_json(run_flow("dac", {"bits": 1}, finfet)))
    doc.data["instances"][1]["params"]["nf"] = "one"
    with pytest.raises(ValidationError, match=r"^instances\[1\]: 'nf' must be an integer"):
        document_to_design(doc, finfet)


def test_rebuild_tells_true_from_1_in_params(finfet):
    """`true` equals 1 in Python but is no integer: the rebuild must not reuse
    the master it generated for `{"nf": 1}`."""
    mos = generate(finfet.template("mos"), {"nf": 1}, finfet)
    d = Design("tf", finfet)
    d.instances += [mos.at(Point(0, 0), Transform.R0), mos.at(Point(500, 0), Transform.R0)]
    doc = read_layout_json(write_layout_json(d))
    doc.data["instances"][1]["params"]["nf"] = True
    with pytest.raises(ValidationError, match=r"^instances\[1\]: 'nf' must be an integer"):
        document_to_design(doc, finfet)


def test_rebuild_rejects_params_on_a_native_instance(finfet):
    """A native cell takes no parameters: the schema check names the key and
    the instance carrying it."""
    d = Design("nat", finfet)
    d.instances += [generate(finfet.template("mos"), {"nf": 1}, finfet).at(Point(0, 0), Transform.R0),
                    generate(finfet.template("dummy"), {}, finfet).at(Point(500, 0), Transform.R0)]
    doc = read_layout_json(write_layout_json(d))
    k = next(k for k, e in enumerate(doc.data["instances"]) if e["master"] == "dummy")
    doc.data["instances"][k]["params"] = {"x": 1}
    with pytest.raises(ValidationError, match=rf"^instances\[{k}\]: unknown parameter 'x'$"):
        document_to_design(doc, finfet)


def test_raw_rect_corners_come_in_either_order(finfet):
    # A raw rect's bbox is normalized on rebuild: one with its corners swapped
    # on x, y or both rebuilds and writes back like the ordered one.
    data = write_layout_json(run_flow("dac", {"bits": 2}, finfet))
    swapped = read_layout_json(data)
    raw = [e for e in swapped.data["rects"] if e["src"] == "raw"]
    assert len(raw) >= 3
    for k, e in enumerate(raw):
        x0, y0, x1, y1 = e["bbox"]
        assert x0 < x1 and y0 < y1
        e["bbox"] = [[x1, y0, x0, y1], [x0, y1, x1, y0], [x1, y1, x0, y0]][k % 3]
    want = document_to_design(read_layout_json(data), finfet)
    got = document_to_design(swapped, finfet)
    assert list(got.iter_rows()) == list(want.iter_rows())
    assert write_layout_json(got) == write_layout_json(want) == data


def test_document_tech_mismatch(finfet, planar):
    d = run_flow("dac", {"bits": 1}, finfet)
    doc = read_layout_json(write_layout_json(d))
    with pytest.raises(ValidationError):
        document_to_design(doc, planar)


def test_rect_sources_tagged(finfet):
    d = run_flow("dac", {"bits": 1}, finfet)
    doc = design_to_document(d)
    srcs = {r["src"] for r in doc.data["rects"]}
    assert srcs == {"inst", "wire", "via", "pin", "raw"}


# -- SVG ------------------------------------------------------------------------------

def test_svg_empty(finfet):
    data = write_svg(Design("empty", finfet))
    text = data.decode()
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and "</svg>" in text


def test_svg_one_rect(finfet):
    d = Design("one", finfet)
    d.rects.append(Rect("m1", Point(0, 0), Point(10, 10)))
    text = write_svg(d).decode()
    assert text.count("<rect") == 1
    assert 'data-layer="m1"' in text


def test_svg_deterministic_and_colored_per_layer(finfet):
    d = run_flow("dac", {"bits": 1}, finfet)
    assert write_svg(d) == write_svg(d)
    svg = write_svg(d).decode()
    # a fixed palette of ten fills, cycled in tech layer order: m1 is layer 6,
    # and via1, layer 11, wraps round to poly's (layer 1) fill
    assert '<g data-layer="m1" fill="#e377c2"' in svg
    assert '<g data-layer="poly" fill="#ff7f0e"' in svg
    assert '<g data-layer="via1" fill="#ff7f0e"' in svg
