"""GDSII stream writer and a minimal self-test reader.

The writer emits the record subset needed for rectangle-and-instance layouts:
HEADER/BGNLIB/LIBNAME/UNITS, one structure per instance master plus one for
the design, BOUNDARY for rects, SREF for instances, TEXT for pin labels. All
output is canonical: elements are sorted, timestamps are fixed to zero, and
numbers are big-endian with even-length records, so equal designs produce
byte-identical streams. Arrays are expanded to plain SREFs; no AREF, PATH, or
foreign-file features.

`write_gds` packs a design's flat rows straight into BOUNDARY records.
`read_library` parses a stream into the `Library` model, and `write_library`
writes that model back with the same framing and SREF/TEXT records, so a
stream from `write_gds` round-trips byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from collections import namedtuple

from .design import Design
from .errors import GdsOverflow, ParseError, ValidationError
from .geometry import DATATYPE_OFFSET, Transform
from .tech import LayerDef
from .template import param_tokens

# record type/datatype bytes
HEADER = 0x0002
BGNLIB = 0x0102
LIBNAME = 0x0206
UNITS = 0x0305
ENDLIB = 0x0400
BGNSTR = 0x0502
STRNAME = 0x0606
ENDSTR = 0x0700
BOUNDARY = 0x0800
SREF = 0x0A00
TEXT = 0x0C00
LAYER = 0x0D02
DATATYPE = 0x0E02
XY = 0x1003
ENDEL = 0x1100
SNAME = 0x1206
TEXTTYPE = 0x1602
STRANS = 0x1A01
ANGLE = 0x1C05
STRING = 0x1906

GDS_VERSION = 600

REFLECT = 0x8000

def gds_datatype(layer: LayerDef, purpose: str) -> int:
    """The datatype a shape of this purpose is written with on this layer."""
    return layer.gds_datatype + DATATYPE_OFFSET[purpose]


# Orientation -> (strans, angle); None means the record is omitted.
_TRANSFORM_GDS: dict[Transform, tuple[int | None, float | None]] = {
    Transform.R0: (None, None),
    Transform.MX: (REFLECT, None),
    Transform.MY: (REFLECT, 180.0),
    Transform.R180: (None, 180.0),
}


def encode_real(x: float) -> bytes:
    """Pack a float as a GDSII 8-byte real (excess-64 hex exponent)."""
    if x == 0:
        return bytes(8)
    sign = 0
    if x < 0:
        sign = 0x80
        x = -x
    e = 0
    while x >= 1.0:
        x /= 16.0
        e += 1
    while x < 0.0625:
        x *= 16.0
        e -= 1
    m = round(x * (1 << 56))
    if m >= (1 << 56):
        m >>= 4
        e += 1
    return bytes([sign | (64 + e)]) + m.to_bytes(7, "big")


def decode_real(b: bytes) -> float:
    if b == bytes(8):
        return 0.0
    sign = -1.0 if b[0] & 0x80 else 1.0
    e = (b[0] & 0x7F) - 64
    m = int.from_bytes(b[1:8], "big")
    return sign * m * 16.0 ** e / (1 << 56)


class Boundary(namedtuple("Boundary", "layer datatype xy")):
    """A polygon; `xy` is a closed loop of (x, y) pairs, its first point repeated last."""

    __slots__ = ()


class Sref(namedtuple("Sref", "sname pos strans angle", defaults=(None, None))):
    """A placement of the structure `sname` at `pos`, with its STRANS flags and angle."""

    __slots__ = ()


class Text(namedtuple("Text", "layer texttype pos string")):
    __slots__ = ()


class Structure(namedtuple("Structure", "name elements", defaults=((),))):
    __slots__ = ()


class Library(namedtuple("Library", "name user_unit db_unit_m structures", defaults=((),))):
    __slots__ = ()


def _record(rtype: int, payload: bytes = b"") -> bytes:
    if len(payload) % 2:
        raise ValueError("record payload must have even length")
    return struct.pack(">HH", len(payload) + 4, rtype) + payload


def _ascii(s: str) -> bytes:
    try:
        b = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"GDS names must be ASCII, got {s!r}") from exc
    return b + b"\0" if len(b) % 2 else b


def _coord(v: int) -> int:
    if not -(1 << 31) <= v < (1 << 31):
        raise GdsOverflow(f"coordinate {v} exceeds the 32-bit range")
    return v


@functools.cache
def _boundary_struct(points: int) -> struct.Struct:
    """The five records of a BOUNDARY element with this many points, packed
    as one: BOUNDARY, LAYER, DATATYPE, XY, ENDEL, each a (length, type) header."""
    return struct.Struct(f">HH HHh HHh HH{2 * points}i HH")


_XY_ENDEL = struct.Struct(">HHii HH")  # an XY record of one point, then ENDEL


def _sref_head(sname: str, strans: int | None, angle: float | None) -> bytes:
    """An SREF element's records up to its XY; STRANS and ANGLE only when set."""
    out = [_record(SREF), _record(SNAME, _ascii(sname))]
    if strans is not None:
        out.append(_record(STRANS, struct.pack(">H", strans)))
    if angle is not None:
        out.append(_record(ANGLE, encode_real(angle)))
    return b"".join(out)


def _sref(sname: str, pos: tuple[int, int], strans: int | None, angle: float | None) -> bytes:
    """An SREF element; STRANS and ANGLE only when set."""
    return _sref_head(sname, strans, angle) + _XY_ENDEL.pack(
        12, XY, _coord(pos[0]), _coord(pos[1]), 4, ENDEL)


def _text(layer: int, texttype: int, pos: tuple[int, int], string: str) -> bytes:
    return b"".join((
        _record(TEXT),
        _record(LAYER, struct.pack(">h", layer)),
        _record(TEXTTYPE, struct.pack(">h", texttype)),
        _record(XY, struct.pack(">2i", _coord(pos[0]), _coord(pos[1]))),
        _record(STRING, _ascii(string)),
        _record(ENDEL),
    ))


def _stream(name: str, user_unit: float, db_unit_m: float, structures) -> bytes:
    """A whole stream around packed elements: the library header, each
    (structure name, element bytes) pair as one structure, then ENDLIB."""
    out = [
        _record(HEADER, struct.pack(">h", GDS_VERSION)),
        _record(BGNLIB, struct.pack(">12h", *([0] * 12))),
        _record(LIBNAME, _ascii(name)),
        _record(UNITS, encode_real(user_unit) + encode_real(db_unit_m)),
    ]
    for sname, elements in structures:
        out.append(_record(BGNSTR, struct.pack(">12h", *([0] * 12))))
        out.append(_record(STRNAME, _ascii(sname)))
        out.extend(elements)
        out.append(_record(ENDSTR))
    out.append(_record(ENDLIB))
    return b"".join(out)


def _element(e) -> bytes:
    if isinstance(e, Boundary):
        n = len(e.xy)
        try:
            return _boundary_struct(n).pack(
                4, BOUNDARY, 6, LAYER, e.layer, 6, DATATYPE, e.datatype,
                4 + 8 * n, XY, *itertools.chain.from_iterable(e.xy), 4, ENDEL,
            )
        except struct.error:
            for c in itertools.chain.from_iterable(e.xy):
                _coord(c)  # raises GdsOverflow for a coordinate past 32 bits
            raise
    if isinstance(e, Sref):
        return _sref(e.sname, e.pos, e.strans, e.angle)
    if isinstance(e, Text):
        return _text(e.layer, e.texttype, e.pos, e.string)
    raise TypeError(f"unknown element {e!r}")


def write_library(lib: Library) -> bytes:
    return _stream(lib.name, lib.user_unit, lib.db_unit_m,
                   ((s.name, map(_element, s.elements)) for s in lib.structures))


def read_library(data: bytes) -> Library:
    """Parse a stream produced by write_library back into the model."""
    pos = 0
    records: list[tuple[int, bytes]] = []
    while pos < len(data):
        if pos + 4 > len(data):
            raise ParseError("truncated record header")
        size, rtype = struct.unpack(">HH", data[pos:pos + 4])
        if size < 4 or pos + size > len(data):
            raise ParseError(f"bad record size {size} at offset {pos}")
        records.append((rtype, data[pos + 4:pos + size]))
        pos += size

    it = iter(records)
    cause = None
    try:
        lib = _parse_library(it)
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        # Each record is decoded right after it is taken, so the culprit is
        # the last one the iterator handed out.
        k = len(records) - operator.length_hint(it) - 1
        what, cause = f"bad {len(records[k][1])}-byte payload ({exc})", exc
    else:
        k = len(records) - operator.length_hint(it)   # the first record after ENDLIB
        if k == len(records):
            return lib
        what = "record after ENDLIB"
    offset = sum(4 + len(p) for _, p in records[:k])
    raise ParseError(f"record {records[k][0]:#06x} at offset {offset}: {what}") from cause


def _parse_library(it) -> Library:
    end = (None, b"")  # what the iterator yields once the stream is exhausted

    def expect(rtype: int) -> bytes:
        t, payload = next(it, end)
        if t != rtype:
            got = "the end of the stream" if t is None else f"{t:#06x}"
            raise ParseError(f"expected record {rtype:#06x}, got {got}")
        return payload

    def text(b: bytes) -> str:
        return b.rstrip(b"\0").decode("ascii")

    expect(HEADER)
    expect(BGNLIB)
    name = text(expect(LIBNAME))
    units = expect(UNITS)
    user_unit = decode_real(units[0:8])
    db_unit = decode_real(units[8:16])

    structures: list[Structure] = []
    for rtype, payload in it:
        if rtype == ENDLIB:
            break
        if rtype != BGNSTR:
            raise ParseError(f"unexpected record {rtype:#06x} at library level")
        sname = text(expect(STRNAME))
        elements: list = []
        for rtype2, payload2 in it:
            if rtype2 == ENDSTR:
                break
            if rtype2 == BOUNDARY:
                layer = struct.unpack(">h", expect(LAYER))[0]
                dt = struct.unpack(">h", expect(DATATYPE))[0]
                raw = expect(XY)
                vals = struct.unpack(f">{len(raw) // 8 * 2}i", raw)  # whole points only
                xy = tuple(zip(vals[0::2], vals[1::2]))
                elements.append(Boundary(layer, dt, xy))
                expect(ENDEL)
            elif rtype2 == SREF:
                sref_name = text(expect(SNAME))
                strans = angle = None
                t, p = next(it, end)
                if t == STRANS:
                    strans = struct.unpack(">H", p)[0]
                    t, p = next(it, end)
                if t == ANGLE:
                    angle = decode_real(p)
                    t, p = next(it, end)
                if t != XY:
                    raise ParseError("SREF without XY")
                x, y = struct.unpack(">2i", p)
                elements.append(Sref(sref_name, (x, y), strans, angle))
                expect(ENDEL)
            elif rtype2 == TEXT:
                layer = struct.unpack(">h", expect(LAYER))[0]
                tt = struct.unpack(">h", expect(TEXTTYPE))[0]
                x, y = struct.unpack(">2i", expect(XY))
                string = text(expect(STRING))
                elements.append(Text(layer, tt, (x, y), string))
                expect(ENDEL)
            else:
                raise ParseError(f"unexpected record {rtype2:#06x} in structure")
        else:
            raise ParseError(f"structure {sname!r} has no ENDSTR")
        structures.append(Structure(sname, tuple(elements)))
    else:
        raise ParseError("stream ends before ENDLIB")
    return Library(name, user_unit, db_unit, tuple(structures))


def _boundaries(d: Design, rows) -> list[bytes]:
    """One packed BOUNDARY element per flat row, in (gds layer, datatype, x0,
    y0, x1, y1) order, which is the order of (layer, datatype, xy) of their
    closed loops (x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)."""
    codes: dict[tuple[str, str], tuple[int, int]] = {}  # (layer, purpose) -> gds layer, datatype
    keys = []
    for layer, x0, y0, x1, y1, purpose, _ in rows:
        code = codes.get((layer, purpose))
        if code is None:
            rule = d.tech.layer(layer)
            code = codes[layer, purpose] = (rule.gds_layer, gds_datatype(rule, purpose))
        keys.append((*code, x0, y0, x1, y1))
    keys.sort()
    pack = _boundary_struct(5).pack
    try:
        return [
            pack(4, BOUNDARY, 6, LAYER, gl, 6, DATATYPE, dt, 44, XY,
                 x0, y0, x1, y0, x1, y1, x0, y1, x0, y0, 4, ENDEL)
            for gl, dt, x0, y0, x1, y1 in keys
        ]
    except struct.error:
        for c in itertools.chain.from_iterable(key[2:] for key in keys):
            _coord(c)  # raises GdsOverflow for a coordinate past 32 bits
        raise


def master_struct_name(master: str, params) -> str:
    return "__".join([master, *param_tokens(params)])


def write_gds(d: Design) -> bytes:
    """The design as a stream: one structure per instance master, holding
    its R0 geometry, in name order, then the design's own structure with its
    shapes, one SREF per instance and one TEXT per pin label."""
    # One structure name per (master, params object), since the copies of a
    # master share its params, and one SREF head per (structure, transform).
    names: dict[tuple[str, int], str] = {}
    masters: dict[str, object] = {}
    srefs = []
    for vi in d.instances:
        sname = names.get((vi.master, id(vi.params)))
        if sname is None:
            sname = names[vi.master, id(vi.params)] = master_struct_name(vi.master, vi.params)
            masters.setdefault(sname, vi)
        srefs.append((sname, *vi.anchor(), vi.transform))
    structures = [
        (sname, _boundaries(d, masters[sname].local_rows(Transform.R0))) for sname in sorted(masters)
    ]

    top = _boundaries(d, d.own_rows())
    # The struct holds local R0 geometry; the stream transform acts before
    # translation, so the anchor shift keeps bboxes in place.
    srefs.sort(key=lambda s: s[:3])
    heads: dict[tuple[str, Transform], bytes] = {}
    for sname, x, y, t in srefs:
        head = heads.get((sname, t))
        if head is None:
            head = heads[sname, t] = _sref_head(sname, *_TRANSFORM_GDS[t])
        top.append(head + _XY_ENDEL.pack(12, XY, _coord(x), _coord(y), 4, ENDEL))

    texts = []
    for pin in d.pins:
        layer = d.tech.layer(pin.wire.layer)
        x0, y0, x1, y1 = pin.wire.box()
        texts.append((pin.name, (x0 + x1) // 2, (y0 + y1) // 2, layer))
    texts.sort(key=lambda t: t[:3])
    top += [_text(layer.gds_layer, gds_datatype(layer, "pin"), (x, y), name)
            for name, x, y, layer in texts]

    structures.append((d.name, top))
    # A database unit is one design unit, unit_nm nm; the user unit is 1 um.
    unit = d.tech.unit_nm
    return _stream(d.name, unit * 1e-3, unit * 1e-9, structures)
