"""Canonical layout JSON: the flat, byte-deterministic design interchange.

The document carries the flattened rectangle view (tagged with its source so
a design can be rebuilt without doubling geometry), the structural instance
list, wires with their track identity, vias, and pins. All sections are
sorted canonically, so equal designs serialize to identical bytes no matter
what order they were built in.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from collections import namedtuple
from operator import attrgetter
from typing import Iterator

from .design import Design, Pin, PlacedVia, Wire
from .errors import (
    BOOL,
    INT,
    INT_LIST,
    LIST,
    OBJECT,
    PAIR,
    POS_INT,
    QUAD,
    STR,
    BadParams,
    Kind,
    ParseError,
    ValidationError,
    key_of,
    one_of,
    or_null,
    read,
    read_columns,
    read_fields,
    read_section,
)
from .gds import gds_datatype
from .geometry import MASKS, PURPOSES, Point, Rect, Transform
from .grid import OneDimGrid, PlacementGrid, generate_routing_grid
from .tech import TechDB
from .template import VirtualInstance, generate

SCHEMA_VERSION = 1
_TRANSFORMS = {t.value: t for t in Transform}


class LayoutDocument(namedtuple("LayoutDocument", "data")):
    """A parsed layout document; equality is deep equality of the content."""

    __slots__ = ()

    @property
    def design_name(self) -> str:
        return self.data["design"]

    @property
    def tech_name(self) -> str:
        return self.data["tech"]

    def to_bytes(self) -> bytes:
        """The canonical bytes: `json.dumps(data, indent=2, ensure_ascii=True)`
        plus a newline, for a document that holds the schema's fields.

        The writer knows the schema: it emits the schema's fields in schema
        order, one template per section entry, so the unknown keys of a read
        document are not re-emitted. Only `pgrid` and each instance's `params`
        are encoded generically, the params once per dict object. A rect is
        written as the text of its (layer, datatype, purpose, src), made once
        per distinct tuple, followed by its four bbox integers.
        """
        data = self.data
        q = _Quoted({None: "null"})
        params: dict[int, str] = {}
        instances = []
        for e in data["instances"]:
            p = e["params"]
            text = params.get(id(p))
            if text is None:
                text = params[id(p)] = _free(p, 6)
            o = e["origin"]
            instances.append(_INSTANCE % (q[e["master"]], text, o[0], o[1], q[e["transform"]]))
        wires = [
            _WIRE % (q[w["layer"]], q[w["axis"]], w["track"], w["lo"], w["hi"], w["width"],
                     "true" if w["is_pin"] else "false", q[w["net"]], q[w["color"]])
            for w in data["wires"]
        ]
        vias = [_VIA % (q[v["via"]], v["pos"][0], v["pos"][1]) for v in data["vias"]]
        pins = [_PIN % (q[p["name"]], q[p["net"]], p["wire"]) for p in data["pins"]]
        heads = _RectHeads(q)
        rects = []
        for r in data["rects"]:
            b = r["bbox"]
            head = heads[r["layer"], r["datatype"], r["purpose"], r["src"]]
            rects.append(head % (b[0], b[1], b[2], b[3]))
        return "\n  ".join((
            "{",
            '"schema_version": %d,' % data["schema_version"],
            '"design": %s,' % q[data["design"]],
            '"tech": %s,' % q[data["tech"]],
            '"grid": %s,' % q[data["grid"]],
            '"pgrid": %s,' % _free(data["pgrid"], 2),
            _section("instances", instances) + ",",
            _section("wires", wires) + ",",
            _section("vias", vias) + ",",
            _section("pins", pins) + ",",
            _section("rects", rects),
        )).encode() + b"\n}\n"


class _Quoted(dict):
    """The JSON text of each string, encoded once per distinct value."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


class _RectHeads(dict):
    """`_RECT` with the head fields filled in, once per distinct (layer,
    datatype, purpose, src): a template of the four bbox integers only."""

    def __init__(self, quoted: _Quoted):
        super().__init__()
        self.q = quoted

    def __missing__(self, key: tuple) -> str:
        layer, datatype, purpose, src = key
        q = self.q
        head = _RECT_HEAD % (q[layer], datatype, q[purpose], q[src])
        text = self[key] = head.replace("%", "%%") + _RECT_BBOX
        return text


def _free(value, depth: int) -> str:
    """A free-form value as `indent=2` lays it out `depth` spaces deep."""
    return json.dumps(value, indent=2, ensure_ascii=True).replace("\n", "\n" + " " * depth)


def _section(name: str, entries: list[str]) -> str:
    if not entries:
        return '"%s": []' % name
    return '"%s": [\n%s\n  ]' % (name, ",\n".join(entries))


# One entry of each section, laid out as `indent=2` lays it out in its list.
_INSTANCE = """\
    {
      "master": %s,
      "params": %s,
      "origin": [
        %d,
        %d
      ],
      "transform": %s
    }"""
_WIRE = """\
    {
      "layer": %s,
      "axis": %s,
      "track": %d,
      "lo": %d,
      "hi": %d,
      "width": %d,
      "is_pin": %s,
      "net": %s,
      "color": %s
    }"""
_VIA = """\
    {
      "via": %s,
      "pos": [
        %d,
        %d
      ]
    }"""
_PIN = """\
    {
      "name": %s,
      "net": %s,
      "wire": %d
    }"""
_RECT = """\
    {
      "layer": %s,
      "datatype": %d,
      "purpose": %s,
      "src": %s,
      "bbox": [
        %d,
        %d,
        %d,
        %d
      ]
    }"""
_BBOX_AT = _RECT.index('"bbox"')
_RECT_HEAD, _RECT_BBOX = _RECT[:_BBOX_AT], _RECT[_BBOX_AT:]


def design_to_document(d: Design) -> LayoutDocument:
    # One sorted params dict and sort key per params object: the copies of a
    # master share its params, and so the writer encodes them once. The key
    # stays the JSON text, which orders instances otherwise than the tuple.
    shared: dict[int, tuple[dict, str]] = {}
    order = []
    for vi in d.instances:
        s = shared.get(id(vi.params))
        if s is None:
            params = dict(sorted(vi.params.items()))
            s = shared[id(vi.params)] = (params, json.dumps(params, sort_keys=True))
        order.append((vi.master, s[1], [vi.origin.x, vi.origin.y], vi.transform.value, s[0]))
    order.sort(key=lambda e: e[:4])
    instances = [
        {"master": master, "params": params, "origin": origin, "transform": t}
        for master, _, origin, t, params in order
    ]

    # A stable sort: wires equal on all six fields keep their design order.
    wire_order = sorted(d.wires, key=attrgetter("layer", "axis", "track", "lo", "hi", "width"))
    wire_index = {id(w): n for n, w in enumerate(wire_order)}
    wires = []
    for w in wire_order:
        wires.append(
            {
                "layer": w.layer,
                "axis": w.axis,
                "track": w.track,
                "lo": w.lo,
                "hi": w.hi,
                "width": w.width,
                "is_pin": w.is_pin,
                "net": w.net,
                "color": w.color,
            }
        )

    vias = sorted(
        ({"via": v.via, "pos": [v.pos.x, v.pos.y]} for v in d.vias),
        key=lambda e: (e["via"], e["pos"]),
    )

    pins = sorted(
        (
            {"name": p.name, "net": p.net, "wire": wire_index[id(p.wire)]}
            for p in d.pins
        ),
        key=lambda e: (e["name"], e["wire"]),
    )

    # The datatype is a function of (layer, purpose), so the rows' own order
    # is the schema's (layer, bbox, purpose, src, datatype) order.
    datatypes: dict[tuple[str, str], int] = {}
    rects = []
    for layer, x0, y0, x1, y1, purpose, src in sorted(d.iter_rows()):
        dt = datatypes.get((layer, purpose))
        if dt is None:
            dt = datatypes[layer, purpose] = gds_datatype(d.tech.layer(layer), purpose)
        rects.append({"layer": layer, "datatype": dt, "purpose": purpose, "src": src,
                      "bbox": [x0, y0, x1, y1]})

    data = {
        "schema_version": SCHEMA_VERSION,
        "design": d.name,
        "tech": d.tech.name,
        "grid": None if d.rgrid is None else d.rgrid.name,
        "pgrid": (
            None
            if d.pgrid is None
            else {
                "x": {"period": d.pgrid.xgrid.period, "coords": list(d.pgrid.xgrid.coords)},
                "y": {"period": d.pgrid.ygrid.period, "coords": list(d.pgrid.ygrid.coords)},
            }
        ),
        "instances": instances,
        "wires": wires,
        "vias": vias,
        "pins": pins,
        "rects": rects,
    }
    return LayoutDocument(data)


def write_layout_json(d: Design) -> bytes:
    return design_to_document(d).to_bytes()


def read_layout_json(data: bytes | str) -> LayoutDocument:
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"layout document is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("layout document must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
        raise ValidationError(f"unsupported schema_version {version!r}")
    sections = [(key, LIST) for key in ("instances", "wires", "vias", "pins", "rects")]
    read_fields(obj, [("design", STR), ("tech", STR)] + sections, "layout document")
    return LayoutDocument(obj)


def _pgrid_axis(pgrid: dict, key: str) -> OneDimGrid:
    where = f"pgrid.{key}"
    fields = (("period", POS_INT), ("coords", INT_LIST))
    period, coords = read_fields(read(pgrid, key, OBJECT, "pgrid"), fields, where)
    try:
        return OneDimGrid(period, tuple(coords))
    except ValueError as exc:  # coordinates out of order or outside the period
        raise ValidationError(f"{where}: {exc}") from exc


def _raw_rect_fields(rects: list, fields) -> Iterator:
    """The values of `fields` of each raw rect. Only `src` is read of a
    derived rect: any value but "raw". Checked column by column, and rect by
    rect only when a column fails, as `read_section` reads a section."""
    try:
        rows = read_columns([e for e in rects if e["src"] == "raw"], fields)
    except (KeyError, TypeError):  # some rect lacks `src`, or is no object
        rows = None
    return _read_raw_rects(rects, fields) if rows is None else rows


def _read_raw_rects(rects: list, fields) -> Iterator[list]:
    for k, e in enumerate(rects):
        try:
            if e["src"] != "raw":
                continue
        except (KeyError, TypeError):
            read(e, "src", STR, "rects", k)  # raises: no `src`, or the entry is no object
        yield read_fields(e, fields, "rects", k)


def document_to_design(doc: LayoutDocument, tech: TechDB) -> Design:
    """Rebuild a working design from a document.

    Instances are regenerated from their master templates, once per distinct
    master and parameters, so the document's tech must match the one it was
    exported with. Each section is checked one field at a time over all its
    entries, and entry by entry only when such a check fails, so an error
    names the first entry at fault in document order. A raw rect's bbox
    corners may come in either order; the rebuilt rect is normalized.
    """
    if tech.name != doc.tech_name:
        raise ValidationError(
            f"document was exported against tech {doc.tech_name!r}, got {tech.name!r}"
        )
    d = Design(doc.design_name, tech)
    data = doc.data
    layer = key_of(tech.layers, f"a layer of {tech.name}")

    # One generation per distinct (master, params); the copies placed from it
    # share its flattened geometry. The key holds each value's repr, which
    # tells `true` from `1` where the values themselves compare equal.
    masters: dict[tuple, VirtualInstance] = {}
    fields = (("master", key_of(tech.templates, f"a template of {tech.name}")), ("params", OBJECT),
              ("origin", PAIR), ("transform", one_of(*_TRANSFORMS)))
    for k, (name, params, o, t) in enumerate(read_section(data["instances"], fields, "instances")):
        key = (name, *sorted((p, repr(v)) for p, v in params.items()))
        vi = masters.get(key)
        if vi is None:
            try:
                vi = masters[key] = generate(tech.templates[name], params, tech)
            # A builder also fails on templates that do not fit together.
            except (BadParams, KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
                raise ValidationError(f"instances[{k}]: {exc}") from exc
        d.instances.append(vi.at(Point(o[0], o[1]), _TRANSFORMS[t]))

    fields = (("layer", layer), ("axis", one_of("h", "v")), ("track", INT), ("lo", INT),
              ("hi", INT), ("width", POS_INT), ("is_pin", BOOL), ("net", or_null(STR)),
              ("color", one_of(*MASKS, None)))
    colorable = {name for name, rule in tech.layers.items() if rule.colorable}
    for k, row in enumerate(read_section(data["wires"], fields, "wires")):
        w = Wire(*row)
        if w.color is not None and w.layer not in colorable:
            raise ValidationError(f"wires[{k}].color: must be null on layer {w.layer!r}, "
                                  f"which is not colorable, got {w.color!r}")
        d.wires.append(w)

    fields = (("via", key_of(tech.vias, f"a via of {tech.name}")), ("pos", PAIR))
    d.vias = [PlacedVia(name, Point(p[0], p[1]))
              for name, p in read_section(data["vias"], fields, "vias")]

    wire = Kind(lambda v: type(v) is int and 0 <= v < len(d.wires),
                f"an index into the {len(d.wires)} wires")
    fields = (("name", STR), ("net", STR), ("wire", wire))
    bound: dict[str, str] = {}  # pin name -> net, as Design.add_pin binds them
    for k, (name, net, w) in enumerate(read_section(data["pins"], fields, "pins")):
        if bound.setdefault(name, net) != net:
            raise ValidationError(f"pins[{k}].name: pin {name!r} already bound to net "
                                  f"{bound[name]!r}, got net {net!r}")
        wire = d.wires[w]
        if not wire.is_pin or wire.net != net:  # a pin promotes its wire onto its net
            raise ValidationError(f"pins[{k}].wire: must index a pin wire on net {net!r}, got "
                                  f"wires[{w}] (is_pin {wire.is_pin}, net {wire.net!r})")
        d.pins.append(Pin(name, net, wire))

    # The purpose is checked, and the corners ordered here, so the rects skip
    # Rect's checks.
    fields = (("layer", layer), ("bbox", QUAD), ("purpose", one_of(*PURPOSES)))
    d.rects = [Rect._make((name, min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1), purpose))
               for name, (x0, y0, x1, y1), purpose in _raw_rect_fields(data["rects"], fields)]

    pgrid = read(data, "pgrid", or_null(OBJECT), "layout document", default=None)
    if pgrid is not None:
        d.pgrid = PlacementGrid(_pgrid_axis(pgrid, "x"), _pgrid_axis(pgrid, "y"))
    grid = read(data, "grid", or_null(key_of(tech.grids, f"a grid of {tech.name}")),
                "layout document", default=None)
    if grid is not None:
        # The realized grid is independent of the region (it only gates
        # feasibility, which the original generation already passed), so
        # rebuild against an ample one.
        region = Rect("", Point(0, 0), Point(1 << 40, 1 << 40))
        d.rgrid = generate_routing_grid(tech, tech.grids[grid], region)
    return d
