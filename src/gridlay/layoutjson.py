"""Canonical layout JSON: the flat, byte-deterministic design interchange.

The document carries the flattened rectangle view (tagged with its source so
a design can be rebuilt without doubling geometry), the structural instance
list, wires with their track identity, vias, and pins. All sections are
sorted canonically, so equal designs serialize to identical bytes no matter
what order they were built in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .design import Design, Pin, PlacedVia, Wire
from .errors import BadParams, ParseError, ValidationError
from .gds import gds_datatype
from .geometry import PURPOSES, Point, Rect, Transform
from .grid import OneDimGrid, PlacementGrid, generate_routing_grid
from .tech import TechDB
from .template import VirtualInstance, generate

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LayoutDocument:
    """A parsed layout document; equality is deep equality of the content."""

    data: dict

    @property
    def design_name(self) -> str:
        return self.data["design"]

    @property
    def tech_name(self) -> str:
        return self.data["tech"]

    def to_bytes(self) -> bytes:
        return (json.dumps(self.data, indent=2, ensure_ascii=True) + "\n").encode()


def _params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def design_to_document(d: Design) -> LayoutDocument:
    instances = sorted(
        (
            {
                "master": vi.master,
                "params": dict(sorted(vi.params.items())),
                "origin": [vi.origin.x, vi.origin.y],
                "transform": vi.transform.value,
            }
            for vi in d.instances
        ),
        key=lambda e: (e["master"], _params_key(e["params"]), e["origin"], e["transform"]),
    )

    wire_order = sorted(
        range(len(d.wires)),
        key=lambda i: (
            d.wires[i].layer, d.wires[i].axis, d.wires[i].track,
            d.wires[i].lo, d.wires[i].hi, d.wires[i].width, i,
        ),
    )
    wire_index = {id(d.wires[i]): n for n, i in enumerate(wire_order)}
    wires = []
    for i in wire_order:
        w = d.wires[i]
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

    rects = []
    for r, src in d.iter_flat():
        rects.append(
            {
                "layer": r.layer,
                "datatype": gds_datatype(d.tech.layer(r.layer), r.purpose),
                "purpose": r.purpose,
                "src": src,
                "bbox": [r.lo.x, r.lo.y, r.hi.x, r.hi.y],
            }
        )
    rects.sort(key=lambda e: (e["layer"], e["bbox"], e["purpose"], e["src"], e["datatype"]))

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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"layout document is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("layout document must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {obj.get('schema_version')!r}")
    for key in ("design", "tech", "instances", "wires", "vias", "pins", "rects"):
        if key not in obj:
            raise ValidationError(f"layout document: missing field {key!r}")
        if not isinstance(obj[key], str if key in ("design", "tech") else list):
            raise ValidationError(f"layout document: bad {key!r}: {obj[key]!r}")
    return LayoutDocument(obj)


def _is(*types):
    return lambda v: isinstance(v, types)


def _ints(n: int):
    return lambda v: isinstance(v, list) and len(v) == n and all(type(c) is int for c in v)


def _INT(v) -> bool:  # JSON true/false are Python bools, which are ints
    return type(v) is int


def _POS(v) -> bool:
    return type(v) is int and v > 0


def _PAIR(v) -> bool:  # _ints(2) unrolled: every instance and via is checked
    return isinstance(v, list) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int


_QUAD = _ints(4)


# What a rebuild needs of each field whose value it can fail on, in the order
# it reads them. Consulted only once an entry has failed, to name the field.
_FIELD_CHECKS = {
    "instances": {"master": _is(str), "params": _is(dict), "origin": _PAIR,
                  "transform": lambda v: v in [t.value for t in Transform]},
    "wires": {"axis": lambda v: v in ("h", "v"), "track": _INT, "lo": _INT, "hi": _INT,
              "width": _POS},
    "vias": {"via": _is(str), "pos": _PAIR},
    "pins": {},
    "rects": {"layer": _is(str), "bbox": _QUAD, "purpose": lambda v: v in PURPOSES},
}


def _want(ok, v):
    """`v` if it passes `ok`; otherwise a TypeError, whose field the table names.

    For values the geometry would take without complaint (string coordinates
    compare and add among themselves) and only fail on much later.
    """
    if not ok(v):
        raise TypeError(f"bad value {v!r}")
    return v


def _entry_error(section: str, k: int, e, exc: Exception) -> ValidationError:
    checks = _FIELD_CHECKS.get(section)
    if checks is None:  # pgrid or grid: a single value
        return ValidationError(f"{section}: bad value {e!r}")
    where = f"{section}[{k}]"
    if not isinstance(e, dict):
        return ValidationError(f"{where}: must be an object, got {e!r}")
    if isinstance(exc, KeyError) and isinstance(exc.args[0], str) and exc.args[0] not in e:
        return ValidationError(f"{where}.{exc.args[0]}: missing")
    for field, ok in checks.items():
        if not ok(e.get(field)):
            return ValidationError(f"{where}.{field}: bad value {e.get(field)!r}")
    return ValidationError(f"{where}: {exc}")


def _pgrid_axis(pgrid: dict, key: str) -> OneDimGrid:
    axis = pgrid[key]
    period, coords = axis["period"], axis["coords"]
    if not _INT(period):
        raise ValidationError(f"pgrid.{key}.period: bad value {period!r}")
    if not (isinstance(coords, list) and all(map(_INT, coords))):
        raise ValidationError(f"pgrid.{key}.coords: bad value {coords!r}")
    return OneDimGrid(period, tuple(coords))


def document_to_design(doc: LayoutDocument, tech: TechDB) -> Design:
    """Rebuild a working design from a document.

    Instances are regenerated from their master templates, once per distinct
    master and parameters, so the document's tech must match the one it was
    exported with.
    """
    if tech.name != doc.tech_name:
        raise ValidationError(
            f"document was exported against tech {doc.tech_name!r}, got {tech.name!r}"
        )
    d = Design(doc.design_name, tech)
    data = doc.data

    # One generation per distinct (master, params); the copies placed from it
    # share its flattened geometry.
    masters: dict[tuple[str, str], VirtualInstance] = {}
    section, k, e = "instances", 0, None
    try:
        for k, e in enumerate(data["instances"]):
            key = (e["master"], _params_key(e["params"]))
            vi = masters.get(key)
            if vi is None:
                vi = masters[key] = generate(tech.template(e["master"]), e["params"], tech)
            o = _want(_PAIR, e["origin"])
            d.instances.append(vi.at(Point(o[0], o[1]), Transform(e["transform"])))
        section = "wires"
        for k, e in enumerate(data["wires"]):
            d.wires.append(Wire(e["layer"], e["axis"], _want(_INT, e["track"]), _want(_INT, e["lo"]),
                                _want(_INT, e["hi"]), _want(_POS, e["width"]), e["is_pin"], e["net"],
                                e["color"]))
        section = "vias"
        for k, e in enumerate(data["vias"]):
            if e["via"] not in tech.vias:
                raise ValidationError(f"vias[{k}].via: {tech.name} has no via {e['via']!r}")
            p = _want(_PAIR, e["pos"])
            d.vias.append(PlacedVia(e["via"], Point(p[0], p[1])))
        section = "pins"
        for k, e in enumerate(data["pins"]):
            w = e["wire"]
            if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < len(d.wires):
                raise ValidationError(
                    f"pins[{k}].wire: {w!r} is not an index into the {len(d.wires)} wires"
                )
            d.pins.append(Pin(e["name"], e["net"], d.wires[w]))
        section = "rects"
        for k, e in enumerate(data["rects"]):
            if e["src"] != "raw":
                continue
            if e["layer"] not in tech.layers:
                raise ValidationError(f"rects[{k}].layer: {tech.name} has no layer {e['layer']!r}")
            b = _want(_QUAD, e["bbox"])
            d.rects.append(Rect(e["layer"], Point(b[0], b[1]), Point(b[2], b[3]), e["purpose"]))
        section, e = "pgrid", data.get("pgrid")
        if e is not None:
            d.pgrid = PlacementGrid(_pgrid_axis(e, "x"), _pgrid_axis(e, "y"))
        section, e = "grid", data.get("grid")
        if e is not None:
            # The realized grid is independent of the region (it only gates
            # feasibility, which the original generation already passed), so
            # rebuild against an ample one.
            region = Rect("", Point(0, 0), Point(1 << 40, 1 << 40))
            d.rgrid = generate_routing_grid(tech, tech.grid_spec(e), region)
    except (KeyError, TypeError, ValueError, IndexError, BadParams) as exc:
        raise _entry_error(section, k, e, exc) from exc
    return d
