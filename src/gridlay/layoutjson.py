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
from .errors import ParseError, ValidationError
from .geometry import Point, Rect, Transform
from .grid import OneDimGrid, PlacementGrid, generate_routing_grid
from .tech import TechDB
from .template import generate

SCHEMA_VERSION = 1

_PURPOSE_DT_OFFSET = {"drawing": 0, "pin": 1, "colorA": 2, "colorB": 3, "dummy": 4, "cut": 0}


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
        layer = d.tech.layer(r.layer)
        rects.append(
            {
                "layer": r.layer,
                "datatype": layer.gds_datatype + _PURPOSE_DT_OFFSET[r.purpose],
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
        "grid": d.grid_name,
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"layout document is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("layout document must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {obj.get('schema_version')!r}")
    for key in ("design", "tech", "instances", "wires", "vias", "pins", "rects"):
        if key not in obj:
            raise ValidationError(f"layout document: missing field {key!r}")
    return LayoutDocument(obj)


def document_to_design(doc: LayoutDocument, tech: TechDB) -> Design:
    """Rebuild a working design from a document.

    Instances are regenerated from their master templates, so the document's
    tech must match the one it was exported with.
    """
    if tech.name != doc.tech_name:
        raise ValidationError(
            f"document was exported against tech {doc.tech_name!r}, got {tech.name!r}"
        )
    d = Design(doc.design_name, tech)
    data = doc.data

    for e in data["instances"]:
        vi = generate(tech.template(e["master"]), e["params"], tech)
        d.instances.append(
            vi.at(Point(e["origin"][0], e["origin"][1]), Transform(e["transform"]))
        )
    for e in data["wires"]:
        d.wires.append(
            Wire(
                layer=e["layer"], axis=e["axis"], track=e["track"],
                lo=e["lo"], hi=e["hi"], width=e["width"],
                is_pin=e["is_pin"], net=e["net"], color=e["color"],
            )
        )
    for e in data["vias"]:
        d.vias.append(PlacedVia(e["via"], Point(e["pos"][0], e["pos"][1])))
    for k, e in enumerate(data["pins"]):
        w = e["wire"]
        if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < len(d.wires):
            raise ValidationError(
                f"pins[{k}].wire: {w!r} is not an index into the {len(d.wires)} wires"
            )
        d.pins.append(Pin(e["name"], e["net"], d.wires[w]))
    for e in data["rects"]:
        if e["src"] != "raw":
            continue
        b = e["bbox"]
        d.rects.append(Rect(e["layer"], Point(b[0], b[1]), Point(b[2], b[3]), e["purpose"]))

    if data.get("pgrid") is not None:
        pg = data["pgrid"]
        d.pgrid = PlacementGrid(
            OneDimGrid(pg["x"]["period"], tuple(pg["x"]["coords"])),
            OneDimGrid(pg["y"]["period"], tuple(pg["y"]["coords"])),
        )
    if data.get("grid") is not None:
        spec = tech.grid_spec(data["grid"])
        # The realized grid is independent of the region (it only gates
        # feasibility, which the original generation already passed), so
        # rebuild against an ample one.
        region = Rect("", Point(0, 0), Point(1 << 40, 1 << 40))
        d.rgrid = generate_routing_grid(tech, spec, region)
        d.grid_name = data["grid"]
    return d
