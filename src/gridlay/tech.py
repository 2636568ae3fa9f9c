"""Immutable technology database: layers, rules, vias, templates, grids.

The database encapsulates every process rule the engine consumes; generators
never see raw numbers, only rule queries, which is what makes them portable
across technologies. Two mock technologies ship with the package (see
gridlay/techs) so everything is reproducible without a proprietary PDK.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ParseError, UnknownLayer, ValidationError
from .geometry import Point, Rect
from .grid import GridSpec
from .template import (
    DynamicTemplate,
    NativeTemplate,
    ParamSpec,
    PinDef,
)

BUNDLED_TECHS = ("mock_planar", "mock_finfet")


@dataclass(frozen=True)
class CutRule:
    """Cut-mask parameters of a routing layer.

    Wire ends closer than `spacing_threshold` are fabricated as one pattern
    and separated by a cut of `cut_width` (along the wire) by `cut_length`
    (across it); boundary cuts sit `end_margin` beyond a wire end.
    """

    cut_layer: str
    cut_width: int
    cut_length: int
    spacing_threshold: int
    end_margin: int


@dataclass(frozen=True)
class LayerDef:
    name: str
    gds_layer: int
    gds_datatype: int
    min_width: int
    min_spacing: int
    min_area: int = 0
    colorable: bool = False
    cut: CutRule | None = None


@dataclass(frozen=True)
class ViaDef:
    """A cut between two routing layers with per-layer landing enclosures."""

    name: str
    lower: str
    upper: str
    cut_layer: str
    cut_size: tuple[int, int]
    enclosure: Mapping[str, int]


@dataclass(frozen=True)
class TechDB:
    name: str
    unit_nm: int
    layers: Mapping[str, LayerDef]
    vias: Mapping[str, ViaDef]
    templates: Mapping[str, NativeTemplate | DynamicTemplate]
    grids: Mapping[str, GridSpec]

    def layer(self, name: str) -> LayerDef:
        rule = self.layers.get(name)
        if rule is None:
            raise UnknownLayer(f"{self.name} has no layer {name!r}")
        return rule

    def min_width(self, layer: str) -> int:
        return self.layer(layer).min_width

    def min_spacing(self, layer: str) -> int:
        return self.layer(layer).min_spacing

    def min_area(self, layer: str) -> int:
        return self.layer(layer).min_area

    def cut_rule(self, layer: str) -> CutRule | None:
        return self.layer(layer).cut

    def via_between(self, a: str, b: str) -> ViaDef | None:
        """The via connecting two layers, in either order; None if absent."""
        for via in self.vias.values():
            if {via.lower, via.upper} == {a, b}:
                return via
        return None

    def template(self, name: str):
        tpl = self.templates.get(name)
        if tpl is None:
            raise ValidationError(f"{self.name} has no template {name!r}")
        return tpl

    def grid_spec(self, name: str) -> GridSpec:
        spec = self.grids.get(name)
        if spec is None:
            raise ValidationError(f"{self.name} has no grid {name!r}")
        return spec


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"{where}: missing field {key!r}")
    return d[key]


def _pos_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValidationError(f"{where}: must be a positive integer, got {value!r}")
    return value


def _nonneg_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"{where}: must be a non-negative integer, got {value!r}")
    return value


def _parse_layer(d: dict) -> LayerDef:
    name = _need(d, "name", "layer")
    where = f"layer {name}"
    gds = _need(d, "gds", where)
    if not (isinstance(gds, list) and len(gds) == 2):
        raise ValidationError(f"{where}: gds must be [layer, datatype]")
    cut = None
    if "cut" in d and d["cut"] is not None:
        c = d["cut"]
        cwhere = f"{where}.cut"
        cut = CutRule(
            cut_layer=_need(c, "layer", cwhere),
            cut_width=_pos_int(_need(c, "width", cwhere), f"{cwhere}.width"),
            cut_length=_pos_int(_need(c, "length", cwhere), f"{cwhere}.length"),
            spacing_threshold=_pos_int(
                _need(c, "spacing_threshold", cwhere), f"{cwhere}.spacing_threshold"
            ),
            end_margin=_pos_int(_need(c, "end_margin", cwhere), f"{cwhere}.end_margin"),
        )
        if cut.cut_width > cut.spacing_threshold:
            raise ValidationError(f"{cwhere}: width exceeds spacing_threshold")
    return LayerDef(
        name=name,
        gds_layer=_nonneg_int(gds[0], f"{where}.gds[0]"),
        gds_datatype=_nonneg_int(gds[1], f"{where}.gds[1]"),
        min_width=_pos_int(_need(d, "min_width", where), f"{where}.min_width"),
        min_spacing=_pos_int(_need(d, "min_spacing", where), f"{where}.min_spacing"),
        min_area=_nonneg_int(d.get("min_area", 0), f"{where}.min_area"),
        colorable=bool(d.get("colorable", False)),
        cut=cut,
    )


def _parse_rect(e: dict, where: str) -> Rect:
    box = _need(e, "rect", where)
    if not (isinstance(box, list) and len(box) == 4):
        raise ValidationError(f"{where}: rect must be [x0, y0, x1, y1]")
    return Rect(
        _need(e, "layer", where),
        Point(box[0], box[1]),
        Point(box[2], box[3]),
        e.get("purpose", "drawing"),
    )


def _parse_pins(d: dict, where: str) -> dict[str, PinDef]:
    pins = {}
    for pname, p in d.items():
        r = _parse_rect(p, f"{where}.pins.{pname}")
        pins[pname] = PinDef(r.with_purpose("pin"), p.get("net"))
    return pins


def _parse_param_schema(d: dict, where: str) -> dict[str, ParamSpec]:
    schema = {}
    for pname, p in d.items():
        ptype = _need(p, "type", f"{where}.{pname}")
        if ptype not in ("int", "str", "bool"):
            raise ValidationError(f"{where}.{pname}: unknown type {ptype!r}")
        schema[pname] = ParamSpec(
            type=ptype,
            default=p.get("default"),
            choices=tuple(p["choices"]) if "choices" in p else None,
            min=p.get("min"),
            max=p.get("max"),
        )
    return schema


def _parse_template(name: str, d: dict):
    where = f"template {name}"
    kind = _need(d, "kind", where)
    if kind == "native":
        size = _need(d, "size", where)
        return NativeTemplate(
            name=name,
            size=Point(size[0], size[1]),
            pins=_parse_pins(d.get("pins", {}), where),
            geometry=tuple(_parse_rect(e, where) for e in d.get("geometry", ())),
        )
    return DynamicTemplate(
        name=name,
        kind=kind,
        schema=_parse_param_schema(d.get("params", {}), where),
        config=d.get("config", {}),
    )


def load_tech(text: str | bytes) -> TechDB:
    """Parse and validate a technology document.

    Loading is a pure function of the document bytes; every invariant is
    enforced here so the rest of the engine can trust the database.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"tech document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("tech document must be a JSON object")
    name = _need(doc, "name", "tech")
    unit_nm = _pos_int(doc.get("unit_nm", 1), "tech.unit_nm")

    layers: dict[str, LayerDef] = {}
    for entry in _need(doc, "layers", "tech"):
        layer = _parse_layer(entry)
        if layer.name in layers:
            raise ValidationError(f"duplicate layer {layer.name!r}")
        layers[layer.name] = layer
    for layer in layers.values():
        if layer.cut is not None and layer.cut.cut_layer not in layers:
            raise ValidationError(
                f"layer {layer.name}: cut layer {layer.cut.cut_layer!r} does not exist"
            )

    vias: dict[str, ViaDef] = {}
    for entry in doc.get("vias", ()):
        vname = _need(entry, "name", "via")
        where = f"via {vname}"
        size = _need(entry, "cut_size", where)
        via = ViaDef(
            name=vname,
            lower=_need(entry, "lower", where),
            upper=_need(entry, "upper", where),
            cut_layer=_need(entry, "cut_layer", where),
            cut_size=(_pos_int(size[0], f"{where}.cut_size[0]"), _pos_int(size[1], f"{where}.cut_size[1]")),
            enclosure={
                k: _nonneg_int(v, f"{where}.enclosure.{k}")
                for k, v in _need(entry, "enclosure", where).items()
            },
        )
        for lname in (via.lower, via.upper, via.cut_layer):
            if lname not in layers:
                raise ValidationError(f"{where}: references unknown layer {lname!r}")
        if vname in vias:
            raise ValidationError(f"duplicate via {vname!r}")
        vias[vname] = via

    templates = {
        tname: _parse_template(tname, tdef)
        for tname, tdef in doc.get("templates", {}).items()
    }
    grids = {
        gname: GridSpec.from_dict(gname, gdef)
        for gname, gdef in doc.get("grids", {}).items()
    }
    for spec in grids.values():
        for t in spec.xtracks + spec.ytracks:
            if t.layer not in layers:
                raise ValidationError(f"grid {spec.name}: unknown layer {t.layer!r}")

    return TechDB(
        name=name,
        unit_nm=unit_nm,
        layers=layers,
        vias=vias,
        templates=templates,
        grids=grids,
    )


def load_tech_file(path_or_name: str | Path) -> TechDB:
    """Load a tech from a filesystem path or a bundled fixture name."""
    p = Path(path_or_name)
    if p.exists():
        return load_tech(p.read_text())
    stem = p.stem
    if stem in BUNDLED_TECHS:
        data = resources.files("gridlay").joinpath(f"techs/{stem}.json").read_text()
        return load_tech(data)
    raise ParseError(f"no such tech file or bundled tech: {path_or_name}")
