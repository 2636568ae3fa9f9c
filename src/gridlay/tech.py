"""Immutable technology database: layers, rules, vias, templates, grids.

The database encapsulates every process rule the engine consumes; generators
never see raw numbers, only rule queries, which is what makes them portable
across technologies. Two mock technologies ship with the package (see
gridlay/techs) so everything is reproducible without a proprietary PDK.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ParseError, UnknownLayer, ValidationError
from .geometry import Point, Rect
from .grid import GridSpec, TrackSpec
from .template import (
    _KIND_BUILDERS,
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
    """A cut between two routing layers with per-layer landing enclosures.

    `rects` holds the cut and the lower and upper landing pads relative to the
    via center, built once here: a pad is the cut grown by its layer's
    enclosure (0 for a layer without one) on every side.
    """

    name: str
    lower: str
    upper: str
    cut_layer: str
    cut_size: tuple[int, int]
    enclosure: Mapping[str, int]
    rects: tuple[Rect, Rect, Rect] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cw, ch = self.cut_size
        lo = Point(-(cw // 2), -(ch // 2))
        hi = lo + Point(cw, ch)

        def pad(layer: str) -> Rect:
            e = self.enclosure.get(layer, 0)
            return Rect(layer, lo - Point(e, e), hi + Point(e, e))

        cut = Rect(self.cut_layer, lo, hi)
        object.__setattr__(self, "rects", (cut, pad(self.lower), pad(self.upper)))

    def pad(self, layer: str) -> Rect:
        """The landing pad on `layer` (one of lower, upper), relative to the center."""
        return self.rects[1] if layer == self.lower else self.rects[2]


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


@contextmanager
def _entry(where: str):
    """Report the Python error a malformed entry raises while it is parsed as
    a ValidationError naming the entry, and the field if one is missing."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"{where}: missing field {key!r}")
    return d[key]


def _section(doc: dict, key: str, kind: type):
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        what = "an array" if kind is list else "an object"
        raise ValidationError(f"tech.{key}: must be {what}, got {value!r}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where}: must be a string, got {value!r}")
    return value


def _ints(value, n: int, where: str) -> list[int]:
    if not (isinstance(value, list) and len(value) == n and all(type(v) is int for v in value)):
        raise ValidationError(f"{where}: must be a list of {n} integers, got {value!r}")
    return value


def _pos_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValidationError(f"{where}: must be a positive integer, got {value!r}")
    return value


def _nonneg_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"{where}: must be a non-negative integer, got {value!r}")
    return value


def _parse_layer(d: dict, at: str) -> LayerDef:
    name = _str(d["name"], f"{at}.name")
    where = f"layer {name}"
    gds_layer, gds_datatype = _ints(d["gds"], 2, f"{where}.gds")
    cut = None
    if d.get("cut") is not None:
        c = d["cut"]
        cwhere = f"{where}.cut"
        cut = CutRule(
            cut_layer=_str(c["layer"], f"{cwhere}.layer"),
            cut_width=_pos_int(c["width"], f"{cwhere}.width"),
            cut_length=_pos_int(c["length"], f"{cwhere}.length"),
            spacing_threshold=_pos_int(c["spacing_threshold"], f"{cwhere}.spacing_threshold"),
            end_margin=_pos_int(c["end_margin"], f"{cwhere}.end_margin"),
        )
        if cut.cut_width > cut.spacing_threshold:
            raise ValidationError(f"{cwhere}: width exceeds spacing_threshold")
    colorable = d.get("colorable", False)
    if not isinstance(colorable, bool):
        raise ValidationError(f"{where}.colorable: must be true or false, got {colorable!r}")
    return LayerDef(
        name=name,
        gds_layer=_nonneg_int(gds_layer, f"{where}.gds[0]"),
        gds_datatype=_nonneg_int(gds_datatype, f"{where}.gds[1]"),
        min_width=_pos_int(d["min_width"], f"{where}.min_width"),
        min_spacing=_pos_int(d["min_spacing"], f"{where}.min_spacing"),
        min_area=_nonneg_int(d.get("min_area", 0), f"{where}.min_area"),
        colorable=colorable,
        cut=cut,
    )


def _parse_via(d: dict, at: str, layers: Mapping[str, LayerDef]) -> ViaDef:
    name = _str(d["name"], f"{at}.name")
    where = f"via {name}"
    cw, ch = _ints(d["cut_size"], 2, f"{where}.cut_size")
    via = ViaDef(
        name=name,
        lower=_str(d["lower"], f"{where}.lower"),
        upper=_str(d["upper"], f"{where}.upper"),
        cut_layer=_str(d["cut_layer"], f"{where}.cut_layer"),
        cut_size=(_pos_int(cw, f"{where}.cut_size[0]"), _pos_int(ch, f"{where}.cut_size[1]")),
        enclosure={k: _nonneg_int(v, f"{where}.enclosure.{k}") for k, v in d["enclosure"].items()},
    )
    for lname in (via.lower, via.upper, via.cut_layer):
        if lname not in layers:
            raise ValidationError(f"{where}: references unknown layer {lname!r}")
    return via


def _parse_rect(e: dict, where: str) -> Rect:
    x0, y0, x1, y1 = _ints(e["rect"], 4, f"{where}.rect")
    layer = _str(e["layer"], f"{where}.layer")
    return Rect(layer, Point(x0, y0), Point(x1, y1), e.get("purpose", "drawing"))


def _parse_pins(d: dict, where: str) -> dict[str, PinDef]:
    pins = {}
    for pname, p in d.items():
        r = _parse_rect(p, f"{where}.pins.{pname}")
        pins[pname] = PinDef(r.with_purpose("pin"), p.get("net"))
    return pins


# param type -> the Python type its default must have, and how errors say it
_PARAM_TYPES = {
    "int": (int, "an integer"), "str": (str, "a string"), "bool": (bool, "true or false"),
}


def _parse_param_schema(d: dict, where: str) -> dict[str, ParamSpec]:
    schema = {}
    for pname, p in d.items():
        at = f"{where}.params.{pname}"
        ptype = p["type"]
        if ptype not in _PARAM_TYPES:
            raise ValidationError(f"{at}.type: unknown type {ptype!r}")
        for key, (want, what) in (
            ("min", _PARAM_TYPES["int"]), ("max", _PARAM_TYPES["int"]),
            ("default", _PARAM_TYPES[ptype]),
        ):
            if p.get(key) is not None and type(p[key]) is not want:
                raise ValidationError(f"{at}.{key}: must be {what}, got {p[key]!r}")
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
    kind = _str(d["kind"], f"{where}.kind")
    if kind == "native":
        sx, sy = _ints(d["size"], 2, f"{where}.size")
        return NativeTemplate(
            name=name,
            size=Point(sx, sy),
            pins=_parse_pins(d.get("pins", {}), where),
            geometry=tuple(_parse_rect(e, where) for e in d.get("geometry", ())),
        )
    if kind not in _KIND_BUILDERS:
        raise ValidationError(f"{where}.kind: unknown kind {kind!r}")
    config = d.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError(f"{where}.config: must be an object, got {config!r}")
    for key in _KIND_BUILDERS[kind][1]:
        if key not in config:
            raise ValidationError(f"{where}.config: missing field {key!r}")
    return DynamicTemplate(
        name=name,
        kind=kind,
        schema=_parse_param_schema(d.get("params", {}), where),
        config=config,
    )


def _parse_grid(name: str, d: dict, layers: Mapping[str, LayerDef]) -> GridSpec:
    where = f"grid {name}"

    def tracks(key: str) -> tuple[TrackSpec, ...]:
        out = []
        for i, t in enumerate(d.get(key, ())):
            at = f"{where}.{key}[{i}]"
            layer = _str(t["layer"], f"{at}.layer")
            if layer not in layers:
                raise ValidationError(f"{at}: unknown layer {layer!r}")
            wmul = _pos_int(t.get("wmul", 1), f"{at}.wmul")
            out.append(TrackSpec(layer, t.get("kind", "signal"), wmul, t.get("color")))
        return tuple(out)

    return GridSpec(name, tracks("xtracks"), tracks("ytracks"))


def load_tech(text: str | bytes) -> TechDB:
    """Parse and validate a technology document.

    Loading is a pure function of the document bytes; every invariant is
    enforced here so the rest of the engine can trust the database. A
    malformed document raises ParseError or ValidationError, the latter
    naming the layer, via, template or grid entry at fault.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"tech document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("tech document must be a JSON object")
    name = _str(_need(doc, "name", "tech"), "tech.name")
    unit_nm = _pos_int(doc.get("unit_nm", 1), "tech.unit_nm")
    _need(doc, "layers", "tech")

    layers: dict[str, LayerDef] = {}
    for k, entry in enumerate(_section(doc, "layers", list)):
        with _entry(f"layers[{k}]"):
            layer = _parse_layer(entry, f"layers[{k}]")
        if layer.name in layers:
            raise ValidationError(f"duplicate layer {layer.name!r}")
        layers[layer.name] = layer
    for layer in layers.values():
        if layer.cut is not None and layer.cut.cut_layer not in layers:
            raise ValidationError(
                f"layer {layer.name}: cut layer {layer.cut.cut_layer!r} does not exist"
            )

    vias: dict[str, ViaDef] = {}
    for k, entry in enumerate(_section(doc, "vias", list)):
        with _entry(f"vias[{k}]"):
            via = _parse_via(entry, f"vias[{k}]", layers)
        if via.name in vias:
            raise ValidationError(f"duplicate via {via.name!r}")
        vias[via.name] = via

    templates = {}
    for tname, tdef in _section(doc, "templates", dict).items():
        with _entry(f"template {tname}"):
            templates[tname] = _parse_template(tname, tdef)
    grids = {}
    for gname, gdef in _section(doc, "grids", dict).items():
        with _entry(f"grid {gname}"):
            grids[gname] = _parse_grid(gname, gdef, layers)

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
        return load_tech(p.read_bytes())
    stem = p.stem
    if stem in BUNDLED_TECHS:
        return load_tech(resources.files("gridlay").joinpath(f"techs/{stem}.json").read_bytes())
    raise ParseError(f"no such tech file or bundled tech: {path_or_name}")
