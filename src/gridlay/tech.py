"""Immutable technology database: layers, rules, vias, templates, grids.

The database encapsulates every process rule the engine consumes; generators
never see raw numbers, only the rule values of a layer read through
`TechDB.layer(name)`, which is what makes them portable across technologies.
Two mock technologies ship with the package (see gridlay/techs) so everything
is reproducible without a proprietary PDK.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from importlib import resources
from pathlib import Path

from .errors import (
    BOOL,
    INT,
    LIST,
    NONNEG_INT,
    OBJECT,
    PAIR,
    POS_INT,
    STR,
    BadParams,
    Kind,
    ParseError,
    UnknownLayer,
    ValidationError,
    check,
    key_of,
    one_of,
    or_null,
    read,
)
from .geometry import Point, Rect
from .grid import TRACK_COLORS, GridSpec, TrackSpec, check_alternation
from .template import _KIND_BUILDERS, PARAM_KINDS, ParamSpec, Template, validate_params

BUNDLED_TECHS = ("mock_planar", "mock_finfet")


class CutRule(namedtuple("CutRule",
                           "cut_layer cut_width cut_length spacing_threshold end_margin")):
    """Cut-mask parameters of a routing layer.

    Wire ends closer than `spacing_threshold` are fabricated as one pattern
    and separated by a cut of `cut_width` (along the wire) by `cut_length`
    (across it); boundary cuts sit `end_margin` beyond a wire end.
    """

    __slots__ = ()


class LayerDef(namedtuple("LayerDef", "name gds_layer gds_datatype min_width min_spacing "
                                       "min_area colorable cut", defaults=(0, False, None))):
    """A layer's GDS number and rules; `cut` is its CutRule, if it has one."""

    __slots__ = ()


class ViaDef(namedtuple("ViaDef", "name lower upper cut_layer cut_size enclosure")):
    """A cut between two routing layers with per-layer landing enclosures.

    `rects` holds the cut and the lower and upper landing pads relative to the
    via center, built on first use: a pad is the cut grown by its layer's
    enclosure (0 for a layer without one) on every side. `_replace` makes a
    new record, which builds its own.
    """

    @cached_property
    def rects(self) -> tuple[Rect, Rect, Rect]:
        _, lower, upper, cut_layer, (cw, ch), enclosure = self
        lo = Point(-(cw // 2), -(ch // 2))
        hi = lo + Point(cw, ch)

        def pad(layer: str) -> Rect:
            e = enclosure.get(layer, 0)
            return Rect(layer, lo - Point(e, e), hi + Point(e, e))

        return Rect(cut_layer, lo, hi), pad(lower), pad(upper)

    def pad(self, layer: str) -> Rect:
        """The landing pad on `layer` (one of lower, upper), relative to the center."""
        return self.rects[1] if layer == self.lower else self.rects[2]


class TechDB(namedtuple("TechDB", "name unit_nm layers vias templates grids")):
    """A technology: its LayerDefs, ViaDefs, Templates and GridSpecs, each by name."""

    __slots__ = ()

    def layer(self, name: str) -> LayerDef:
        rule = self.layers.get(name)
        if rule is None:
            raise UnknownLayer(f"{self.name} has no layer {name!r}")
        return rule

    def via_between(self, a: str, b: str) -> ViaDef | None:
        """The via connecting two layers, in either order; None if absent."""
        for via in self.vias.values():
            if {via.lower, via.upper} == {a, b}:
                return via
        return None

    def template(self, name: str) -> Template:
        tpl = self.templates.get(name)
        if tpl is None:
            raise ValidationError(f"{self.name} has no template {name!r}")
        return tpl

    def grid_spec(self, name: str) -> GridSpec:
        spec = self.grids.get(name)
        if spec is None:
            raise ValidationError(f"{self.name} has no grid {name!r}")
        return spec


def _parse_layer(d: dict, at: str) -> LayerDef:
    name = read(d, "name", STR, at)
    where = f"layer {name}"
    gds = read(d, "gds", PAIR, where)
    cut = read(d, "cut", or_null(OBJECT), where, default=None)
    if cut is not None:
        cwhere = f"{where}.cut"
        cut = CutRule(
            cut_layer=read(cut, "layer", STR, cwhere),
            cut_width=read(cut, "width", POS_INT, cwhere),
            cut_length=read(cut, "length", POS_INT, cwhere),
            spacing_threshold=read(cut, "spacing_threshold", POS_INT, cwhere),
            end_margin=read(cut, "end_margin", POS_INT, cwhere),
        )
        if cut.cut_width > cut.spacing_threshold:
            raise ValidationError(f"{cwhere}: width exceeds spacing_threshold")
    return LayerDef(
        name=name,
        gds_layer=check(gds[0], NONNEG_INT, f"{where}.gds", 0),
        gds_datatype=check(gds[1], NONNEG_INT, f"{where}.gds", 1),
        min_width=read(d, "min_width", POS_INT, where),
        min_spacing=read(d, "min_spacing", POS_INT, where),
        min_area=read(d, "min_area", NONNEG_INT, where, default=0),
        colorable=read(d, "colorable", BOOL, where, default=False),
        cut=cut,
    )


def _parse_via(d: dict, at: str, layer_name: Kind) -> ViaDef:
    name = read(d, "name", STR, at)
    where = f"via {name}"
    cut_size = read(d, "cut_size", PAIR, where)
    lower = read(d, "lower", layer_name, where)
    upper = read(d, "upper", Kind(lambda v: v != lower and layer_name.test(v),
                                  f"a defined layer other than lower {lower!r}"), where)
    ends = one_of(lower, upper)
    return ViaDef(
        name=name,
        lower=lower,
        upper=upper,
        cut_layer=read(d, "cut_layer", layer_name, where),
        cut_size=tuple(check(c, POS_INT, f"{where}.cut_size", i) for i, c in enumerate(cut_size)),
        enclosure={
            check(k, ends, f"{where}.enclosure.{k}"): check(v, NONNEG_INT, f"{where}.enclosure.{k}")
            for k, v in read(d, "enclosure", OBJECT, where).items()
        },
    )


def _parse_param_schema(d: dict, where: str, required: dict[str, str]) -> dict[str, ParamSpec]:
    for pname, ptype in required.items():
        p = read(d, pname, OBJECT, f"{where}.params")
        read(p, "type", one_of(ptype), f"{where}.params.{pname}")
    schema = {}
    for pname, p in d.items():
        at = f"{where}.params.{pname}"
        ptype = read(p, "type", one_of(*PARAM_KINDS), at)
        kind = PARAM_KINDS[ptype]
        choices = read(p, "choices", LIST, at, default=None)
        spec = schema[pname] = ParamSpec(
            type=ptype,
            default=read(p, "default", or_null(kind), at, default=None),
            choices=None if choices is None else tuple(
                check(c, kind, f"{at}.choices", i) for i, c in enumerate(choices)),
            min=read(p, "min", or_null(INT), at, default=None),
            max=read(p, "max", or_null(INT), at, default=None),
        )
        if spec.min is not None and spec.max is not None and spec.min > spec.max:
            raise ValidationError(f"{at}.min: must be <= max {spec.max}, got {spec.min}")
        if spec.default is not None:  # the default must pass the checks a given value does
            try:
                validate_params({pname: spec}, {pname: spec.default})
            except BadParams as exc:
                raise ValidationError(f"{at}.default: {exc}") from exc
    return schema


def _parse_template(name: str, d: dict, layer_name: Kind) -> Template:
    where = f"template {name}"
    kind = read(d, "kind", one_of(*_KIND_BUILDERS), where)
    kdef = _KIND_BUILDERS[kind]
    if kind == "native":  # size, pins and geometry sit at the entry's top level
        return Template(name, kind, {}, kdef.parse_config(d, where, layer_name))
    cwhere = f"{where}.config"
    config = read(d, "config", OBJECT, where, default={})
    for key, ckind in kdef.config.items():
        read(config, key, ckind, cwhere)
    if kdef.parse_config is not None:
        config = kdef.parse_config(config, cwhere, layer_name)
    return Template(
        name=name,
        kind=kind,
        schema=_parse_param_schema(
            read(d, "params", OBJECT, where, default={}), where, kdef.params),
        config=config,
    )


def _check_template_refs(templates: dict) -> None:
    """Each native template a kind reads by a config key exists and has the
    pins the kind's builder reads."""
    native = key_of({n for n, t in templates.items() if t.kind == "native"}, "a native template")
    for tpl in templates.values():
        for key, pins in _KIND_BUILDERS[tpl.kind].templates.items():
            at = f"template {tpl.name}.config.{key}"
            ref = templates[check(tpl.config[key], native, at)]
            for pin in pins:
                if pin not in ref.config["pins"]:
                    raise ValidationError(f"{at}: template {ref.name} has no pin {pin!r}")


def _parse_grid(name: str, d: dict, layer_name: Kind, layers: dict) -> GridSpec:
    where = f"grid {name}"

    def tracks(key: str) -> tuple[TrackSpec, ...]:
        out = []
        for i, t in enumerate(read(d, key, LIST, where, default=[])):
            at = f"{where}.{key}[{i}]"
            out.append(TrackSpec(
                read(t, "layer", layer_name, at),
                read(t, "kind", one_of("signal", "power"), at, default="signal"),
                read(t, "wmul", POS_INT, at, default=1),
                read(t, "color", one_of(*TRACK_COLORS), at, default=None),
            ))
        check_alternation(f"{where}.{key}", out, layers)
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"tech document is not valid JSON: {exc}") from exc
    name = read(doc, "name", STR, "tech")  # also rejects a document that is no object
    unit_nm = read(doc, "unit_nm", POS_INT, "tech", default=1)

    layers: dict[str, LayerDef] = {}
    for k, entry in enumerate(read(doc, "layers", LIST, "tech")):
        layer = _parse_layer(entry, f"layers[{k}]")
        if layer.name in layers:
            raise ValidationError(f"duplicate layer {layer.name!r}")
        layers[layer.name] = layer
    for layer in layers.values():
        if layer.cut is not None and layer.cut.cut_layer not in layers:
            raise ValidationError(
                f"layer {layer.name}: cut layer {layer.cut.cut_layer!r} does not exist"
            )

    layer_name = key_of(layers, "a defined layer")
    vias: dict[str, ViaDef] = {}
    for k, entry in enumerate(read(doc, "vias", LIST, "tech", default=[])):
        via = _parse_via(entry, f"vias[{k}]", layer_name)
        if via.name in vias:
            raise ValidationError(f"duplicate via {via.name!r}")
        vias[via.name] = via

    templates = {
        tname: _parse_template(tname, tdef, layer_name)
        for tname, tdef in read(doc, "templates", OBJECT, "tech", default={}).items()
    }
    _check_template_refs(templates)
    grids = {
        gname: _parse_grid(gname, gdef, layer_name, layers)
        for gname, gdef in read(doc, "grids", OBJECT, "tech", default={}).items()
    }

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
