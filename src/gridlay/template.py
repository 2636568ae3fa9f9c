"""Templates and their instantiation into virtual instances.

A template is a data-driven generator definition: its `kind` names a built-in
builder, and its parameters select sub-element counts and flavors at
instantiation time. The `native` kind is a fixed piece of geometry with pins
and no parameters. `generate` wraps the result into a VirtualInstance — a
group of placed sub-elements that behaves like a single instance with one
bounding box, one transform, and one pin set.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping

from .errors import (
    BOOL,
    INT,
    LIST,
    NONNEG_INT,
    OBJECT,
    PAIR,
    POS_INT,
    QUAD,
    STR,
    BadParams,
    Kind,
    UnknownPin,
    ValidationError,
    check,
    one_of,
    or_null,
    read,
)
from .geometry import (
    _SIGNS,
    PURPOSES,
    Point,
    Rect,
    Transform,
    _checked_replace,
    apply,
    apply_rect,
    compose,
)

if TYPE_CHECKING:
    from .tech import TechDB


class PinDef(namedtuple("PinDef", "rect net", defaults=(None,))):
    """A pin shape in the owner's local frame, with its net label."""

    __slots__ = ()


def _parse_rect(e: dict, where: str, layer_name: Kind) -> Rect:
    x0, y0, x1, y1 = read(e, "rect", QUAD, where)
    layer = read(e, "layer", layer_name, where)
    purpose = read(e, "purpose", one_of(*PURPOSES), where, default="drawing")
    return Rect(layer, Point(x0, y0), Point(x1, y1), purpose)


def _parse_pins(d: dict, where: str, layer_name: Kind) -> dict[str, PinDef]:
    pins = {}
    for pname, p in d.items():
        at = f"{where}.pins.{pname}"
        r = _parse_rect(p, at, layer_name)
        pins[pname] = PinDef(r.with_purpose("pin"), read(p, "net", or_null(STR), at, default=None))
    return pins


class ParamSpec(namedtuple("ParamSpec", "type default choices min max",
                           defaults=(None, None, None, None))):
    """A template parameter: its type ("int", "str" or "bool"), default,
    allowed values and, for an int, its bounds."""

    __slots__ = ()


PARAM_KINDS = {"int": INT, "str": STR, "bool": BOOL}


def validate_params(schema: Mapping[str, ParamSpec], params: Mapping[str, Any]) -> dict:
    """Fill defaults and check types/choices/bounds; BadParams names the field."""
    out: dict[str, Any] = {}
    for key in params:
        if key not in schema:
            raise BadParams(f"unknown parameter {key!r}")
    for name, spec in schema.items():
        if name in params:
            value = params[name]
        elif spec.default is not None or spec.type == "bool":
            value = spec.default if spec.default is not None else False
        else:
            raise BadParams(f"missing parameter {name!r}")
        kind = PARAM_KINDS[spec.type]
        if not kind.test(value):
            raise BadParams(f"{name!r} must be {kind.what}, got {value!r}")
        if spec.type == "int":
            if spec.min is not None and value < spec.min:
                raise BadParams(f"{name!r} must be >= {spec.min}")
            if spec.max is not None and value > spec.max:
                raise BadParams(f"{name!r} must be <= {spec.max}")
        if spec.choices is not None and value not in spec.choices:
            raise BadParams(f"{name!r} must be one of {list(spec.choices)}")
        out[name] = value
    return out


def param_tokens(params: Mapping[str, Any]) -> list[str]:
    """One `f"{k}{v}"` token per parameter in key order, bools as 0/1: the
    pieces design names and GDS structure names are joined from."""
    return [f"{k}{int(v) if isinstance(v, bool) else v}" for k, v in sorted(params.items())]


class SubElement(namedtuple("SubElement", "rects offset transform master",
                             defaults=(Transform.R0, ""))):
    """A geometry group placed inside a virtual instance.

    `offset` is the group origin relative to the instance origin, `transform`
    the group's own orientation; `master` is a label for reporting only.
    """

    __slots__ = ()


class Template(namedtuple("Template", "name kind schema config")):
    """A generator definition loaded from technology data.

    `kind` selects one of the built-in builders; `config` carries the
    technology-specific dimensions, layer names and, for a native cell, the
    size, pins and geometry the builder consumes. Generation is a pure
    function of (params, tech).
    """

    __slots__ = ()


def _inside(r: Rect, size: Point) -> bool:
    return 0 <= r.x0 and 0 <= r.y0 and r.x1 <= size.x and r.y1 <= size.y


class VirtualInstance(
    namedtuple("VirtualInstance", "master params origin transform size subelements pins")
):
    """A placed group of sub-elements abstracted as one instance.

    The declared size spans the local frame [0, size]; pins and sub-element
    geometry live in that frame. Placement maps a local point q to

        origin + 0.5*(I - M) * size + M * q

    with M = diag(sx, sy) the transform's sign matrix, so the absolute
    bounding box is the box of the declared size anchored at the origin for
    all four orientations.

    Every copy made by `at()` shares one cache, `_local`, filled once per
    transform: the master's flat rows relative to the anchor (key: the
    transform) and each pin rect relative to the origin (key: (pin name,
    transform)), so placing a master many times transforms its sub-element
    rects only once and each placed row or pin is an addition of integers.
    The cache lives in the instance `__dict__`, outside the tuple, so it takes
    no part in equality, hashing or the repr; `_replace` starts a new one.
    """

    def __new__(cls, master: str, params: Mapping[str, Any], origin: Point, transform: Transform,
                size: Point, subelements: tuple[SubElement, ...],
                pins: Mapping[str, PinDef]) -> "VirtualInstance":
        for pname, pin in pins.items():
            if not _inside(pin.rect, size):
                raise ValueError(f"instance {master}: pin {pname} outside bbox")
        return cls._make((master, params, origin, transform, size, subelements, pins))

    _replace = _checked_replace

    @cached_property
    def _local(self) -> dict:
        return {}

    def at(self, origin: Point, transform: Transform) -> "VirtualInstance":
        """Repositioned copy (instances are immutable).

        The copy shares the geometry cache, and skips the pin check: its pins
        and size are the ones already checked.
        """
        master, params, _, _, size, subelements, pins = self
        copy = self._make((master, params, origin, transform, size, subelements, pins))
        copy._local = self._local
        return copy

    def anchor(self) -> tuple[int, int]:
        """Where the local origin lands, as (x, y): the origin, plus the size
        on each axis the transform flips (origin + 0.5*(I - M) * size)."""
        _, _, (ox, oy), transform, (w, h), _, _ = self
        sx, sy = _SIGNS[transform]
        return ox + w if sx < 0 else ox, oy + h if sy < 0 else oy

    def local_rows(self, transform: Transform) -> tuple[tuple, ...]:
        """Sub-element geometry under `transform`, relative to the anchor, as
        flat rows (layer, x0, y0, x1, y1, purpose, "inst").

        Each rect r of a sub-element with offset o and orientation S becomes
        M*(S*r) + M*o: the offset maps through the instance transform, and
        the sub-element's orientation composes onto it, which mirrors
        unrotated children correctly. Computed once per transform and shared
        by every copy.
        """
        rows = self._local.get(transform)
        if rows is None:
            rects = (
                apply_rect(compose(transform, s.transform), r).translated(apply(transform, s.offset))
                for s in self.subelements for r in s.rects
            )
            rows = self._local[transform] = tuple((*r, "inst") for r in rects)
        return rows

    def rows(self) -> list[tuple]:
        """All sub-element geometry as absolute flat rows."""
        ax, ay = self.anchor()
        return [
            (layer, x0 + ax, y0 + ay, x1 + ax, y1 + ay, purpose, src)
            for layer, x0, y0, x1, y1, purpose, src in self.local_rows(self.transform)
        ]

    def flatten(self) -> list[Rect]:
        """All sub-element geometry in absolute coordinates."""
        return [Rect._make(row[:6]) for row in self.rows()]

    def pin_abs(self, name: str) -> Rect:
        """A pin rect transformed exactly like sub-element geometry."""
        master, _, origin, transform, _, _, pins = self
        cache = self._local
        key = (name, transform)
        local = cache.get(key)
        if local is None:
            pin = pins.get(name)
            if pin is None:
                raise UnknownPin(f"{master} has no pin {name!r}")
            # the transformed pin rect, shifted by the anchor's offset from the origin
            ax, ay = self.anchor()
            local = cache[key] = apply_rect(transform, pin.rect).translated(
                Point(ax - origin.x, ay - origin.y))
        return local.translated(origin)


def generate(tpl: Template, params: Mapping[str, Any], tech: "TechDB") -> VirtualInstance:
    """Instantiate a template at origin (0,0), R0, after checking `params`
    against its schema (empty for a native cell)."""
    clean = validate_params(tpl.schema, params)
    size, subelements, pins = _KIND_BUILDERS[tpl.kind].build(tpl, clean, tech)
    return VirtualInstance(
        master=tpl.name,
        params=clean,
        origin=Point(0, 0),
        transform=Transform.R0,
        size=size,
        subelements=tuple(subelements),
        pins=dict(pins),
    )


def array_of(vi: VirtualInstance, cols: int, rows: int, pitch: Point) -> list[VirtualInstance]:
    """Expand an instance into a cols x rows array with the given pitch."""
    if cols < 1 or rows < 1:
        raise BadParams("array dimensions must be >= 1")
    return [
        vi.at(vi.origin + Point(i * pitch.x, j * pitch.y), vi.transform)
        for j in range(rows)
        for i in range(cols)
    ]


# --- built-in template kinds -----------------------------------------------

def _build_native(tpl: Template, params: dict, tech: "TechDB"):
    """The cell's geometry as one sub-element named after the template."""
    cfg = tpl.config
    return cfg["size"], (SubElement(cfg["geometry"], Point(0, 0), Transform.R0, tpl.name),), cfg["pins"]


def _mos_cell(cfg: Mapping[str, Any], core: bool, vth_marker, ch_marker) -> tuple[Rect, ...]:
    pp = cfg["poly_pitch"]
    rh = cfg["row_height"]
    pw = cfg["poly_width"]
    pm = cfg["poly_margin"]
    am = cfg["active_margin"]
    rects = [Rect(cfg["poly_layer"], Point((pp - pw) // 2, pm), Point((pp + pw) // 2, rh - pm))]
    if core:
        rects.append(Rect(cfg["active_layer"], Point(0, am), Point(pp, rh - am)))
        if vth_marker:
            rects.append(Rect(vth_marker, Point(0, 0), Point(pp, rh)))
        if ch_marker:
            rects.append(Rect(ch_marker, Point(0, 0), Point(pp, rh)))
    return tuple(rects)


def _build_mos(tpl: Template, params: dict, tech: "TechDB"):
    """nf core cells flanked by two boundary dummies; pins on poly-pitch columns."""
    cfg = tpl.config
    nf = params["nf"]
    pp = cfg["poly_pitch"]
    rh = cfg["row_height"]
    vth_marker = cfg["vth_markers"].get(params["vth"])
    ch_marker = cfg["channel_markers"].get(params["channel"])
    core = _mos_cell(cfg, True, vth_marker, ch_marker)
    bnd = _mos_cell(cfg, False, vth_marker, ch_marker)
    subelements = [SubElement(bnd, Point(0, 0), Transform.R0, f"{tpl.name}_bnd")]
    for k in range(nf):
        subelements.append(SubElement(core, Point((1 + k) * pp, 0), Transform.R0, f"{tpl.name}_core"))
    subelements.append(SubElement(bnd, Point((nf + 1) * pp, 0), Transform.R0, f"{tpl.name}_bnd"))
    size = Point((nf + 2) * pp, rh)

    psz = cfg["pin_size"]
    margin = cfg["pin_margin"]
    layer = cfg["pin_layer"]
    half = psz // 2

    def pin_at(x: int, top: bool) -> Rect:
        y0 = rh - margin - psz if top else margin
        return Rect(layer, Point(x - half, y0), Point(x + half, y0 + psz), "pin")

    pins = {
        "g": PinDef(pin_at(pp, top=False), "g"),
        "s": PinDef(pin_at(2 * pp, top=False), "s"),
        "d": PinDef(pin_at(pp, top=True), "d"),
    }
    return size, subelements, pins


def _build_scan_bit(tpl: Template, params: dict, tech: "TechDB"):
    """One scan cell: core block plus an optional level-shift block abutted right.

    Chain pins sit flush on the cell edges so abutted cells connect by
    coordinate coincidence.
    """
    cfg = tpl.config
    core = tech.template(cfg["core"]).config
    subelements = [SubElement(core["geometry"], Point(0, 0), Transform.R0, cfg["core"])]
    width = core["size"].x
    if params["with_levelshift"]:
        ls = tech.template(cfg["levelshift"]).config
        subelements.append(SubElement(ls["geometry"], Point(width, 0), Transform.R0, cfg["levelshift"]))
        out_rect = ls["pins"]["out"].rect.translated(Point(width, 0))
        width += ls["size"].x
    else:
        out_rect = core["pins"]["scan_out"].rect
    pins = {
        "scan_in": PinDef(core["pins"]["scan_in"].rect, "si"),
        "scan_out": PinDef(out_rect, "so"),
        "clk": PinDef(core["pins"]["clk"].rect, "clk"),
    }
    return Point(width, core["size"].y), subelements, pins


# The native templates a scan_bit names, by config key, and the pins
# _build_scan_bit reads of each.
_SCAN_BIT_PINS = {"core": ("scan_in", "scan_out", "clk"), "levelshift": ("out",)}


def _parse_native_config(d: dict, where: str, layer_name: Kind) -> dict:
    """A native cell's size, pins and geometry, read from the top level of its
    entry at load: the pins must lie inside [0, size]."""
    sx, sy = read(d, "size", PAIR, where)
    pins = _parse_pins(read(d, "pins", OBJECT, where, default={}), where, layer_name)
    geometry = tuple(
        _parse_rect(e, where, layer_name) for e in read(d, "geometry", LIST, where, default=[])
    )
    if sx < 0 or sy < 0:
        raise ValidationError(f"{where}: negative size")
    size = Point(sx, sy)
    for pname, pin in pins.items():
        if not _inside(pin.rect, size):
            raise ValidationError(f"{where}: pin {pname} outside bbox")
    return {"size": size, "pins": pins, "geometry": geometry}


def _parse_mos_config(cfg: dict, where: str, layer_name: Kind) -> dict:
    """A mos template's layers and vth/channel marker layers, checked at load."""
    for key in ("poly_layer", "active_layer", "pin_layer"):
        read(cfg, key, layer_name, where)
    for key in ("vth_markers", "channel_markers"):
        for choice, marker in cfg[key].items():
            if marker is not None:  # no marker layer for this choice
                check(marker, layer_name, f"{where}.{key}.{choice}")
    return cfg


class KindDef(namedtuple("KindDef", "build params config parse_config templates",
                         defaults=(None, {}))):
    """A built-in kind, with what its builder reads so that the tech
    loader can reject a template the builder would fail on.

    build: (template, params, tech) -> (size, subelements, pins)
    params: each param it reads -> its type
    config: each config key it reads -> the Kind the key must hold
    parse_config: (config, where, layer kind) -> config, run at load; or None
    templates: each config key naming a native template -> the pins read
    """

    __slots__ = ()


# The loader rejects any other kind, a schema without one of the params its
# entry names or typing it otherwise, a config without one of the keys, a
# layer name the tech does not define, and a named template that is not
# native or lacks one of the pins. A native entry has no params or config
# object: its parser reads the entry itself.
_KIND_BUILDERS: dict[str, KindDef] = {
    "native": KindDef(_build_native, {}, {}, _parse_native_config),
    "mos": KindDef(_build_mos, {"nf": "int", "vth": "str", "channel": "str"}, {
        "poly_pitch": POS_INT, "row_height": POS_INT, "poly_width": POS_INT,
        "poly_margin": NONNEG_INT, "active_margin": NONNEG_INT,
        "poly_layer": STR, "active_layer": STR, "vth_markers": OBJECT, "channel_markers": OBJECT,
        "pin_size": POS_INT, "pin_margin": NONNEG_INT, "pin_layer": STR,
    }, _parse_mos_config),
    "scan_bit": KindDef(_build_scan_bit, {"with_levelshift": "bool"},
                        {"core": STR, "levelshift": STR}, templates=_SCAN_BIT_PINS),
}
