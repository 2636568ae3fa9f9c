"""The end-to-end generation pipeline.

Stage order: instance generation, placement, routing-grid generation (after
placement, so the grid can key on the placed structures), routing, pinning,
then the post-processing passes in their fixed order (min-area extension,
cut generation, coloring, dummy fill). Each post pass runs only when the
technology actually requires it and the caller has not switched it off.
Errors are re-raised annotated with the stage that produced them.
"""

from __future__ import annotations

from collections import namedtuple

from .design import Design
from .errors import FlowError, LayoutError
from .generators import Generator, get_generator
from .geometry import Rect
from .postprocess import assign_colors, cut_pattern_gen, extend_min_area, fill_dummies
from .tech import TechDB
from .template import validate_params


POST_PASSES = ("min-area", "cuts", "colors", "dummies")


class FlowFlags(namedtuple("FlowFlags", "min_area cuts colors dummies color_offset",
                           defaults=(True, True, True, True, 0))):
    """Per-run switches: one per POST_PASSES name, `-` written `_`, plus the color offset."""

    __slots__ = ()


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise FlowError(name, exc) from exc


def run_pass(d: Design, name: str, color_offset: int = 0) -> None:
    """Run one post pass on every layer the tech requires it for (the layers
    `TechDB.pass_layers` lists; dummies need a `dummy` template and instances).
    Errors carry the stage label, as in `postprocess[cuts:m1]`."""
    if name not in POST_PASSES:
        raise LayoutError(f"unknown post pass {name!r}; known: {', '.join(POST_PASSES)}")
    if name == "dummies":
        box = d.instance_bbox() if "dummy" in d.tech.templates else None
        if box is not None:
            (x0, y0), (x1, y1) = box  # ordered corners: the row needs no check
            _stage("postprocess[dummies]", fill_dummies, d,
                   Rect._make(("", x0, y0, x1, y1, "drawing")))
        return
    layers = d.tech.pass_layers[name]
    if name == "min-area":
        for layer in layers:
            _stage(f"postprocess[min-area:{layer}]", extend_min_area, d, layer)
    elif name == "cuts":
        for layer in layers:
            _stage(f"postprocess[cuts:{layer}]", cut_pattern_gen, d, layer)
    else:
        for layer in layers:
            _stage(f"postprocess[colors:{layer}]", assign_colors, d, layer, color_offset)


def run_flow(
    generator: str | Generator,
    params: dict,
    tech: TechDB,
    flags: FlowFlags | None = None,
) -> Design:
    """Run a registered generator through the whole pipeline."""
    flags = flags if flags is not None else FlowFlags()
    if isinstance(generator, str):
        cls = get_generator(generator)
        gen = cls(validate_params(cls.schema, params))
    else:
        gen = generator

    d = Design(gen.design_name(), tech)
    _stage("instances", gen.build_instances, d)
    _stage("placement", gen.place_instances, d)
    _stage("grids", gen.make_grids, d)
    _stage("routing", gen.route_wires, d)
    _stage("pinning", gen.add_pins, d)
    for name, on in zip(POST_PASSES, flags):  # the first four flags, in pass order
        if on:
            run_pass(d, name, flags.color_offset)
    return d
