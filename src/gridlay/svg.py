"""SVG rendering for visual inspection of generated layouts.

One group per layer, painted in a fixed palette (overridable per layer), with
the y-axis flipped so the image matches layout orientation. Output is pure
string templating over canonically sorted geometry, so equal designs render
to identical bytes.
"""

from __future__ import annotations

from .design import Design
from .geometry import bbox_of

# fills cycled over layers in tech order
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_MARGIN = 40


def write_svg(d: Design, styles: dict[str, str] | None = None) -> bytes:
    """Render the flattened design; `styles` maps layer name to a fill color."""
    styles = styles or {}
    flat = [r for r, _ in d.iter_flat()]
    rects = sorted(
        (r for r in flat if r.purpose != "pin"),
        key=lambda r: (r.layer, r.lo, r.hi, r.purpose),
    )
    bbox = bbox_of(flat)
    if bbox is None:
        lo_x = lo_y = 0
        w = h = 2 * _MARGIN
    else:
        lo, hi = bbox
        lo_x, lo_y = lo.x - _MARGIN, lo.y - _MARGIN
        w, h = hi.x - lo.x + 2 * _MARGIN, hi.y - lo.y + 2 * _MARGIN

    fills = {}
    for i, name in enumerate(d.tech.layers):
        fills[name] = styles.get(name, _PALETTE[i % len(_PALETTE)])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{lo_x} {-lo_y - h} {w} {h}">',
        # flip y so +y points up as in layout coordinates
        '<g transform="scale(1,-1)">',
    ]
    current = None
    for r in rects:
        if r.layer != current:
            if current is not None:
                lines.append("</g>")
            fill = fills.get(r.layer, "#888888")
            lines.append(f'<g data-layer="{r.layer}" fill="{fill}" fill-opacity="0.55">')
            current = r.layer
        lines.append(
            f'<rect x="{r.lo.x}" y="{r.lo.y}" width="{r.width}" height="{r.height}"/>'
        )
    if current is not None:
        lines.append("</g>")
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()
