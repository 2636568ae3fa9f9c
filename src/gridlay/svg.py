"""SVG rendering for visual inspection of generated layouts.

One group per layer, painted in a fixed palette, with the y-axis flipped so
the image matches layout orientation. Output is pure string templating over
canonically sorted geometry, so equal designs render to identical bytes.
"""

from __future__ import annotations

from operator import itemgetter

from .design import Design

# fills cycled over layers in tech order
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_MARGIN = 40


def write_svg(d: Design) -> bytes:
    """Render the flattened design."""
    rows = list(d.iter_rows())
    # Row order is (layer, lo, hi, purpose) order up to `src`, which is not drawn.
    shapes = sorted(row for row in rows if row[5] != "pin")
    if not rows:
        lo_x = lo_y = 0
        w = h = 2 * _MARGIN
    else:
        x0, y0 = min(map(itemgetter(1), rows)), min(map(itemgetter(2), rows))
        x1, y1 = max(map(itemgetter(3), rows)), max(map(itemgetter(4), rows))
        lo_x, lo_y = x0 - _MARGIN, y0 - _MARGIN
        w, h = x1 - x0 + 2 * _MARGIN, y1 - y0 + 2 * _MARGIN

    fills = {name: _PALETTE[i % len(_PALETTE)] for i, name in enumerate(d.tech.layers)}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{lo_x} {-lo_y - h} {w} {h}">',
        # flip y so +y points up as in layout coordinates
        '<g transform="scale(1,-1)">',
    ]
    current = None
    for layer, x0, y0, x1, y1, _, _ in shapes:
        if layer != current:
            if current is not None:
                lines.append("</g>")
            fill = fills.get(layer, "#888888")
            lines.append(f'<g data-layer="{layer}" fill="{fill}" fill-opacity="0.55">')
            current = layer
        lines.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}"/>')
    if current is not None:
        lines.append("</g>")
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()
