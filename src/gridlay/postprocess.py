"""Process-specific post-processing passes.

These run after placement and routing, gated on what the technology actually
requires: cut-pattern generation for layers fabricated as aggregated patterns,
minimum-area wire extension, patterning-mask (color) assignment, and dummy
fill. Pass order in the standard flow is min-area, cuts, colors, dummies:
extensions change gaps so they must precede cuts, coloring reads final track
usage, and dummies fill whatever space remains.
"""

from __future__ import annotations

from .design import Design, Wire
from .errors import LayoutError, NoCutRule, NoDummyTemplate, NotColorable, NotOnGrid
from .geometry import Rect
from .template import VirtualInstance, generate


def cut_pattern_gen(d: Design, layer: str) -> list[Rect]:
    """Insert cut rects for a layer fabricated as aggregated patterns; return the new ones.

    Scanning each track: any gap between neighboring patterns smaller than
    the spacing threshold receives exactly one cut centered in the gap
    (midpoint rounded toward the lower coordinate). Each outer end of a track
    additionally receives a cut beyond it, applied along the track's axis,
    iff some non-pin wire reaches that end; pin wires alone get none because
    their cuts belong to the parent level. Overlapping or abutting wires are
    one merged pattern and never get a cut between them. The result does not
    depend on the order of the wires. Rerunning the pass adds nothing.
    """
    rule = d.tech.layer(layer).cut
    if rule is None:
        raise NoCutRule(f"layer {layer!r} has no cut rule")
    cut_layer, threshold, margin = rule.cut_layer, rule.spacing_threshold, rule.end_margin
    cw, cl = rule.cut_width, rule.cut_length

    existing = set(d.rects)
    tracks: dict[tuple[str, int], list[tuple[int, int, bool]]] = {}
    for w in d.wires:
        if w.layer == layer:
            tracks.setdefault((w.axis, w.track), []).append((w.lo, w.hi, w.is_pin))

    out: list[Rect] = []
    for (axis, track), spans in sorted(tracks.items()):
        spans.sort()
        c0 = track - cl // 2
        centers = []
        # One sweep in (lo, hi) order: `end` is the high end of the merged
        # pattern so far, and a gap opens where a span starts past it.
        first, end, _ = spans[0]
        low = high = False   # a non-pin wire reaches the low / high end
        for lo, hi, is_pin in spans:
            if 0 < lo - end < threshold:
                centers.append((end + lo) // 2)
            if hi > end:
                end, high = hi, False
            if not is_pin:
                low = low or lo == first
                high = high or hi == end
        if low:
            centers.append(first - margin)
        if high:
            centers.append(end + margin)
        for center in centers:
            a0 = center - cw // 2
            # Cut width and length are positive, so the row is normalized. A
            # Rect equals the tuple of its row, so `existing` finds either.
            row = ((cut_layer, a0, c0, a0 + cw, c0 + cl, "cut") if axis == "h"
                   else (cut_layer, c0, a0, c0 + cl, a0 + cw, "cut"))
            if row not in existing:
                existing.add(row)
                r = Rect._make(row)
                d.rects.append(r)
                out.append(r)
    return out


def extend_min_area(d: Design, layer: str) -> list[Wire]:
    """Lengthen undersized wires symmetrically until they meet min area.

    The target length is rounded up to the manufacturing grid; an odd total
    extension puts the extra unit on the high end. Wires are never shrunk.
    """
    min_area = d.tech.layer(layer).min_area
    touched: list[Wire] = []
    if min_area <= 0:
        return touched
    for w in d.wires:
        if w.layer != layer or w.width * w.length >= min_area:
            continue
        target = -(-min_area // w.width)
        delta = target - w.length
        w.lo -= delta // 2
        w.hi += delta - delta // 2
        touched.append(w)
    return touched


def assign_colors(d: Design, layer: str, offset: int = 0) -> list[Wire]:
    """Assign patterning masks to a colorable layer's wires from the grid.

    A wire's color is the grid's per-track color at its track index shifted
    by `offset` — the alignment knob when abutting this block against a
    neighbor. Wires that sit off-grid or whose axis does not carry this layer
    keep no color.
    """
    if not d.tech.layer(layer).colorable:
        raise NotColorable(f"layer {layer!r} is not colorable")
    g = d.rgrid
    if g is None:
        raise LayoutError("design has no routing grid to color against")
    axes = {"v": (g.xgrid, g.xtracks), "h": (g.ygrid, g.ytracks)}
    colored: list[Wire] = []
    for w in d.wires:
        if w.layer != layer:
            continue
        grid, tracks = axes[w.axis]
        try:
            idx = grid.index_where("==", w.track)
        except NotOnGrid:
            continue
        if tracks.get(idx).layer != layer:
            continue
        w.color = tracks.get(idx + offset).color
        if w.color is not None:
            colored.append(w)
    return colored


def fill_dummies(d: Design, region: Rect) -> list[VirtualInstance]:
    """Put one dummy instance on every free placement site inside a region.

    A site is the half-open placement-grid cell starting at a grid point that
    lies inside the region; it is occupied when any instance bbox overlaps it
    with positive area. Dummies come row by row, left to right.

    Each row is swept on x: the instance boxes (origin to origin + size)
    across the row are taken in lo.x order, and a site is occupied when a
    box starting left of its right edge reaches past its left edge.
    """
    tpl = d.tech.templates.get("dummy")
    if tpl is None:
        raise NoDummyTemplate(f"tech {d.tech.name} ships no 'dummy' template")
    if d.pgrid is None:
        raise LayoutError("design has no placement grid to fill on")
    dummy = None  # generated at the first free site: a packed region needs none
    boxes = sorted(
        (o.x, o.y, o.x + s.x, o.y + s.y) for vi in d.instances for o, s in [(vi.origin, vi.size)]
    )

    gx, gy = d.pgrid.xgrid, d.pgrid.ygrid
    added: list[VirtualInstance] = []
    j = gy.index_where(">=", region.y0)
    while gy.phys(j) < region.y1:
        y0, y1 = gy.phys(j), gy.phys(j + 1)
        row = [(bx0, bx1) for bx0, by0, bx1, by1 in boxes if by0 < y1 and y0 < by1]
        k = 0
        i = gx.index_where(">=", region.x0)
        x0 = reach = gx.phys(i)  # reach: largest hi.x of the boxes passed
        while x0 < region.x1:
            x1 = gx.phys(i + 1)
            while k < len(row) and row[k][0] < x1:
                reach = max(reach, row[k][1])
                k += 1
            if reach <= x0:
                if dummy is None:
                    dummy = generate(tpl, {}, d.tech)
                added.append(d.place(dummy, d.pgrid, (i, j)))
            i, x0 = i + 1, x1
        j += 1
    return added
