"""All-pairs spacing check: the reference the sweep checker is tested against.

This is the exhaustive O(n^2) checker, kept apart from the package so that
the differential tests compare two implementations that share no code
beyond the public Design, Rect and Violation types. It flattens the design
per layer, tests every pair of shapes, merges touching or overlapping shapes
into patterns, keeps the closest pair per pattern pair (ties to the smallest
index pair), and drops pairs whose gap a cut shape bisects.
"""

from __future__ import annotations

from gridlay.design import Design, Violation
from gridlay.geometry import Rect


def gaps(a: Rect, b: Rect) -> tuple[int, int]:
    dx = max(a.lo.x - b.hi.x, b.lo.x - a.hi.x, 0)
    dy = max(a.lo.y - b.hi.y, b.lo.y - a.hi.y, 0)
    return dx, dy


def cut_suppressed(a: Rect, b: Rect, cuts: list[Rect]) -> bool:
    """True when a cut spans the gap box across the gap axis and its center
    falls inside the gap span; diagonal gaps are never cuttable."""
    dx, dy = gaps(a, b)
    if dx > 0 and dy > 0:
        return False
    if dx > 0:
        g0, g1 = min(a.hi.x, b.hi.x), max(a.lo.x, b.lo.x)
        c0, c1 = max(a.lo.y, b.lo.y), min(a.hi.y, b.hi.y)
        for c in cuts:
            if c.lo.y <= c0 and c.hi.y >= c1 and g0 <= (c.lo.x + c.hi.x) // 2 <= g1:
                return True
    else:
        g0, g1 = min(a.hi.y, b.hi.y), max(a.lo.y, b.lo.y)
        c0, c1 = max(a.lo.x, b.lo.x), min(a.hi.x, b.hi.x)
        for c in cuts:
            if c.lo.x <= c0 and c.hi.x >= c1 and g0 <= (c.lo.y + c.hi.y) // 2 <= g1:
                return True
    return False


def oracle_check_spacing(d: Design, layer: str) -> list[Violation]:
    rule = d.tech.layer(layer)
    flat = [Rect._make(row[:6]) for row in d.iter_rows()]
    shapes = [r for r in flat if r.layer == layer and r.purpose != "pin"]
    cuts = []
    if rule.cut is not None:
        cuts = [r for r in flat if r.layer == rule.cut.cut_layer and r.purpose == "cut"]

    n = len(shapes)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pair_gap: dict[tuple[int, int], tuple[int, int, int]] = {}
    s = rule.min_spacing
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = gaps(shapes[i], shapes[j])
            if dx == 0 and dy == 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            elif dx * dx + dy * dy < s * s:
                pair_gap[(i, j)] = (dx * dx + dy * dy, i, j)

    best: dict[tuple[int, int], tuple[int, int, int]] = {}
    for (i, j), entry in pair_gap.items():
        key = tuple(sorted((find(i), find(j))))
        if key[0] == key[1]:
            continue
        if key not in best or entry[0] < best[key][0]:
            best[key] = entry

    out = []
    for gap_sq, i, j in sorted(best.values(), key=lambda e: (e[1], e[2])):
        if not cut_suppressed(shapes[i], shapes[j], cuts):
            out.append(Violation(layer, shapes[i], shapes[j], gap_sq))
    return out


def oracle_check_all(d: Design) -> list[Violation]:
    out: list[Violation] = []
    for name in d.tech.layers:
        out.extend(oracle_check_spacing(d, name))
    return out
