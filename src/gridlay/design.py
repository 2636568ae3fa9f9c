"""The mutable design container and its core editing operations.

A Design collects placed instances, track-aligned wires, vias, pins, and raw
rectangles while it moves through the generation pipeline. It is single-owner
mutable: stages edit it in sequence, never concurrently. Wires are modeled as
track segments (axis + center + extent) rather than free rectangles because
the cut-generation pass needs track identity; the rectangle is derived.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from .errors import DuplicatePin, MissingVia, NonRectilinear, UnknownLayer, UnknownWire
from .geometry import MASKS, Point, Rect, Transform, _tuple_new
from .grid import PlacementGrid, RoutingGrid
from .template import VirtualInstance

if TYPE_CHECKING:
    from .tech import LayerDef, TechDB


class Wire:
    """A routed segment in a track.

    `track` is the physical center coordinate on the axis perpendicular to
    the wire; `lo`/`hi` the extent along the wire. Pin wires are exempt from
    boundary cuts: their separation is handled one hierarchy level up.

    The one mutable record: the passes extend, pin and color wires in place.
    Wires compare field by field, are unhashable, and swap `lo`/`hi` into
    order when built.
    """

    __slots__ = ("layer", "axis", "track", "lo", "hi", "width", "is_pin", "net", "color")

    def __init__(self, layer: str, axis: str, track: int, lo: int, hi: int, width: int,
                 is_pin: bool = False, net: str | None = None, color: str | None = None):
        if axis not in ("h", "v"):
            raise ValueError(f"bad wire axis {axis!r}")
        if width <= 0:
            raise ValueError("wire width must be positive")
        if lo > hi:
            lo, hi = hi, lo
        self.layer = layer
        self.axis = axis            # "h" or "v"
        self.track = track
        self.lo = lo
        self.hi = hi
        self.width = width
        self.is_pin = is_pin
        self.net = net
        self.color = color

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _wire_items(self) == _wire_items(other)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, _wire_items(self)))
        return f"{type(self).__qualname__}({items})"

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def box(self) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1): lo to hi along the wire, track - width // 2 to
        that plus the width across it."""
        c0 = self.track - self.width // 2
        if self.axis == "h":
            return self.lo, c0, self.hi, c0 + self.width
        return c0, self.lo, c0 + self.width, self.hi


_wire_items = attrgetter(*Wire.__slots__)


class PlacedVia(namedtuple("PlacedVia", "via pos")):
    """A via definition's name placed with its center at the point `pos`."""

    __slots__ = ()


class Pin(namedtuple("Pin", "name net wire")):
    """A labeled wire exposing a net to the parent hierarchy level."""

    __slots__ = ()


class Design:
    """Container for everything a generator produces."""

    def __init__(self, name: str, tech: "TechDB"):
        self.name = name
        self.tech = tech
        self.instances: list[VirtualInstance] = []
        self.wires: list[Wire] = []
        self.vias: list[PlacedVia] = []
        self.pins: list[Pin] = []
        self.rects: list[Rect] = []
        self.pgrid: PlacementGrid | None = None
        self.rgrid: RoutingGrid | None = None

    # -- editing ------------------------------------------------------------

    def place(
        self,
        vi: VirtualInstance,
        grid: PlacementGrid,
        xy: tuple[int, int],
        transform: Transform = Transform.R0,
    ) -> VirtualInstance:
        """Snap an instance to abstract placement coordinates and append it.

        Overlaps are allowed here; they are reported by check_all, not at
        placement time.
        """
        placed = vi.at(grid.phys(xy), transform)
        self.instances.append(placed)
        return placed

    def add_wire(self, wire: Wire) -> Wire:
        self.wires.append(wire)
        return wire

    def add_via(self, grid: RoutingGrid, xy: tuple[int, int]) -> PlacedVia:
        """Drop the grid's via at a track intersection."""
        _, (xp, xc), (yp, yc), _, _, viamap = grid
        i, j = xy
        name = viamap.get(i, j)
        if name is None:
            raise MissingVia(f"no via at track intersection {xy}")
        nx, ny = len(xc), len(yc)
        pos = _tuple_new(Point, (xp * (i // nx) + xc[i % nx], yp * (j // ny) + yc[j % ny]))
        via = _tuple_new(PlacedVia, (name, pos))
        self.vias.append(via)
        return via

    def route(self, grid: RoutingGrid, waypoints: list[tuple[int, int]]) -> list[Wire]:
        """Route a rectilinear path along grid tracks.

        One wire per segment, taking layer and width from the segment's
        track; a via is placed at every direction change. Wire extents reach
        the end track centers plus the via landing (or a square end cap).
        """
        if len(waypoints) < 2:
            raise NonRectilinear("need at least two waypoints")
        segs = []   # (axis, low end, high end) per segment, ends as waypoints
        bends = []  # the waypoints where the direction changes, in path order
        a = waypoints[0]
        for b in waypoints[1:]:
            if a == b:
                continue
            if a[1] == b[1]:
                seg = ("h", a, b) if a[0] < b[0] else ("h", b, a)
            elif a[0] == b[0]:
                seg = ("v", a, b) if a[1] < b[1] else ("v", b, a)
            else:
                raise NonRectilinear(f"waypoints {a} and {b} share no row or column")
            if segs and segs[-1][0] != seg[0]:
                bends.append(a)
            segs.append(seg)
            a = b
        if not segs:
            raise NonRectilinear("path has zero length")

        # Consecutive segments on one axis share a row or column, so a track:
        # only a direction change can change the layer.
        for p in bends:  # check every via before placing any
            if grid.viamap.get(*p) is None:
                raise MissingVia(f"no via at track intersection {p}")
        vias = {}
        for p in bends:
            vias[p] = self.tech.vias[self.add_via(grid, p).via]
        _, (xp, xc), (yp, yc), xtracks, ytracks, _ = grid
        nx, ny = len(xc), len(yc)
        wires: list[Wire] = []
        for axis, lo, hi in segs:
            (i0, j0), (i1, j1) = lo, hi
            if axis == "h":
                layer, width, _ = ytracks.get(j0)
                track = yp * (j0 // ny) + yc[j0 % ny]
                c0, c1 = xp * (i0 // nx) + xc[i0 % nx], xp * (i1 // nx) + xc[i1 % nx]
            else:
                layer, width, _ = xtracks.get(i0)
                track = xp * (i0 // nx) + xc[i0 % nx]
                c0, c1 = yp * (j0 // ny) + yc[j0 % ny], yp * (j1 // ny) + yc[j1 % ny]
            # Square end cap at minimum; a via landing may need more: the
            # pad's extent below the via center, x0 along x or y0 along y.
            r0 = r1 = width // 2
            if vias:
                k = 1 if axis == "h" else 2
                if lo in vias:
                    r0 = max(r0, -vias[lo].pad(layer)[k])
                if hi in vias:
                    r1 = max(r1, -vias[hi].pad(layer)[k])
            wire = Wire(layer, axis, track, c0 - r0, c1 + r1, width)
            self.wires.append(wire)
            wires.append(wire)
        return wires

    def add_pin(self, name: str, net: str, wire: Wire) -> Pin:
        """Promote a wire to a pin; duplicate names must agree on the net."""
        if not any(w is wire for w in self.wires):
            raise UnknownWire(f"wire is not part of design {self.name}")
        for p in self.pins:
            if p.name == name and p.net != net:
                raise DuplicatePin(f"pin {name!r} already bound to net {p.net!r}")
        wire.is_pin = True
        wire.net = net
        pin = Pin(name, net, wire)
        self.pins.append(pin)
        return pin

    # -- views --------------------------------------------------------------

    def instance_bbox(self) -> tuple[Point, Point] | None:
        """Lower-left / upper-right corners of the instances' boxes (origin
        to origin + size), or None without instances."""
        if not self.instances:
            return None
        x0s, y0s, x1s, y1s = zip(*(
            (o.x, o.y, o.x + s.x, o.y + s.y)
            for vi in self.instances for o, s in [(vi.origin, vi.size)]
        ))
        return Point(min(x0s), min(y0s)), Point(max(x1s), max(y1s))

    def iter_rows(self) -> Iterator[tuple]:
        """Flattened geometry as flat rows (layer, x0, y0, x1, y1, purpose,
        src), src one of inst, wire, via, pin, raw: each instance's rows in
        placement order, then `own_rows`."""
        for vi in self.instances:
            yield from vi.rows()
        yield from self.own_rows()

    def own_rows(self) -> Iterator[tuple]:
        """The design's own shapes as flat rows, without instance geometry:
        wires, vias (cut, lower pad, upper pad), pins, raw rects."""
        for w in self.wires:
            yield (w.layer, *w.box(), MASKS.get(w.color, "drawing"), "wire")
        vias = self.tech.vias
        for name, (x, y) in self.vias:
            for layer, x0, y0, x1, y1, purpose in vias[name].rects:
                yield layer, x0 + x, y0 + y, x1 + x, y1 + y, purpose, "via"
        for _, _, wire in self.pins:
            yield (wire.layer, *wire.box(), "pin", "pin")
        for r in self.rects:
            yield (*r, "raw")


# -- DRC-lite spacing check ---------------------------------------------------


class Violation(namedtuple("Violation", "layer a b gap_sq")):
    """Two rects on `layer` closer than its minimum spacing; `gap_sq` is the
    squared gap between them."""

    __slots__ = ()

    def __str__(self) -> str:
        return (
            f"{self.layer}: spacing violation between "
            f"({self.a.x0},{self.a.y0},{self.a.x1},{self.a.y1}) and "
            f"({self.b.x0},{self.b.y0},{self.b.x1},{self.b.y1})"
        )


def _cut_suppressed(a: tuple, b: tuple, cuts: list[tuple]) -> bool:
    """True when a cut shape bisects the gap between two flat rows.

    The cut must span the gap box across the gap axis and its center must
    fall inside the gap span.
    """
    _, ax0, ay0, ax1, ay1 = a[:5]
    _, bx0, by0, bx1, by1 = b[:5]
    dx = max(ax0 - bx1, bx0 - ax1, 0)
    dy = max(ay0 - by1, by0 - ay1, 0)
    if dx > 0 and dy > 0:
        return False  # diagonal gaps are not cuttable
    if dx > 0:
        g0, g1 = min(ax1, bx1), max(ax0, bx0)
        c0, c1 = max(ay0, by0), min(ay1, by1)
        return any(c[2] <= c0 and c[4] >= c1 and g0 <= (c[1] + c[3]) // 2 <= g1 for c in cuts)
    g0, g1 = min(ay1, by1), max(ay0, by0)
    c0, c1 = max(ax0, bx0), min(ax1, bx1)
    return any(c[1] <= c0 and c[3] >= c1 and g0 <= (c[2] + c[4]) // 2 <= g1 for c in cuts)


def _shape_index(d: Design) -> tuple[dict[str, list[tuple]], dict[str, list[tuple]]]:
    """Bucket the design's flat rows by layer in one iter_rows pass.

    Returns the spacing shapes per layer (pin-purpose label overlays left
    out) and the cut-purpose shapes per layer, both in iter_rows order. A
    shape on a layer the technology does not define raises UnknownLayer.
    """
    shapes: dict[str, list[tuple]] = {name: [] for name in d.tech.layers}
    cuts: dict[str, list[tuple]] = {name: [] for name in d.tech.layers}
    for row in d.iter_rows():
        bucket = shapes.get(row[0])
        if bucket is None:
            raise UnknownLayer(f"{d.tech.name} has no layer {row[0]!r}")
        if row[5] == "cut":
            cuts[row[0]].append(row)
        if row[5] != "pin":
            bucket.append(row)
    return shapes, cuts


def _check_layer(
    rule: "LayerDef", shapes_by_layer: dict[str, list[tuple]], cuts_by_layer: dict[str, list[tuple]]
) -> list[Violation]:
    shapes = shapes_by_layer[rule.name]
    cuts = cuts_by_layer[rule.cut.cut_layer] if rule.cut is not None else []
    s = rule.min_spacing
    s_sq = s * s
    n = len(shapes)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Sweep on lo.x. Every active shape starts at or left of the current
    # one, so the x gap is lo.x - hi.x of the active shape, and a shape whose
    # hi.x is s or more to the left can neither touch nor crowd any later one.
    near: list[tuple[int, int, int]] = []   # (gap_sq, i, j) with i < j
    active: dict[int, tuple[int, int, int]] = {}   # index -> (lo.y, hi.x, hi.y)
    expiry: list[tuple[int, int]] = []      # heap of (hi.x, index)
    for j in sorted(range(n), key=lambda k: shapes[k][1]):
        _, lx, ly, hx, hy, _, _ = shapes[j]
        reach = lx - s
        while expiry and expiry[0][0] <= reach:
            del active[heapq.heappop(expiry)[1]]
        for i, (aly, ahx, ahy) in active.items():
            dy = max(aly - hy, ly - ahy, 0)
            if dy >= s:
                continue
            dx = lx - ahx if lx > ahx else 0
            if dx == 0 and dy == 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            else:
                gap_sq = dx * dx + dy * dy
                if gap_sq < s_sq:
                    near.append((gap_sq, i, j) if i < j else (gap_sq, j, i))
        active[j] = (ly, hx, hy)
        heapq.heappush(expiry, (hx, j))

    # Report the closest offending pair per pattern pair; ties go to the
    # smallest (i, j).
    best: dict[tuple[int, int], tuple[int, int, int]] = {}
    for entry in near:
        ri, rj = find(entry[1]), find(entry[2])
        if ri == rj:
            continue  # connected through other shapes
        key = (ri, rj) if ri < rj else (rj, ri)
        if key not in best or entry < best[key]:
            best[key] = entry

    out = []
    for gap_sq, i, j in sorted(best.values(), key=lambda e: (e[1], e[2])):
        if not _cut_suppressed(shapes[i], shapes[j], cuts):
            out.append(Violation(rule.name, Rect._make(shapes[i][:6]),
                                 Rect._make(shapes[j][:6]), gap_sq))
    return out


def check_all(d: Design) -> list[Violation]:
    """Same-layer spacing check of every layer of the technology, by a sweep on x.

    The design is flattened once into per-layer shape buckets. On each layer
    the shapes are swept in lo.x order against an active window of shapes
    that end less than min_spacing to the left, so only x-near pairs are
    compared. Shapes that touch or overlap are fabricated as one aggregated
    pattern and are merged before checking, so only gaps between disjoint
    patterns count; each pattern pair reports its closest pair of shapes. A
    gap smaller than min_spacing is reported unless a cut shape on the
    layer's cut layer bisects it. Pin-purpose shapes are label overlays of
    their wires and are skipped. Diagonal gaps compare the exact Euclidean
    distance in integers. Violations come layer by layer in the tech's layer
    order, and within a layer in shape order (iter_rows order of the pair).
    """
    index = _shape_index(d)
    out: list[Violation] = []
    for rule in d.tech.layers.values():
        out.extend(_check_layer(rule, *index))
    return out
