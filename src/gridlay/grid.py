"""Cyclic value stores, periodic coordinate grids, and grid generation.

Grid attributes (layer, width, color, via candidates) repeat over the whole
physical space, so they are held in cyclic containers that accept any integer
index, negative included. Abstract (track index) to physical (nanometer)
conversion and its conditional reverse mapping live on OneDimGrid. Everything
here is immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Sequence

from .errors import InfeasibleSpec, NotOnGrid, UnknownLayer
from .geometry import Point, Rect

if TYPE_CHECKING:
    from .tech import TechDB


class CircularMapping:
    """A 1-D list whose indexing wraps around in both directions.

    Element lookup uses floored modulo, so get(i) is defined for every
    integer i and get(i + len) == get(i) exactly. Slices are half-open
    [start, stop) with an optional nonzero step, evaluated index by index
    through the cyclic lookup (so they may be longer than the list itself).
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence):
        if len(elements) < 1:
            raise ValueError("CircularMapping needs at least one element")
        self.elements = tuple(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def get(self, i: int) -> Any:
        return self.elements[i % len(self.elements)]

    def slice(self, start: int, stop: int, step: int = 1) -> list:
        if step == 0:
            raise ValueError("slice step must be nonzero")
        return [self.get(i) for i in range(start, stop, step)]

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.start is None or key.stop is None:
                raise ValueError("cyclic slices need explicit start and stop")
            return self.slice(key.start, key.stop, 1 if key.step is None else key.step)
        return self.get(key)

    def __eq__(self, other) -> bool:
        return isinstance(other, CircularMapping) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"CircularMapping({list(self.elements)!r})"


class CircularMappingArray:
    """A 2-D array with cyclic indexing on both axes.

    Built from rows of uniform length; get(i, j) wraps i over the rows and
    j over the columns.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        if len(rows) < 1:
            raise ValueError("CircularMappingArray needs at least one row")
        widths = {len(r) for r in rows}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("rows must have equal, nonzero length")
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def get(self, i: int, j: int) -> Any:
        row = self.rows[i % len(self.rows)]
        return row[j % len(row)]

    def __getitem__(self, key):
        i, j = key
        return self.get(i, j)

    def __eq__(self, other) -> bool:
        return isinstance(other, CircularMappingArray) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"CircularMappingArray({[list(r) for r in self.rows]!r})"


_OPS = ("<", "<=", "==", ">=", ">")


class OneDimGrid(namedtuple("OneDimGrid", "period coords")):
    """A periodic 1-D coordinate grid: `coords` repeated every `period` units.

    Abstract index i maps to period*floor(i/r) + coords[i mod r], r being the
    number of coordinates per period, so the grid extends infinitely in both
    directions.
    """

    __slots__ = ()

    def __new__(cls, period: int, coords: tuple[int, ...]) -> "OneDimGrid":
        if period <= 0:
            raise ValueError("grid period must be positive")
        coords = tuple(coords)
        if not coords:
            raise ValueError("grid needs at least one coordinate")
        if any(b <= a for a, b in zip(coords, coords[1:])):
            raise ValueError("grid coordinates must be strictly increasing")
        if coords[0] < 0 or coords[-1] >= period:
            raise ValueError("grid coordinates must lie in [0, period)")
        return cls._make((period, coords))

    def _replace(self, **fields) -> "OneDimGrid":
        """A copy with `fields` replaced, built and checked like a new record."""
        return type(self)(**{**self._asdict(), **fields})

    def phys(self, i: int) -> int:
        """Physical coordinate of abstract index i."""
        period, coords = self
        r = len(coords)
        return period * (i // r) + coords[i % r]

    def index_where(self, op: str, value: int) -> int:
        """Reverse mapping by conditional operator.

        For ">="/">" returns the smallest abstract index whose physical
        coordinate satisfies the condition, for "<="/"<" the largest, and for
        "==" the unique index of an on-grid value (NotOnGrid otherwise).
        """
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        period, coords = self
        r = len(coords)
        base, rem = divmod(value, period)
        if op == ">=":
            return base * r + bisect_left(coords, rem)
        if op == ">":
            return base * r + bisect_right(coords, rem)
        if op == "<=":
            return base * r + bisect_right(coords, rem) - 1
        if op == "<":
            return base * r + bisect_left(coords, rem) - 1
        k = bisect_left(coords, rem)
        if k == r or coords[k] != rem:
            raise NotOnGrid(f"{value} is not on the grid")
        return base * r + k


class PlacementGrid(namedtuple("PlacementGrid", "xgrid ygrid")):
    """Independent x/y grids that instance origins snap to."""

    __slots__ = ()

    def phys(self, xy: tuple[int, int]) -> Point:
        xgrid, ygrid = self
        return Point(xgrid.phys(xy[0]), ygrid.phys(xy[1]))


class TrackSpec(namedtuple("TrackSpec", "layer kind wmul color")):
    """One track of a grid generation pattern.

    kind "signal" uses the layer's minimum width; kind "power" widens the
    track by `wmul`. `color` pins the patterning mask of the track ("none"
    leaves it uncolored); absent on a colorable layer means alternate
    automatically.
    """

    __slots__ = ()

    def __new__(cls, layer: str, kind: str = "signal", wmul: int = 1,
                color: str | None = None) -> "TrackSpec":
        if kind not in ("signal", "power"):
            raise ValueError(f"unknown track kind {kind!r}")
        if wmul < 1:
            raise ValueError("wmul must be >= 1")
        if color not in (None, "A", "B", "none"):
            raise ValueError(f"unknown color {color!r}")
        return cls._make((layer, kind, wmul, color))

    def _replace(self, **fields) -> "TrackSpec":
        """A copy with `fields` replaced, built and checked like a new record."""
        return type(self)(**{**self._asdict(), **fields})


class GridSpec(namedtuple("GridSpec", "name xtracks ytracks")):
    """Input parameters of routing-grid generation: one cycle of TrackSpecs per axis."""

    __slots__ = ()


class Track(namedtuple("Track", "layer width color")):
    """One realized track: the layer, width and patterning color of its wires."""

    __slots__ = ()

    def __new__(cls, layer: str, width: int, color: str | None = None) -> "Track":
        if width <= 0:
            raise ValueError("track widths must be positive")
        return cls._make((layer, width, color))

    def _replace(self, **fields) -> "Track":
        """A copy with `fields` replaced, built and checked like a new record."""
        return type(self)(**{**self._asdict(), **fields})


class RoutingGrid(namedtuple("RoutingGrid", "name xgrid ygrid xtracks ytracks viamap")):
    """Periodic x/y track grids with one Track record per coordinate.

    x tracks carry vertical wires, y tracks horizontal ones. viamap holds the
    via-definition name for every (x track, y track) intersection, or None
    where the layer pair has no via.
    """

    __slots__ = ()

    def __new__(cls, name: str, xgrid: OneDimGrid, ygrid: OneDimGrid, xtracks: CircularMapping,
                ytracks: CircularMapping, viamap: CircularMappingArray) -> "RoutingGrid":
        shape = (len(xgrid.coords), len(ygrid.coords))
        if (len(xtracks), len(ytracks)) != shape:
            raise ValueError("track records do not match their axes")
        if viamap.shape != shape:
            raise ValueError("viamap shape does not match the axes")
        return cls._make((name, xgrid, ygrid, xtracks, ytracks, viamap))

    def _replace(self, **fields) -> "RoutingGrid":
        """A copy with `fields` replaced, built and checked like a new record."""
        return type(self)(**{**self._asdict(), **fields})


class IndexWindow(namedtuple("IndexWindow", "x0 x1 y0 y1")):
    """Inclusive abstract index ranges on both axes."""

    __slots__ = ()


def overlap_range(g: RoutingGrid, a: Rect, b: Rect) -> IndexWindow | None:
    """Abstract index window of grid points inside intersection(a, b).

    Boundary counts: a grid line on the intersection edge is included.
    Returns None when the rects are apart or no grid point falls inside.
    """
    box = a.intersection(b)
    if box is None:
        return None
    x0 = g.xgrid.index_where(">=", box.x0)
    x1 = g.xgrid.index_where("<=", box.x1)
    y0 = g.ygrid.index_where(">=", box.y0)
    y1 = g.ygrid.index_where("<=", box.y1)
    if x0 > x1 or y0 > y1:
        return None
    return IndexWindow(x0, x1, y0, y1)


def _landing_pitch(tech: "TechDB", layer: str, horizontal: bool) -> int:
    """Pitch needed so via landings on adjacent tracks keep min spacing.

    Taken along the axis perpendicular to the track: the landing pad's
    extent plus the layer's min spacing; zero when no via touches the layer.
    """
    best = 0
    for via in tech.vias.values():
        if layer not in (via.lower, via.upper):
            continue
        pad = via.pad(layer)
        best = max(best, (pad.height if horizontal else pad.width) + tech.layer(layer).min_spacing)
    return best


def _build_axis(
    tech: "TechDB", specs: tuple[TrackSpec, ...], horizontal: bool
) -> tuple[OneDimGrid, list[Track]]:
    if not specs:
        raise InfeasibleSpec("empty track pattern")
    pitches: list[int] = []
    tracks: list[Track] = []
    for k, t in enumerate(specs):
        rule = tech.layer(t.layer)
        width = rule.min_width * (t.wmul if t.kind == "power" else 1)
        pitch = max(width + rule.min_spacing, _landing_pitch(tech, t.layer, horizontal))
        pitches.append(pitch + pitch % 2)  # keep slot centers integral
        if not rule.colorable or t.color == "none":
            color = None
        else:
            color = t.color or "AB"[k % 2]
        tracks.append(Track(t.layer, width, color))
    # Center each track in its pitch slot, then shift the pattern so the
    # first track sits at coordinate 0.
    starts = accumulate(pitches, initial=-(pitches[0] // 2))
    coords = tuple(s + p // 2 for s, p in zip(starts, pitches))
    return OneDimGrid(period=sum(pitches), coords=coords), tracks


def generate_routing_grid(tech: "TechDB", spec: GridSpec, region: Rect) -> RoutingGrid:
    """Realize a grid spec against a technology over a region.

    Track pitch is max(min_width*wmul + min_spacing, via-landing pitch) per
    track; the grid period is one full cycle of the pattern; tracks are
    centered in their pitch slots with the first track normalized to 0. The
    result is anchored at the global origin and extends periodically, so the
    region only bounds feasibility (the cycle must fit inside it).
    """
    for t in spec.xtracks + spec.ytracks:
        if t.layer not in tech.layers:
            raise UnknownLayer(t.layer)
    if region.width <= 0 or region.height <= 0:
        raise InfeasibleSpec("empty region")
    xgrid, xtracks = _build_axis(tech, spec.xtracks, horizontal=False)
    ygrid, ytracks = _build_axis(tech, spec.ytracks, horizontal=True)
    if xgrid.period > region.width or ygrid.period > region.height:
        raise InfeasibleSpec(
            f"pattern cycle {xgrid.period}x{ygrid.period} exceeds region "
            f"{region.width}x{region.height}"
        )
    viamap = CircularMappingArray(
        [
            [
                (v.name if (v := tech.via_between(xt.layer, yt.layer)) is not None else None)
                for yt in ytracks
            ]
            for xt in xtracks
        ]
    )
    return RoutingGrid(
        spec.name, xgrid, ygrid, CircularMapping(xtracks), CircularMapping(ytracks), viamap
    )
