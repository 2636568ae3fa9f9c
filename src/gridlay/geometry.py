"""Integer-exact points, rectangles, and the four orthogonal transforms.

All coordinates are integers in design units (1 unit = 1 nm by default), so
every operation here is exact; there is no floating point anywhere in the
geometry path. Values are immutable and safe to share between threads.
"""

from __future__ import annotations

import enum
from collections import namedtuple

# The patterning masks in alternation order -> the purpose of their shapes.
MASKS = {"A": "colorA", "B": "colorB"}
# Purpose -> GDS datatype offset on the layer's base datatype. The spacing
# checker skips "pin" shapes; "cut" shapes are drawn on their cut layer.
DATATYPE_OFFSET = {"drawing": 0, "pin": 1, "cut": 0, "dummy": 4, "colorA": 2, "colorB": 3}
PURPOSES = tuple(DATATYPE_OFFSET)

_tuple_new = tuple.__new__  # a tuple record from its items, without its own __new__


def _checked_replace(self, **fields):
    """A copy with `fields` replaced, built and checked like a new record."""
    return type(self)(**{**self._asdict(), **fields})


class Point(namedtuple("Point", "x y")):
    """An integer (x, y) pair; `+` and `-` act on it as a vector."""

    __slots__ = ()

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)


class Transform(enum.Enum):
    """One of the four orthogonal orientations.

    Each one is a diagonal sign matrix diag(sx, sy), so the set is closed
    under composition and forms a group isomorphic to Z2 x Z2.
    R90-family orientations are deliberately unsupported: row-based layout
    styles never need them. Members are singletons that compare by
    identity, so they hash by identity too, in C rather than enum's Python
    `__hash__`.
    """

    __hash__ = object.__hash__

    R0 = "R0"
    MX = "MX"      # mirror about the x-axis (y sign flips)
    MY = "MY"      # mirror about the y-axis (x sign flips)
    R180 = "R180"


# The sign pair (sx, sy) of each orientation: its matrix is diag(sx, sy).
_SIGNS: dict[Transform, tuple[int, int]] = {
    Transform.R0: (1, 1),
    Transform.MX: (1, -1),
    Transform.MY: (-1, 1),
    Transform.R180: (-1, -1),
}
_OF_SIGNS = {signs: t for t, signs in _SIGNS.items()}


def compose(outer: Transform, inner: Transform) -> Transform:
    """Orientation equal to applying `inner`, then `outer`."""
    (ax, ay), (bx, by) = _SIGNS[outer], _SIGNS[inner]
    return _OF_SIGNS[(ax * bx, ay * by)]


def apply(t: Transform, p: Point) -> Point:
    """Apply an orientation to a point: (sx * x, sy * y)."""
    sx, sy = _SIGNS[t]
    return Point(sx * p.x, sy * p.y)


class Rect(namedtuple("Row", "layer x0 y0 x1 y1 purpose")):
    """An axis-aligned rectangle on a layer: the flat row (layer, x0, y0, x1,
    y1, purpose) with x0 <= x1 and y0 <= y1.

    `Rect(layer, lo, hi, purpose)` orders the corners and checks the purpose.
    `Rect._make(row)` takes a row that is already normalized and carries a
    known purpose, and checks nothing.
    """

    __slots__ = ()

    def __new__(cls, layer: str, lo: Point, hi: Point, purpose: str = "drawing") -> "Rect":
        if purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {purpose!r}")
        return cls._make((layer, min(lo.x, hi.x), min(lo.y, hi.y), max(lo.x, hi.x),
                          max(lo.y, hi.y), purpose))

    def __getnewargs__(self):
        # copy and pickle pass these to __new__
        return self.layer, self.lo, self.hi, self.purpose

    @property
    def lo(self) -> Point:
        return _tuple_new(Point, self[1:3])

    @property
    def hi(self) -> Point:
        return _tuple_new(Point, self[3:5])

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def translated(self, d: Point) -> "Rect":
        layer, x0, y0, x1, y1, purpose = self
        return Rect._make((layer, x0 + d.x, y0 + d.y, x1 + d.x, y1 + d.y, purpose))

    def with_purpose(self, purpose: str) -> "Rect":
        return Rect(self.layer, self.lo, self.hi, purpose)

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap box, boundary included; None when the rects are apart.

        A shared edge yields a degenerate (zero-width/height) rectangle,
        which callers that need positive-area overlap must reject themselves.
        """
        x0, y0 = max(self.x0, other.x0), max(self.y0, other.y0)
        x1, y1 = min(self.x1, other.x1), min(self.y1, other.y1)
        if x0 > x1 or y0 > y1:
            return None
        return Rect._make((self.layer, x0, y0, x1, y1, self.purpose))


def apply_rect(t: Transform, r: Rect) -> Rect:
    """Transform both corners and re-normalize."""
    return Rect(r.layer, apply(t, r.lo), apply(t, r.hi), r.purpose)
