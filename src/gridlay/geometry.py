"""Integer-exact points, rectangles, and the four orthogonal transforms.

All coordinates are integers in design units (1 unit = 1 nm by default), so
every operation here is exact; there is no floating point anywhere in the
geometry path. Values are immutable and safe to share between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

# Rectangle purposes. "drawing" is plain geometry; "pin" marks label shapes
# (exported on datatype+1 and skipped by the spacing checker); "cut" marks
# cut-mask shapes; "dummy" marks fill geometry; colorA/colorB are the two
# patterning masks of a colorable layer.
PURPOSES = ("drawing", "pin", "cut", "dummy", "colorA", "colorB")


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)


class Transform(enum.Enum):
    """One of the four orthogonal orientations.

    Each one is a diagonal sign matrix diag(sx, sy), so the set is closed
    under composition and forms a group isomorphic to Z2 x Z2.
    R90-family orientations are deliberately unsupported: row-based layout
    styles never need them.
    """

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


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle on a layer, normalized so lo <= hi."""

    layer: str
    lo: Point
    hi: Point
    purpose: str = "drawing"

    def __post_init__(self):
        if self.purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {self.purpose!r}")
        lo = Point(min(self.lo.x, self.hi.x), min(self.lo.y, self.hi.y))
        hi = Point(max(self.lo.x, self.hi.x), max(self.lo.y, self.hi.y))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def of_row(layer: str, x0: int, y0: int, x1: int, y1: int, purpose: str) -> "Rect":
        """The rect of a flat row's box, which is normalized and carries a
        known purpose, so the rect skips __post_init__."""
        out = object.__new__(Rect)
        out.__dict__.update(layer=layer, lo=Point(x0, y0), hi=Point(x1, y1), purpose=purpose)
        return out

    @property
    def width(self) -> int:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> int:
        return self.hi.y - self.lo.y

    def translated(self, d: Point) -> "Rect":
        # A shift keeps lo <= hi and the purpose, so the copy skips
        # __post_init__: flattening translates every placed rect.
        out = object.__new__(Rect)
        out.__dict__.update(layer=self.layer, lo=self.lo + d, hi=self.hi + d, purpose=self.purpose)
        return out

    def with_purpose(self, purpose: str) -> "Rect":
        return replace(self, purpose=purpose)

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap box, boundary included; None when the rects are apart.

        A shared edge yields a degenerate (zero-width/height) rectangle,
        which callers that need positive-area overlap must reject themselves.
        """
        lo = Point(max(self.lo.x, other.lo.x), max(self.lo.y, other.lo.y))
        hi = Point(min(self.hi.x, other.hi.x), min(self.hi.y, other.hi.y))
        if lo.x > hi.x or lo.y > hi.y:
            return None
        return Rect(self.layer, lo, hi, self.purpose)


def apply_rect(t: Transform, r: Rect) -> Rect:
    """Transform both corners and re-normalize."""
    return replace(r, lo=apply(t, r.lo), hi=apply(t, r.hi))

