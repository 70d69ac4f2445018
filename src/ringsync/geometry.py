"""Geometric primitives: circles, closed polyline paths, link positions, distances.

Angles are radians, normalized to [0, 2*pi). Undirected line angles live in
[0, pi). Closed paths are simple polygons parameterized by arc length,
s in [0, length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DegenerateGeometryError, OverlappingTrajectoriesError

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute tolerance for angle comparisons.
ANGLE_TOL = 1e-9


def norm_angle(a: float) -> float:
    """Normalize an angle to [0, 2*pi); NaN stays NaN."""
    a = math.fmod(a, TWO_PI)
    if a < 0:
        a += TWO_PI
    return 0.0 if a == TWO_PI else a


def norm_line_angle(a: float) -> float:
    """Reduce a direction angle mod pi to [0, pi); NaN stays NaN."""
    a = math.fmod(a, math.pi)
    if a < 0:
        a += math.pi
    return 0.0 if a == math.pi else a


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DegenerateGeometryError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.radius, (int, float)) and self.radius > 0):
            raise DegenerateGeometryError(f"circle radius must be positive, got {self.radius}")

    def point_at(self, angle: float) -> Point2:
        """Point on the circle at the given angle from the positive x axis."""
        return Point2(self.center.x + self.radius * math.cos(angle),
                      self.center.y + self.radius * math.sin(angle))


def link_positions(ci: Circle, cj: Circle) -> tuple[float, float]:
    """Angles at which each circle is closest to the other.

    Returns (phi_ij, phi_ji) with phi_ij the direction angle from ci's center
    toward cj's center and phi_ji = phi_ij + pi (mod 2*pi).
    """
    dx = cj.center.x - ci.center.x
    dy = cj.center.y - ci.center.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateGeometryError("coincident circle centers")
    phi_ij = norm_angle(math.atan2(dy, dx))
    phi_ji = norm_angle(phi_ij + math.pi)
    return phi_ij, phi_ji


def _seg_seg_closest(p1, p2, q1, q2):
    """Closest points of two segments.

    Returns (distance, t, u) where t and u are the arc-length offsets of the
    closest points from p1 and q1 respectively.
    """
    import numpy as np
    # Candidate set: the four endpoint-to-segment projections.  For disjoint
    # segments the minimum is always attained at one of these.
    best = None
    for (a, b, p, swap) in ((p1, p2, q1, True), (p1, p2, q2, True),
                            (q1, q2, p1, False), (q1, q2, p2, False)):
        ab = b - a
        ab2 = float(ab @ ab)
        t = 0.0 if ab2 == 0.0 else min(max(float((p - a) @ ab), 0.0), ab2) / ab2
        # a clamped point is the endpoint itself: a + 1.0 * ab can miss b
        closest = a if t == 0.0 else b if t == 1.0 else a + t * ab
        d = float(np.hypot(*(p - closest)))
        seg_len = math.sqrt(ab2)
        if swap:
            # p is on segment q; offset of p from q1
            off_q = 0.0 if p is q1 else float(np.hypot(*(p - q1)))
            cand = (d, t * seg_len, off_q)
        else:
            off_p = 0.0 if p is p1 else float(np.hypot(*(p - p1)))
            cand = (d, off_p, t * seg_len)
        if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1:] < best[1:]):
            best = cand
    return best


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _segments_intersect(p1, p2, q1, q2) -> bool:
    d1 = _cross2(p2 - p1, q1 - p1)
    d2 = _cross2(p2 - p1, q2 - p1)
    d3 = _cross2(q2 - q1, p1 - q1)
    d4 = _cross2(q2 - q1, p2 - q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, p):
        return (_cross2(b - a, p - a) == 0
                and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    return (on_seg(p1, p2, q1) or on_seg(p1, p2, q2)
            or on_seg(q1, q2, p1) or on_seg(q1, q2, p2))


@dataclass
class ClosedPath:
    """Simple closed polyline with arc-length parameterization."""

    vertices: np.ndarray  # shape (n, 2), implicitly closed (last connects to first)
    seg_lengths: np.ndarray = field(init=False, repr=False)
    cum_lengths: np.ndarray = field(init=False, repr=False)
    length: float = field(init=False)

    def __post_init__(self):
        import numpy as np
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise DegenerateGeometryError("closed path needs at least 3 vertices of dim 2")
        if not np.all(np.isfinite(v)):
            raise DegenerateGeometryError("non-finite path vertex")
        self.vertices = v
        diffs = np.roll(v, -1, axis=0) - v
        self.seg_lengths = np.hypot(diffs[:, 0], diffs[:, 1])
        if np.any(self.seg_lengths == 0):
            raise DegenerateGeometryError("zero-length path segment")
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(self.seg_lengths)])
        self.length = float(self.cum_lengths[-1])
        self._check_simple()

    def _check_simple(self):
        n = len(self.vertices)
        for i in range(n):
            p1, p2 = self.vertices[i], self.vertices[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # shared endpoint with an adjacent segment
                q1, q2 = self.vertices[j], self.vertices[(j + 1) % n]
                if _segments_intersect(p1, p2, q1, q2):
                    raise DegenerateGeometryError(
                        f"self-intersecting path (segments {i} and {j})")

    def segments(self):
        n = len(self.vertices)
        for i in range(n):
            yield i, self.vertices[i], self.vertices[(i + 1) % n]

    def position_at(self, s: float) -> Point2:
        """Point at arc length s from vertex 0 (s taken mod length)."""
        import numpy as np
        s = math.fmod(s, self.length)
        if s < 0:
            s += self.length
        idx = int(np.searchsorted(self.cum_lengths, s, side="right") - 1)
        idx = min(idx, len(self.seg_lengths) - 1)
        t = (s - self.cum_lengths[idx]) / self.seg_lengths[idx]
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % len(self.vertices)]
        p = a + t * (b - a)
        return Point2(float(p[0]), float(p[1]))


def min_distance(pi: ClosedPath, pj: ClosedPath) -> tuple[float, float, float]:
    """Minimum distance between two disjoint closed paths.

    Returns (distance, s_i, s_j): the distance and the arc-length parameters
    of the closest point on each path.  Ties are broken by the
    lexicographically smallest (s_i, s_j).
    """
    best = None
    for i, a1, a2 in pi.segments():
        for j, b1, b2 in pj.segments():
            if _segments_intersect(a1, a2, b1, b2):
                raise OverlappingTrajectoriesError(
                    f"paths intersect (segments {i} and {j})")
            d, ti, tj = _seg_seg_closest(a1, a2, b1, b2)
            si = float(pi.cum_lengths[i] + ti)
            sj = float(pj.cum_lengths[j] + tj)
            if si >= pi.length:
                si -= pi.length
            if sj >= pj.length:
                sj -= pj.length
            cand = (d, si, sj)
            if best is None or d < best[0] - 1e-12:
                best = cand
            elif abs(d - best[0]) <= 1e-12 and (si, sj) < (best[1], best[2]):
                best = (best[0], si, sj)
    return best


def line_angle_points(p: Point2, q: Point2) -> float:
    """Undirected angle in [0, pi) of the line through two points."""
    dx, dy = q.x - p.x, q.y - p.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateGeometryError("coincident points")
    return norm_line_angle(math.atan2(dy, dx))
