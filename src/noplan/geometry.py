"""2D geometric primitives and the triangle-intersection collision kernel.

All predicates use plain double precision. Touching counts as intersection
(closed-set semantics), so borderline contacts resolve toward "collision".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePolygon, InvalidPolygon


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


@dataclass(frozen=True)
class Triangle2:
    a: Point2
    b: Point2
    c: Point2

    def signed_area(self) -> float:
        return 0.5 * (
            (self.b.x - self.a.x) * (self.c.y - self.a.y)
            - (self.c.x - self.a.x) * (self.b.y - self.a.y)
        )

    def area(self) -> float:
        return abs(self.signed_area())

    def raw(self) -> tuple:
        """Flat coordinate tuple used by the hot-path intersection tests."""
        return (self.a.x, self.a.y, self.b.x, self.b.y, self.c.x, self.c.y)


def shoelace_area(vertices) -> float:
    """Signed area of a closed vertex ring (positive for CCW).

    Sums the fan of triangles from the first vertex, in coordinates relative
    to it: products of absolute coordinates would cancel far from the origin.
    """
    o = vertices[0]
    s = 0.0
    for p, q in zip(vertices[1:-1], vertices[2:]):
        s += (p.x - o.x) * (q.y - o.y) - (q.x - o.x) * (p.y - o.y)
    return 0.5 * s


def _segments_properly_cross(p1, p2, p3, p4) -> bool:
    # strict crossing of open segments; shared endpoints do not count
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    return False


def _orient(a, b, c) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(a, b, p) -> bool:
    if _orient(a, b, p) != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


class Polygon2:
    """Simple polygon with counter-clockwise vertex order.

    Orientation and simplicity are validated at construction; both are
    required by the triangulator and the scenario loader.
    """

    def __init__(self, vertices):
        verts = [v if isinstance(v, Point2) else Point2(float(v[0]), float(v[1])) for v in vertices]
        if len(verts) < 3:
            raise DegeneratePolygon("polygon needs at least 3 vertices")
        for v in verts:
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise InvalidPolygon("polygon vertex is not finite")
        area = shoelace_area(verts)
        if area == 0.0:
            raise DegeneratePolygon("polygon has zero area")
        if area < 0.0:
            raise InvalidPolygon("polygon orientation: vertices must be counter-clockwise")
        self.vertices = verts
        self._check_simple()

    def _check_simple(self):
        v = self.vertices
        n = len(v)
        for i in range(n):
            a1, a2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = v[j], v[(j + 1) % n]
                if _segments_properly_cross(a1, a2, b1, b2):
                    raise InvalidPolygon("polygon self-intersection")
                # non-adjacent edges may not touch either
                if _on_segment(a1, a2, b1) or _on_segment(a1, a2, b2) or \
                        _on_segment(b1, b2, a1) or _on_segment(b1, b2, a2):
                    raise InvalidPolygon("polygon self-intersection")

    def area(self) -> float:
        return shoelace_area(self.vertices)

    def bbox(self):
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def triangulate(poly: Polygon2) -> list[Triangle2]:
    """Ear-clipping triangulation of a simple CCW polygon.

    Returns exactly ``len(vertices) - 2`` triangles whose areas sum to the
    polygon area.
    """
    verts = list(poly.vertices)
    if len(verts) < 3:
        raise DegeneratePolygon("polygon needs at least 3 vertices")
    tris: list[Triangle2] = []
    idx = list(range(len(verts)))
    while len(idx) > 3:
        clipped = False
        for k in range(len(idx)):
            i0 = idx[(k - 1) % len(idx)]
            i1 = idx[k]
            i2 = idx[(k + 1) % len(idx)]
            a, b, c = verts[i0], verts[i1], verts[i2]
            if _orient(a, b, c) < 0.0:
                continue  # reflex corner, not an ear
            ear_clear = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _point_strictly_in_triangle(verts[j], a, b, c):
                    ear_clear = False
                    break
            if ear_clear:
                tris.append(Triangle2(a, b, c))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise DegeneratePolygon("ear clipping failed; polygon likely degenerate")
    a, b, c = (verts[i] for i in idx)
    tris.append(Triangle2(a, b, c))
    return tris


def _point_strictly_in_triangle(p, a, b, c) -> bool:
    d1 = _orient(a, b, p)
    d2 = _orient(b, c, p)
    d3 = _orient(c, a, p)
    return d1 > 0.0 and d2 > 0.0 and d3 > 0.0


def _project_raw(raw, nx, ny):
    d0 = raw[0] * nx + raw[1] * ny
    d1 = raw[2] * nx + raw[3] * ny
    d2 = raw[4] * nx + raw[5] * ny
    if d0 > d1:
        d0, d1 = d1, d0
    if d0 > d2:
        lo = d2
    else:
        lo = d0
    if d1 < d2:
        hi = d2
    else:
        hi = d1
    return lo, hi


def raw_tri_intersects(r1: tuple, r2: tuple) -> bool:
    """Separating-axis test on flat coordinate tuples (closed triangles)."""
    for ra, rb in ((r1, r2), (r2, r1)):
        ax0, ay0, ax1, ay1, ax2, ay2 = ra
        for ex, ey, fx, fy in (
            (ax0, ay0, ax1, ay1),
            (ax1, ay1, ax2, ay2),
            (ax2, ay2, ax0, ay0),
        ):
            nx = ey - fy
            ny = fx - ex
            lo1, hi1 = _project_raw(ra, nx, ny)
            lo2, hi2 = _project_raw(rb, nx, ny)
            if hi1 < lo2 or hi2 < lo1:
                return False
    return True


def point_in_polygon(p: Point2, poly: Polygon2) -> bool:
    """Ray-casting containment test; points on the boundary count as inside."""
    verts = poly.vertices
    n = len(verts)
    inside = False
    px, py = p.x, p.y
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if _on_segment(a, b, p):
            return True
        if (a.y > py) != (b.y > py):
            x_cross = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
            if px < x_cross:
                inside = not inside
    return inside
