import math

import numpy as np
import pytest

from noplan.errors import DegeneratePolygon, InvalidPolygon
from noplan.geometry import (
    Point2,
    Polygon2,
    Triangle2,
    point_in_polygon,
    raw_tri_intersects,
    shoelace_area,
    triangulate,
)

from support import square


def tri(*coords):
    pts = [Point2(x, y) for x, y in coords]
    return Triangle2(*pts)


def random_polygon(rng, sides, radius=1.0):
    # angular gaps spanning the full circle keep the origin inside, which
    # makes the star-shaped vertex ring simple and counter-clockwise
    gaps = rng.uniform(0.2, 1.0, sides)
    angles = np.cumsum(gaps) * 2 * math.pi / gaps.sum()
    radii = rng.uniform(0.4 * radius, radius, sides)
    return Polygon2([(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)])


def segments_cross(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    )


def point_in_closed_triangle(p, t):
    def orient(a, b, c):
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    d1 = orient(t.a, t.b, p)
    d2 = orient(t.b, t.c, p)
    d3 = orient(t.c, t.a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def tris_intersect_oracle(t1, t2):
    """Independent closed-intersection test: proper edge crossings or a
    vertex of one triangle inside (or on) the other."""
    e1 = [(t1.a, t1.b), (t1.b, t1.c), (t1.c, t1.a)]
    e2 = [(t2.a, t2.b), (t2.b, t2.c), (t2.c, t2.a)]
    for a, b in e1:
        for c, d in e2:
            if segments_cross((a.x, a.y), (b.x, b.y), (c.x, c.y), (d.x, d.y)):
                return True
    return any(point_in_closed_triangle(v, t2) for v in (t1.a, t1.b, t1.c)) or any(
        point_in_closed_triangle(v, t1) for v in (t2.a, t2.b, t2.c)
    )


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(DegeneratePolygon):
            Polygon2([(0, 0), (1, 0)])

    def test_zero_area(self):
        with pytest.raises(DegeneratePolygon):
            Polygon2([(0, 0), (1, 1), (2, 2)])

    def test_clockwise_rejected(self):
        with pytest.raises(InvalidPolygon, match="orientation"):
            Polygon2([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_self_intersection_rejected(self):
        # positive net area, but one edge pair crosses
        with pytest.raises(InvalidPolygon, match="self-intersection"):
            Polygon2([(0, 0), (3, 0), (0, 2), (2, 3)])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidPolygon):
            Polygon2([(0, 0), (1, 0), (math.nan, 1)])

    def test_valid_square(self):
        p = Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert p.area() == pytest.approx(1.0)
        assert p.bbox() == (0, 0, 1, 1)
        # Squares 0.004 and 0.02 across, far from the origin: products of
        # absolute coordinates would cancel to zero area and to 0.000366.
        for side in (0.004, 0.02):
            far = square(999995.586, 999998.361, side / 2)
            assert far.area() == pytest.approx(side * side, rel=1e-6)


class TestTriangulate:
    def test_triangle_count(self):
        rng = np.random.default_rng(7)
        for sides in range(3, 10):
            poly = random_polygon(rng, sides)
            tris = triangulate(poly)
            assert len(tris) == sides - 2

    def test_area_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            poly = random_polygon(rng, int(rng.integers(3, 9)))
            tris = triangulate(poly)
            total = sum(t.area() for t in tris)
            assert total == pytest.approx(abs(shoelace_area(poly.vertices)), rel=1e-9)

    def test_concave_polygon(self):
        poly = Polygon2([(0, 0), (4, 0), (4, 3), (2, 1), (0, 3)])
        tris = triangulate(poly)
        assert len(tris) == 3
        assert sum(t.area() for t in tris) == pytest.approx(poly.area(), rel=1e-9)

    def test_pieces_stay_inside(self):
        poly = Polygon2([(0, 0), (4, 0), (4, 3), (2, 1), (0, 3)])
        for t in triangulate(poly):
            cx = (t.a.x + t.b.x + t.c.x) / 3
            cy = (t.a.y + t.b.y + t.c.y) / 3
            assert point_in_polygon(Point2(cx, cy), poly)


class TestTriIntersects:
    def test_separated(self):
        t1 = tri((0, 0), (1, 0), (0, 1))
        t2 = tri((5, 5), (6, 5), (5, 6))
        assert not raw_tri_intersects(t1.raw(), t2.raw())

    def test_overlapping(self):
        t1 = tri((0, 0), (2, 0), (0, 2))
        t2 = tri((0.5, 0.5), (3, 0.5), (0.5, 3))
        assert raw_tri_intersects(t1.raw(), t2.raw())

    def test_touching_edge_counts(self):
        t1 = tri((0, 0), (1, 0), (0, 1))
        t2 = tri((1, 0), (2, 0), (1, 1))
        assert raw_tri_intersects(t1.raw(), t2.raw())

    def test_touching_vertex_counts(self):
        t1 = tri((0, 0), (1, 0), (0, 1))
        t2 = tri((1, 1), (2, 1), (1, 2))
        t3 = tri((0, 1), (1, 1), (0, 2))
        assert not raw_tri_intersects(t1.raw(), t2.raw())
        assert raw_tri_intersects(t1.raw(), t3.raw())

    def test_containment(self):
        outer = tri((0, 0), (10, 0), (0, 10))
        inner = tri((1, 1), (2, 1), (1, 2))
        assert raw_tri_intersects(outer.raw(), inner.raw())
        assert raw_tri_intersects(inner.raw(), outer.raw())

    def test_symmetry_and_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(3000):
            coords = rng.uniform(-2, 2, 12)
            t1 = tri(*coords[:6].reshape(3, 2))
            t2 = tri(*coords[6:].reshape(3, 2))
            if abs(t1.signed_area()) < 1e-3 or abs(t2.signed_area()) < 1e-3:
                continue
            got = raw_tri_intersects(t1.raw(), t2.raw())
            assert got == raw_tri_intersects(t2.raw(), t1.raw())
            assert got == tris_intersect_oracle(t1, t2)


class TestPointInPolygon:
    def test_interior_exterior(self):
        sq = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert point_in_polygon(Point2(1, 1), sq)
        assert not point_in_polygon(Point2(3, 1), sq)

    def test_boundary_counts_inside(self):
        sq = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert point_in_polygon(Point2(0, 0), sq)
        assert point_in_polygon(Point2(1, 0), sq)
        assert point_in_polygon(Point2(2, 1), sq)

    def test_concave_notch(self):
        poly = Polygon2([(0, 0), (4, 0), (4, 3), (2, 1), (0, 3)])
        assert not point_in_polygon(Point2(2, 2), poly)
        assert point_in_polygon(Point2(1, 0.5), poly)

    def test_convex_halfplane_oracle(self):
        rng = np.random.default_rng(5)
        hexagon = Polygon2(
            [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]]
        )
        verts = hexagon.vertices
        for _ in range(500):
            p = Point2(*rng.uniform(-1.5, 1.5, 2))
            inside = all(
                (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) >= -1e-12
                for a, b in zip(verts, verts[1:] + verts[:1])
            )
            assert point_in_polygon(p, hexagon) == inside
