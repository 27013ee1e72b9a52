"""Robot models, forward kinematics, and collision checking with causes.

Two robot kinds are supported: a rigid body moving in SE(2) and a planar
serial chain of rectangular links joined by revolute joints. Collision
checks return not just a boolean but the cause, ordered by how many bitmap
cells the cause lets the sampler mark at once:

    BaseInObstacle > ObstacleHit(smallest link) > SelfHit
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfiguration, ValidationError
from .geometry import (
    Point2,
    Polygon2,
    point_in_polygon,
    raw_tri_intersects,
    triangulate,
)

DEFAULT_WIDTH_RATIO = 0.05


@dataclass(frozen=True)
class ObstacleHit:
    """Robot/obstacle contact; ``link`` is the smallest colliding link (1-based)."""

    link: int
    obstacle: int


@dataclass(frozen=True)
class SelfHit:
    """Contact between two non-adjacent links, 1-based, link_a < link_b."""

    link_a: int
    link_b: int


@dataclass(frozen=True)
class BaseInObstacle:
    """Reference point of a rigid body sits inside an obstacle."""

    obstacle: int


@dataclass(frozen=True)
class CollisionReport:
    cause: object = None

    @property
    def colliding(self) -> bool:
        return self.cause is not None


FREE = CollisionReport()


class PreparedObstacles:
    """Obstacle polygons with cached triangulations and bounding boxes."""

    def __init__(self, polygons):
        self.polygons = list(polygons)
        self.tri_raws = []
        self.bboxes = []
        for p in self.polygons:
            tris = triangulate(p)
            self.tri_raws.append([t.raw() for t in tris])
            self.bboxes.append(p.bbox())


def _raws_bbox(raws):
    xs = []
    ys = []
    for r in raws:
        xs.extend((r[0], r[2], r[4]))
        ys.extend((r[1], r[3], r[5]))
    return min(xs), min(ys), max(xs), max(ys)


def _raws_hit_obstacle(raws, box, obs: PreparedObstacles):
    """Index of the first obstacle intersecting the triangle soup, or None."""
    x0, y0, x1, y1 = box
    for oi, (ox0, oy0, ox1, oy1) in enumerate(obs.bboxes):
        if x1 < ox0 or ox1 < x0 or y1 < oy0 or oy1 < y0:
            continue
        for ra in raws:
            for rb in obs.tri_raws[oi]:
                if raw_tri_intersects(ra, rb):
                    return oi
    return None


@dataclass(frozen=True)
class Link:
    length: float
    width: float

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError(f"link length must be positive and finite, got {self.length}")
        if not 0 < self.width < math.inf:
            raise ValidationError(f"link width must be positive and finite, got {self.width}")


class SerialChain:
    """Planar chain of rectangular links hinged end-to-end by revolute joints.

    Joint k rotates link k; world angle of link k is the sum of the first k
    joint angles. A joint without limits covers the full circle and wraps.
    """

    kind = "serial_chain"

    def __init__(self, base: Point2, links, joint_limits=None):
        self.base = base if isinstance(base, Point2) else Point2(*base)
        if not (math.isfinite(self.base.x) and math.isfinite(self.base.y)):
            raise ValidationError(f"chain base must be finite, got {self.base}")
        built = []
        for spec in links:
            if isinstance(spec, Link):
                built.append(spec)
            elif isinstance(spec, (int, float)):
                built.append(Link(float(spec), DEFAULT_WIDTH_RATIO * float(spec)))
            else:
                length, width = spec
                built.append(Link(float(length), float(width)))
        if not built:
            raise ValidationError("chain needs at least one link")
        self.links = tuple(built)
        if joint_limits is None:
            joint_limits = [None] * len(built)
        if len(joint_limits) != len(built):
            raise ValidationError("one joint limit entry per link required")
        lims = []
        for lim in joint_limits:
            if lim is None:
                lims.append(None)
            else:
                lo, hi = float(lim[0]), float(lim[1])
                if not -math.inf < lo < hi < math.inf:
                    raise ValidationError(f"joint limits must be finite with lo < hi, got {lim}")
                lims.append((lo, hi))
        self.joint_limits = tuple(lims)

    @property
    def dof(self) -> int:
        return len(self.links)

    def reach(self) -> float:
        return sum(l.length for l in self.links)

    def truncated(self, k: int) -> "SerialChain":
        """Chain restricted to its first k links.

        The truncated robot occupies a subset of the full robot's volume, so
        an infeasibility proof for it carries over to the full chain.
        """
        if not 1 <= k <= self.dof:
            raise ValidationError(f"truncation wants 1..{self.dof} links, got {k}")
        return SerialChain(self.base, self.links[:k], self.joint_limits[:k])

    def _validate(self, q):
        if len(q) != self.dof:
            raise InvalidConfiguration(
                f"configuration has {len(q)} values, chain has {self.dof} joints"
            )
        for i, lim in enumerate(self.joint_limits):
            if lim is not None and not lim[0] <= q[i] <= lim[1]:
                raise InvalidConfiguration(
                    f"joint {i + 1}: angle {q[i]} outside limits [{lim[0]}, {lim[1]}]"
                )

    def link_raws(self, q) -> list:
        """Per-link triangle soups (two raw triangles per rectangle)."""
        self._validate(q)
        out = []
        angle = 0.0
        jx, jy = self.base.x, self.base.y
        for k, link in enumerate(self.links):
            angle += q[k]
            c, s = math.cos(angle), math.sin(angle)
            ex, ey = jx + link.length * c, jy + link.length * s
            hx, hy = -s * 0.5 * link.width, c * 0.5 * link.width
            p0 = (jx + hx, jy + hy)
            p1 = (jx - hx, jy - hy)
            p2 = (ex - hx, ey - hy)
            p3 = (ex + hx, ey + hy)
            out.append(
                [
                    (p0[0], p0[1], p1[0], p1[1], p2[0], p2[1]),
                    (p0[0], p0[1], p2[0], p2[1], p3[0], p3[1]),
                ]
            )
            jx, jy = ex, ey
        return out

    def collision_check(self, q, obs: PreparedObstacles) -> CollisionReport:
        per_link = self.link_raws(q)
        boxes = [_raws_bbox(raws) for raws in per_link]
        for k, raws in enumerate(per_link):
            oi = _raws_hit_obstacle(raws, boxes[k], obs)
            if oi is not None:
                return CollisionReport(ObstacleHit(k + 1, oi))
        for i in range(self.dof):
            bi = boxes[i]
            for j in range(i + 2, self.dof):
                bj = boxes[j]
                if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
                    continue
                for ra in per_link[i]:
                    for rb in per_link[j]:
                        if raw_tri_intersects(ra, rb):
                            return CollisionReport(SelfHit(i + 1, j + 1))
        return FREE


class RigidSE2:
    """Rigid polygonal body translating and rotating in the plane.

    Configurations are (x, y, phi): the reference point moves to (x, y) and
    the body rotates by phi about it. The reference point must lie inside
    the body so that a reference point buried in an obstacle implies
    collision at every orientation.
    """

    kind = "rigid_se2"

    def __init__(self, body: Polygon2, reference_point: Point2):
        ref = (
            reference_point
            if isinstance(reference_point, Point2)
            else Point2(*reference_point)
        )
        if not point_in_polygon(ref, body):
            raise ValidationError("reference point must lie inside the body polygon")
        self.body = body
        self.reference_point = ref
        self._rel = [
            (
                t.a.x - ref.x,
                t.a.y - ref.y,
                t.b.x - ref.x,
                t.b.y - ref.y,
                t.c.x - ref.x,
                t.c.y - ref.y,
            )
            for t in triangulate(body)
        ]

    @property
    def dof(self) -> int:
        return 3

    def _validate(self, q):
        if len(q) != 3:
            raise InvalidConfiguration(f"configuration has {len(q)} values, body needs 3")

    def body_raws(self, q) -> list:
        self._validate(q)
        x, y, phi = q
        c, s = math.cos(phi), math.sin(phi)
        out = []
        for r in self._rel:
            out.append(
                (
                    x + c * r[0] - s * r[1],
                    y + s * r[0] + c * r[1],
                    x + c * r[2] - s * r[3],
                    y + s * r[2] + c * r[3],
                    x + c * r[4] - s * r[5],
                    y + s * r[4] + c * r[5],
                )
            )
        return out

    def collision_check(self, q, obs: PreparedObstacles) -> CollisionReport:
        self._validate(q)
        ref = Point2(q[0], q[1])
        for oi, poly in enumerate(obs.polygons):
            bx0, by0, bx1, by1 = obs.bboxes[oi]
            if bx0 <= ref.x <= bx1 and by0 <= ref.y <= by1 and point_in_polygon(ref, poly):
                return CollisionReport(BaseInObstacle(oi))
        raws = self.body_raws(q)
        oi = _raws_hit_obstacle(raws, _raws_bbox(raws), obs)
        if oi is not None:
            return CollisionReport(ObstacleHit(1, oi))
        return FREE
