"""Robot models, forward kinematics, and collision checking with causes.

Two robot kinds are supported: a rigid body moving in SE(2) and a planar
serial chain of rectangular links joined by revolute joints. Collision
checks return not just a boolean but the cause, and a robot's
``fixed_axes`` the slice of the grid the cause implies: every cell that
agrees with the sampled one on those axes collides too. A chain's
``ObstacleHit`` of link k, its smallest colliding link, fixes joints 1..k,
which alone pose links 1..k; its ``SelfHit`` of links a < b fixes joints
a..b, as joints 1..a-1 move links a..b as one rigid body and later joints
move neither. A rigid body's ``BaseInObstacle`` fixes its position, as the
body collides at every heading (see ``RigidSE2``); its plain
``ObstacleHit`` pins all three coordinates, so it implies nothing beyond
the sampled cell.

A chain's cell kernel may also return ``FreeRow``, which is not a
collision: the cell is free, and so is every cell of its row along the last
axis, since the last link reaches nothing at any angle. Each obstacle, and
each of links 1..n-2, is apart from it when its box misses the square the
last link's reach spans about joint n-1, or when each of its triangles has
an edge that puts the reach disc wholly on its far side (see
``ChainCells``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bitmap import cell_to_config
from .errors import InvalidConfiguration, ValidationError
from .geometry import (
    Point2,
    Polygon2,
    _project_raw,
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
    """An obstacle that a rigid body meets at every heading of its
    reference point: the reference point lies inside the obstacle, or the
    obstacle comes within the body's inscribed disc about it."""

    obstacle: int


@dataclass(frozen=True)
class FreeRow:
    """Not a collision: a chain cell that is free, as is every cell that
    shares its joints 1..n-1, its row along the last axis. A chain's cell
    kernel returns it, never ``collision_check``. Compare it by type: it
    crosses a worker's pipe pickled."""


FREE_ROW = FreeRow()


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


def _ring_dist2(points) -> float:
    """Squared distance from the origin to the nearest edge of the closed
    ring of (x, y) points."""
    best = math.inf
    for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        t = min(1.0, max(0.0, -(ax * dx + ay * dy) / dd)) if dd else 0.0
        px, py = ax + t * dx, ay + t * dy
        best = min(best, px * px + py * py)
    return best


def _link_body(jx, jy, angle, link):
    """The one copy of a link's geometry, for ``link_bodies`` and
    ``ChainCells``: the link hinged at (jx, jy) at a world angle, as
    ((raws, bounding box), end x, end y)."""
    c, s = math.cos(angle), math.sin(angle)
    ex, ey = jx + link.length * c, jy + link.length * s
    hx, hy = -s * 0.5 * link.width, c * 0.5 * link.width
    x0, y0 = jx + hx, jy + hy
    x1, y1 = jx - hx, jy - hy
    x2, y2 = ex - hx, ey - hy
    x3, y3 = ex + hx, ey + hy
    raws = ((x0, y0, x1, y1, x2, y2), (x0, y0, x2, y2, x3, y3))
    box = (min(x0, x1, x2, x3), min(y0, y1, y2, y3), max(x0, x1, x2, x3), max(y0, y1, y2, y3))
    return (raws, box), ex, ey


def _edge_bounds(raw) -> tuple:
    """Each edge of a raw triangle as ``raw_tri_intersects`` tries it: its
    normal (nx, ny), ``hypot(nx, ny)``, ``DISC_MARGIN * (|nx| + |ny|)`` and
    the triangle's own projection [lo, hi] on the normal."""
    ax0, ay0, ax1, ay1, ax2, ay2 = raw
    out = []
    for ex, ey, fx, fy in ((ax0, ay0, ax1, ay1), (ax1, ay1, ax2, ay2), (ax2, ay2, ax0, ay0)):
        nx, ny = ey - fy, fx - ex
        lo, hi = _project_raw(raw, nx, ny)
        out.append((nx, ny, math.hypot(nx, ny), DISC_MARGIN * (abs(nx) + abs(ny)), lo, hi))
    return tuple(out)


def _disc_apart(jx, jy, r, big, tris) -> bool:
    """Whether each triangle, as its ``_edge_bounds``, has an edge that puts
    the disc of radius r about (jx, jy) wholly on its far side, by a margin
    of ``big`` times the edge's ``DISC_MARGIN * (|nx| + |ny|)``."""
    for edges in tris:
        for nx, ny, h, m, lo, hi in edges:
            p = jx * nx + jy * ny
            d = r * h + big * m
            if p - d > hi or p + d < lo:
                break
        else:
            return False
    return True


def _tri_apart(jx, jy, r, big, raw) -> bool:
    """``_disc_apart`` of one raw triangle, its edges computed one at a time
    until one is apart: for a link's triangles, which change with its pose."""
    ax0, ay0, ax1, ay1, ax2, ay2 = raw
    for ex, ey, fx, fy in ((ax0, ay0, ax1, ay1), (ax1, ay1, ax2, ay2), (ax2, ay2, ax0, ay0)):
        nx, ny = ey - fy, fx - ex
        lo, hi = _project_raw(raw, nx, ny)
        p = jx * nx + jy * ny
        d = r * math.hypot(nx, ny) + big * (DISC_MARGIN * (abs(nx) + abs(ny)))
        if p - d > hi or p + d < lo:
            return True
    return False


def _bodies_touch(a, b) -> bool:
    """Whether two (raws, box) link bodies touch: the self test of
    ``collision_check`` and ``ChainCells``."""
    (raws_a, ba), (raws_b, bb) = a, b
    if ba[2] < bb[0] or bb[2] < ba[0] or ba[3] < bb[1] or bb[3] < ba[1]:
        return False
    return any(raw_tri_intersects(ra, rb) for ra in raws_a for rb in raws_b)


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
                try:
                    lo, hi = map(float, lim)
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"joint limits must be pairs of numbers (lo, hi), got {lim!r}"
                    ) from None
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

    def link_bodies(self, q) -> list:
        """Per-link (raws, bounding box): two raw triangles per rectangle."""
        self._validate(q)
        out = []
        angle, jx, jy = 0.0, self.base.x, self.base.y
        for k, link in enumerate(self.links):
            angle += q[k]
            body, jx, jy = _link_body(jx, jy, angle, link)
            out.append(body)
        return out

    def collision_check(self, q, obs: PreparedObstacles) -> CollisionReport:
        bodies = self.link_bodies(q)
        for k, body in enumerate(bodies):
            oi = _raws_hit_obstacle(*body, obs)
            if oi is not None:
                return CollisionReport(ObstacleHit(k + 1, oi))
        for i in range(self.dof):
            for j in range(i + 2, self.dof):
                if _bodies_touch(bodies[i], bodies[j]):
                    return CollisionReport(SelfHit(i + 1, j + 1))
        return FREE

    def cell_kernel(self, spec, obs: PreparedObstacles) -> "ChainCells":
        return ChainCells(self, spec, obs)

    def fixed_axes(self, cause) -> tuple:
        """First and last axis, 0-based, of the slice a cause implies: joints
        1..k for link k's ``ObstacleHit``, joints a..b for a ``SelfHit``."""
        if isinstance(cause, ObstacleHit):
            return 0, cause.link - 1
        if isinstance(cause, SelfHit):
            return cause.link_a - 1, cause.link_b - 1
        raise ValidationError(f"a chain reports no {cause!r}")


# Entries each level of a ChainCells memo holds before it starts over by
# itself. The 16^3 prefixes of a 16^4 grid fit; on a four-link chain an
# entry of the deepest level costs about 230 B, its share of the levels
# above included.
MEMO_CELLS = 1 << 13


class ChainCells:
    """``collision_check``'s cause at each cell centre of a chain's grid,
    by linear index, with each link's pose and obstacle test computed once
    per joint prefix.

    Link k's pose, its obstacle test and its self pairs with earlier links
    depend only on joints 1..k, that is on the cell's linear index modulo
    the stride of axis k + 1. For each link but the last the memo maps that
    prefix to the cause found up to the link: an ``ObstacleHit``, which no
    later link can change, or (world angle, end x, end y, the bodies of the
    links later links test for self contact, first ``SelfHit`` so far). A
    cell then costs its last link's entry, computed the same way. Each
    level starts over by itself once it holds ``MEMO_CELLS`` entries.
    A joint value is ``lo + (m + 0.5) * step``, the expression of
    ``GridSpec.centre``, so every float equals ``collision_check``'s on
    ``cell_to_config``'s configuration.

    A prefix of links 1..n-1 that found no cause may leave its row along
    the last axis clear: the last link reaches nothing at any angle. Its
    corners sit at ``j + L*c +- (w/2)*s`` about joint n-1, and since
    ``|c|`` and ``|s|`` are at most 1 and rounding is monotone, each lies
    within ``reach = L + w/2`` of the joint along each axis but for two
    additions' rounding. ``r`` adds DISC_MARGIN of ``max(|jx|, |jy|,
    reach)``, as in ``BodyCells``, so the square ``[jx - r, jx + r] x
    [jy - r, jy + r]`` holds the last link's box. ``_raws_hit_obstacle``
    and ``_bodies_touch`` report a contact only where boxes overlap, so a
    body whose box the square misses, an obstacle or one of links 1..n-2
    (the last link's self tests), never meets the last link.

    A body whose box the square meets is tested triangle by triangle.
    ``raw_tri_intersects`` tries each edge normal (nx, ny) of both of its
    triangles, in either argument order, and they are apart in floats if
    one of them parts their projections. A triangle T of the body is apart
    from the last link when one of T's own edges, with T's projection
    [lo, hi] on its normal as ``_project_raw`` computes it, puts the disc
    of radius r about the joint wholly on its far side: ``p - d > hi`` or
    ``p + d < lo``, where ``p = jx*nx + jy*ny`` and ``d = r*hypot(nx, ny)
    + max(|jx|, |jy|, reach) * DISC_MARGIN * (|nx| + |ny|)``. Each vertex
    of the last link sits within ``sqrt(L^2 + w^2/4) <= reach`` of the
    joint but for rounding, as ``c^2 + s^2`` is 1 within rounding; so its
    exact projection lies within ``reach * hypot(nx, ny)`` of the joint's.
    The computed projections of the joint and the vertex, ``hypot`` and
    the sums in ``d`` each round by a few units of 2^-53 of ``max(|jx|,
    |jy|, reach) * (|nx| + |ny|)``, which the margin covers many times
    over (as long as no product leaves the normal range of floats). So
    every vertex's computed projection lies beyond T's, that edge
    separates T from each of the last link's triangles at every angle of
    the row, and the check finds no contact. A degenerate edge, n = 0, projects everything to 0
    and is never apart. The normals and projections of the obstacles'
    triangles are fixed and computed with the kernel; those of links
    1..n-2 are computed only for a body whose box the square meets.

    When every body is apart from the last link, the row is clear. The
    memo keeps ``FREE_ROW`` as such a prefix's entry, in place of its
    pose. The first cell of the row to come is free, without its last
    link's pose; every later one returns ``FREE_ROW``, so that the sampler
    marks the row visited only when the row is drawn again. A pooled
    worker reports a row once per buffer (``_serve``), and marking a row
    again marks no new cell.
    """

    def __init__(self, chain: SerialChain, spec, obs: PreparedObstacles):
        self.links = chain.links
        self.obs = obs
        # Centres increase along each axis, so the first and last cells bound every cell.
        for corner in ((0,) * spec.ndim, tuple(d - 1 for d in spec.dims)):
            chain._validate(cell_to_config(spec, corner))
        self.lo, self.strides, self.dims = spec.lo, spec.strides, spec.dims
        self.step = tuple(map(spec.step, range(spec.ndim)))
        self.root = (0.0, chain.base.x, chain.base.y, (), None)
        self.memo = [{} for _ in range(chain.dof - 1)]
        self.reach = chain.links[-1].length + chain.links[-1].width / 2
        self.obs_edges = [tuple(map(_edge_bounds, raws)) for raws in obs.tri_raws]

    def __call__(self, lin: int) -> object:
        n = len(self.links)
        e = self._link(n - 1, self._prefix(n - 1, lin), lin)
        return e[4] if type(e) is tuple else e

    def _prefix(self, k: int, lin: int):
        """Entry of the cell's first k links, from the memo or computed
        from its parent and memoised; None for the first cell of a clear
        row."""
        if not k:
            return self.root
        level, key = self.memo[k - 1], lin % self.strides[k]
        e = level.get(key)
        if e is None:
            e = self._link(k - 1, self._prefix(k - 1, lin), lin)
            if len(level) >= MEMO_CELLS:
                level.clear()
            level[key] = e
            if e is FREE_ROW:  # a clear row's first cell
                return None
        return e

    def _link(self, k: int, parent, lin: int):
        """Entry of link k (0-based) from the entry of its parent prefix;
        ``FREE_ROW`` for links 1..n-1 that leave the row clear."""
        if type(parent) is not tuple:
            return parent
        angle, jx, jy, bodies, hit = parent
        angle += self.lo[k] + (lin // self.strides[k] % self.dims[k] + 0.5) * self.step[k]
        body, ex, ey = _link_body(jx, jy, angle, self.links[k])
        oi = _raws_hit_obstacle(*body, self.obs)
        if oi is not None:
            return ObstacleHit(k + 1, oi)
        # A pair (i, k) comes before the pair found so far only if i is smaller.
        for i in range(k - 1 if hit is None else hit.link_a - 1):
            if _bodies_touch(bodies[i], body):
                hit = SelfHit(i + 1, k + 1)
                break
        last = len(self.links) - 2
        if k < last:  # a later link is not adjacent to it
            bodies += (body,)
        elif k == last and hit is None and self._clear(ex, ey, bodies):
            return FREE_ROW
        return angle, ex, ey, bodies, hit

    def _clear(self, jx: float, jy: float, bodies) -> bool:
        """Whether the last link, hinged at (jx, jy), meets no obstacle and
        none of the bodies at any angle: each one's box misses the reach
        square, or its triangles are apart from the reach disc."""
        reach = self.reach
        big = max(abs(jx), abs(jy), reach)
        r = reach + DISC_MARGIN * big
        x0, y0, x1, y1 = jx - r, jy - r, jx + r, jy + r
        for (ox0, oy0, ox1, oy1), tris in zip(self.obs.bboxes, self.obs_edges):
            if x0 <= ox1 and ox0 <= x1 and y0 <= oy1 and oy0 <= y1 and not _disc_apart(jx, jy, r, big, tris):
                return False
        for raws, (bx0, by0, bx1, by1) in bodies:
            if x0 <= bx1 and bx0 <= x1 and y0 <= by1 and by0 <= y1:
                for raw in raws:
                    if not _tri_apart(jx, jy, r, big, raw):
                        return False
        return True


# The disc rule's margin, per unit of the largest coordinate in play. The
# rotated body's vertices and the separating-axis projections round by a
# few units of 2^-52 of that coordinate; an obstacle the rule admits
# reaches about 2^10 such units into the body at every heading, so each
# heading's check finds the contact. The reach rules of ``ChainCells`` and
# ``BodyCells`` widen their squares by the same margin, and ``ChainCells``
# its disc's projections by it, per unit of the edge normal's |nx| + |ny|.
DISC_MARGIN = 2.0**-42


class RigidSE2:
    """Rigid polygonal body translating and rotating in the plane.

    Configurations are (x, y, phi): the reference point moves to (x, y) and
    the body rotates by phi about it. The reference point must lie inside
    the body. The body then holds, at every heading, the disc about the
    reference point out to its nearest edge, so an obstacle within that
    disc, or around the reference point, collides at every heading.
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
        rel = [(v.x - ref.x, v.y - ref.y) for v in body.vertices]
        self._radius = math.sqrt(_ring_dist2(rel))
        self._size = max(max(abs(v.x), abs(v.y)) for v in body.vertices)

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
        if oi is None:
            return FREE
        # A contact is a base hit when some obstacle's edges come within the
        # body's inscribed disc, shrunk by DISC_MARGIN of the largest
        # coordinate of the body, the reference point and the obstacle.
        x, y = q[0], q[1]
        for oj, box in enumerate(obs.bboxes):
            bx0, by0, bx1, by1 = box
            r = self._radius
            if not (bx0 - r <= x <= bx1 + r and by0 - r <= y <= by1 + r):
                continue
            r -= DISC_MARGIN * max(abs(x), abs(y), *map(abs, box), self._size)
            ring = [(v.x - x, v.y - y) for v in obs.polygons[oj].vertices]
            if r > 0.0 and _ring_dist2(ring) < r * r:
                return CollisionReport(BaseInObstacle(oj))
        return CollisionReport(ObstacleHit(1, oi))

    def cell_kernel(self, spec, obs: PreparedObstacles) -> "BodyCells":
        return BodyCells(self, spec, obs)

    def fixed_axes(self, cause) -> tuple:
        """First and last axis, 0-based, of the slice a cause implies: the
        position for a ``BaseInObstacle``, every axis for an ``ObstacleHit``."""
        if isinstance(cause, BaseInObstacle):
            return 0, 1
        if isinstance(cause, ObstacleHit):
            return 0, 2
        raise ValidationError(f"a rigid body reports no {cause!r}")


class BodyCells:
    """``collision_check``'s cause at each cell centre of a rigid body's
    grid, by linear index. A coordinate is ``lo + (m + 0.5) * step``, the
    expression of ``GridSpec.centre``, so it equals ``cell_to_config``'s.

    A cell whose reference point is out of every obstacle's reach is free
    without the geometry. ``reach`` is the largest ``|rx| + |ry|`` over the
    body's vertices relative to the reference point. ``body_raws`` puts a
    vertex at ``x + c*rx - s*ry`` and ``y + s*rx + c*ry``; since ``|c|`` and
    ``|s|`` are at most 1 and rounding is monotone, ``|fl(c*rx)| <= |rx|``
    and ``|fl(s*ry)| <= |ry|``, so every vertex lies within ``reach`` of
    (x, y) but for two additions' rounding, a few units of 2^-53 of
    ``max(|x|, |y|, reach)``. ``r`` adds DISC_MARGIN of that, which covers
    those additions and the rounding of the box ``[x - r, x + r] x [y - r,
    y + r]`` itself. ``collision_check`` reports a cause only when the
    reference point lies in an obstacle's box or the body's box meets one
    (the prefilter of ``_raws_hit_obstacle``; the disc rule runs only after
    a contact), and in either case the reach box meets that obstacle's box.
    """

    def __init__(self, body: RigidSE2, spec, obs: PreparedObstacles):
        self.body = body
        self.obs = obs
        self.lo, self.dims = spec.lo, spec.dims
        self.step = tuple(map(spec.step, range(3)))
        self.reach = max(abs(r[i]) + abs(r[i + 1]) for r in body._rel for i in (0, 2, 4))

    def __call__(self, lin: int) -> object:
        (x, y, phi), (nx, ny, _), (sx, sy, sphi) = self.lo, self.dims, self.step
        rest, mx = divmod(lin, nx)
        mphi, my = divmod(rest, ny)
        x += (mx + 0.5) * sx
        y += (my + 0.5) * sy
        reach = self.reach
        r = reach + DISC_MARGIN * max(abs(x), abs(y), reach)
        x0, y0, x1, y1 = x - r, y - r, x + r, y + r
        for ox0, oy0, ox1, oy1 in self.obs.bboxes:
            if not (x1 < ox0 or ox1 < x0 or y1 < oy0 or oy1 < y0):
                q = (x, y, phi + (mphi + 0.5) * sphi)
                return self.body.collision_check(q, self.obs).cause
        return None
