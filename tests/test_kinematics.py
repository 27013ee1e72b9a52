import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from noplan import kinematics
from noplan.bitmap import TWO_PI, GridSpec, cell_to_config, lin_to_multi
from noplan.errors import InvalidConfiguration, ValidationError
from noplan.geometry import Point2, Polygon2, point_in_polygon, raw_tri_intersects
from noplan.kinematics import (
    BaseInObstacle,
    CollisionReport,
    DEFAULT_WIDTH_RATIO,
    DISC_MARGIN,
    FREE,
    FreeRow,
    Link,
    ObstacleHit,
    PreparedObstacles,
    RigidSE2,
    SelfHit,
    SerialChain,
)

from noplan.scenario_io import chain_grid, se2_grid

from support import four_link_scene, regular_polygon, rigid_wall_scene, square


def link_raws(chain, q):
    """Per-link triangle soups of the chain at q."""
    return [raws for raws, _ in chain.link_bodies(q)]


def tip(chain, q):
    """Far-edge midpoint of the last link rectangle."""
    r = link_raws(chain, q)[-1][1]
    return (r[2] + r[4]) / 2, (r[3] + r[5]) / 2


def unit_chain(n, width=0.05):
    return SerialChain(Point2(0, 0), [(1.0, width)] * n)


class TestConstruction:
    def test_default_width_is_ratio_of_length(self):
        chain = SerialChain(Point2(0, 0), [2.0])
        assert chain.links[0].width == pytest.approx(2.0 * DEFAULT_WIDTH_RATIO)

    def test_link_accepts_tuple_and_object(self):
        chain = SerialChain(Point2(0, 0), [(1.0, 0.1), Link(0.5, 0.02)])
        assert chain.links[0] == Link(1.0, 0.1)
        assert chain.links[1] == Link(0.5, 0.02)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValidationError):
            Link(0.0, 0.1)
        with pytest.raises(ValidationError):
            Link(1.0, -0.1)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValidationError):
            SerialChain(Point2(0, 0), [])

    def test_rejects_limit_arity_mismatch(self):
        with pytest.raises(ValidationError):
            SerialChain(Point2(0, 0), [1.0, 1.0], joint_limits=[None])

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValidationError):
            SerialChain(Point2(0, 0), [1.0], joint_limits=[(1.0, -1.0)])

    @pytest.mark.parametrize("lim", [(0, 1, 2), (0,)])
    def test_limit_is_a_pair(self, lim):
        with pytest.raises(ValidationError, match="pairs"):
            SerialChain(Point2(0, 0), [1.0], joint_limits=[lim])

    @pytest.mark.parametrize("lim", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_infinite_limits(self, lim):
        # With a delta grid the limit's span sets a cell count.
        with pytest.raises(ValidationError):
            SerialChain(Point2(0, 0), [1.0], joint_limits=[lim])

    def test_reach_sums_lengths(self):
        chain = SerialChain(Point2(0, 0), [0.4, 0.3, 0.2])
        assert chain.reach() == pytest.approx(0.9)

    def test_collision_report_invariant(self):
        assert not FREE.colliding
        assert CollisionReport(SelfHit(1, 3)).colliding


class TestForwardKinematics:
    def test_straight_arm(self):
        assert tip(unit_chain(2), (0.0, 0.0)) == pytest.approx((2.0, 0.0))

    def test_angles_accumulate(self):
        x, y = tip(unit_chain(2), (math.pi / 2, math.pi / 2))
        assert (x, y) == pytest.approx((-1.0, 1.0))

    def test_second_joint_cancels_first(self):
        x, y = tip(unit_chain(2), (math.pi / 2, -math.pi / 2))
        assert (x, y) == pytest.approx((1.0, 1.0))

    def test_base_offset_translates(self):
        chain = SerialChain(Point2(3, -2), [1.0])
        assert tip(chain, (0.0,)) == pytest.approx((4.0, -2.0))

    def test_rectangle_has_link_width(self):
        chain = SerialChain(Point2(0, 0), [(1.0, 0.2)])
        raws = link_raws(chain, (0.0,))[0]
        ys = [r[i] for r in raws for i in (1, 3, 5)]
        assert min(ys) == pytest.approx(-0.1)
        assert max(ys) == pytest.approx(0.1)

    def test_placement_covers_all_links(self):
        raws = link_raws(unit_chain(3), (0.1, 0.2, 0.3))
        assert [len(r) for r in raws] == [2, 2, 2]

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidConfiguration):
            unit_chain(2).link_bodies((0.0,))

    def test_limits_enforced(self):
        chain = SerialChain(Point2(0, 0), [1.0], joint_limits=[(-1.0, 1.0)])
        with pytest.raises(InvalidConfiguration):
            chain.link_bodies((1.5,))
        chain.link_bodies((1.0,))


class TestTruncation:
    def test_keeps_prefix(self):
        chain = SerialChain(
            Point2(1, 1), [0.4, 0.3, 0.2], joint_limits=[None, (-1, 1), None]
        )
        cut = chain.truncated(2)
        assert cut.dof == 2
        assert cut.reach() == pytest.approx(0.7)
        assert cut.joint_limits == (None, (-1, 1))
        assert cut.base == chain.base

    def test_full_length_allowed(self):
        assert unit_chain(3).truncated(3).dof == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            unit_chain(3).truncated(0)
        with pytest.raises(ValidationError):
            unit_chain(3).truncated(4)

    def test_truncated_volume_is_subset(self):
        full = unit_chain(3)
        cut = full.truncated(2)
        q = (0.3, -0.7, 1.1)
        full_raws = [r for raws in link_raws(full, q) for r in raws]
        cut_raws = [r for raws in link_raws(cut, q[:2]) for r in raws]
        assert all(r in full_raws for r in cut_raws)


class TestChainCollision:
    def test_free_when_far_away(self):
        rep = unit_chain(2).collision_check((0.0, 0.0), PreparedObstacles([square(5, 5, 0.5)]))
        assert rep is FREE or not rep.colliding

    def test_obstacle_hit_names_link_and_obstacle(self):
        obstacles = [square(5, 5, 0.2), square(1.5, 0, 0.2)]
        rep = unit_chain(2).collision_check((0.0, 0.0), PreparedObstacles(obstacles))
        assert rep.colliding
        assert rep.cause == ObstacleHit(2, 1)

    def test_smallest_link_wins(self):
        # one obstacle straddles both links; the lower index is reported
        rep = unit_chain(2).collision_check((0.0, 0.0), PreparedObstacles([square(1.0, 0.0, 0.3)]))
        assert rep.cause == ObstacleHit(1, 0)

    def test_touching_counts_as_collision(self):
        # obstacle bottom edge rests exactly on the link's top edge
        chain = SerialChain(Point2(0, 0), [(1.0, 0.2)])
        obstacle = Polygon2(
            [Point2(0.4, 0.1), Point2(0.6, 0.1), Point2(0.6, 0.3), Point2(0.4, 0.3)]
        )
        assert chain.collision_check((0.0,), PreparedObstacles([obstacle])).colliding

    def test_adjacent_links_exempt_from_self_hit(self):
        rep = unit_chain(2).collision_check((0.0, 3.1), PreparedObstacles([]))
        assert not rep.colliding

    def test_self_hit_nonadjacent(self):
        rep = unit_chain(3).collision_check((0.0, 2.8, 2.8), PreparedObstacles([]))
        assert rep.cause == SelfHit(1, 3)

    def test_obstacle_hit_outranks_self_hit(self):
        # obstacle on link 2's midpoint while links 1 and 3 also cross
        obs = PreparedObstacles([square(0.53, 0.17, 0.05)])
        rep = unit_chain(3).collision_check((0.0, 2.8, 2.8), obs)
        assert rep.cause == ObstacleHit(2, 0)

    def test_accepts_prepared_obstacles(self):
        prepared = PreparedObstacles([square(1.5, 0, 0.2)])
        rep = unit_chain(2).collision_check((0.0, 0.0), prepared)
        assert rep.cause == ObstacleHit(2, 0)


class TestRigidBody:
    def body(self):
        return Polygon2(
            [Point2(-1, -0.5), Point2(1, -0.5), Point2(1, 0.5), Point2(-1, 0.5)]
        )

    def test_reference_must_be_inside(self):
        with pytest.raises(ValidationError):
            RigidSE2(self.body(), Point2(5, 5))

    def test_dof_and_reach(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        assert robot.dof == 3

    def test_translation(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        raws = robot.body_raws((3.0, 2.0, 0.0))
        xs = [r[i] for r in raws for i in (0, 2, 4)]
        ys = [r[i] for r in raws for i in (1, 3, 5)]
        assert (min(xs), max(xs)) == pytest.approx((2.0, 4.0))
        assert (min(ys), max(ys)) == pytest.approx((1.5, 2.5))

    def test_rotation_about_reference(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        raws = robot.body_raws((0.0, 0.0, math.pi / 2))
        xs = [r[i] for r in raws for i in (0, 2, 4)]
        ys = [r[i] for r in raws for i in (1, 3, 5)]
        assert (min(xs), max(xs)) == pytest.approx((-0.5, 0.5))
        assert (min(ys), max(ys)) == pytest.approx((-1.0, 1.0))

    def test_off_center_reference(self):
        body = Polygon2(
            [Point2(0, -0.5), Point2(2, -0.5), Point2(2, 0.5), Point2(0, 0.5)]
        )
        robot = RigidSE2(body, Point2(0.5, 0.0))
        raws = robot.body_raws((0.0, 0.0, math.pi))
        xs = [r[i] for r in raws for i in (0, 2, 4)]
        assert (min(xs), max(xs)) == pytest.approx((-1.5, 0.5))

    def test_base_in_obstacle_outranks_body_hit(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        rep = robot.collision_check((0.0, 0.0, 0.3), PreparedObstacles([square(0, 0, 3.0)]))
        assert rep.cause == BaseInObstacle(0)

    def test_body_hit_when_reference_clear(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        rep = robot.collision_check((0.0, 0.0, 0.0), PreparedObstacles([square(1.2, 0, 0.5)]))
        assert rep.cause == ObstacleHit(1, 0)

    def test_free(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        obs = PreparedObstacles([square(5, 5, 0.5)])
        assert not robot.collision_check((0.0, 0.0, 1.0), obs).colliding

    def test_rotation_changes_verdict(self):
        # long bar clears a wall gap horizontally but not vertically
        robot = RigidSE2(self.body(), Point2(0, 0))
        wall = square(0, 2.9, 2.2)
        assert not robot.collision_check((0.0, 0.0, 0.0), PreparedObstacles([wall])).colliding
        assert robot.collision_check((0.0, 0.0, math.pi / 2), PreparedObstacles([wall])).colliding

    def test_wrong_arity_rejected(self):
        robot = RigidSE2(self.body(), Point2(0, 0))
        with pytest.raises(InvalidConfiguration):
            robot.collision_check((0.0, 0.0), PreparedObstacles([]))

    @pytest.mark.parametrize("far", [0.0, 1e6])
    def test_obstacle_within_inscribed_disc_is_base_hit(self, far):
        # The 2 x 1 body holds a disc of radius 0.5 about its centre. A
        # square whose near side lies a hair inside it is a base hit, even
        # far from the origin; a hair outside, a body hit.
        robot = RigidSE2(self.body(), Point2(0, 0))
        x, y = far + 0.3, far - 0.2
        for gap, cause in ((-1e-6, BaseInObstacle(0)), (1e-6, ObstacleHit(1, 0))):
            obs = PreparedObstacles([square(x + 0.5 * (1 + gap) + 0.2, y, 0.2)])
            assert robot.collision_check((x, y, 0.0), obs).cause == cause


# Gaps between an obstacle and the robot: exact contact, a hair apart, and
# a hair of overlap, so that bounding boxes meet exactly at their edges.
GAPS = (0.0, 0.0, 1e-12, -1e-12, 1e-9)


def abutting_square(rng, raws):
    """Square whose near edge lies on (or a hair off) the extreme vertex of
    a triangle soup in a random axis direction."""
    pts = [(r[i], r[i + 1]) for r in raws for i in (0, 2, 4)]
    axis = int(rng.integers(2))
    sign = 1.0 if rng.integers(2) else -1.0
    extreme = max(pts, key=lambda p: sign * p[axis])
    side = rng.uniform(0.01, 0.2)
    edge = extreme[axis] + sign * GAPS[int(rng.integers(len(GAPS)))]
    near, far = (edge, edge + side) if sign > 0 else (edge - side, edge)
    lo = extreme[1 - axis] + rng.uniform(-1.5, 0.5) * side
    spans = ((near, far), (lo, lo + side))
    (x0, x1), (y0, y1) = spans if axis == 0 else spans[::-1]
    return Polygon2([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def soups_touch(raws_a, raws_b):
    return any(raw_tri_intersects(a, b) for a in raws_a for b in raws_b)


def all_pairs_chain_cause(chain, q, obs):
    """The cause collision_check must report, found without bounding boxes."""
    per_link = link_raws(chain, q)
    for k, raws in enumerate(per_link):
        for oi, tris in enumerate(obs.tri_raws):
            if soups_touch(raws, tris):
                return ObstacleHit(k + 1, oi)
    for i in range(chain.dof):
        for j in range(i + 2, chain.dof):
            if soups_touch(per_link[i], per_link[j]):
                return SelfHit(i + 1, j + 1)
    return None


def segment_distance(p, a, b):
    """Distance from p to the segment ab: to an end where the segment's
    angle at that end is not acute, else to the segment's line."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    if (px - ax) * (bx - ax) + (py - ay) * (by - ay) <= 0:
        return math.dist(p, a)
    if (px - bx) * (ax - bx) + (py - by) * (ay - by) <= 0:
        return math.dist(p, b)
    return abs((bx - ax) * (py - ay) - (by - ay) * (px - ax)) / math.dist(a, b)


def edge_distance(p, poly):
    """Distance from p to the nearest edge of a polygon."""
    v = [(w.x, w.y) for w in poly.vertices]
    return min(segment_distance(p, a, b) for a, b in zip(v, v[1:] + v[:1]))


def sat_collides(robot, q, obs):
    """Whether any body triangle meets any obstacle triangle at q."""
    raws = robot.body_raws(q)
    return any(soups_touch(raws, tris) for tris in obs.tri_raws)


def all_pairs_body_cause(robot, q, obs):
    """The cause collision_check must report, found without bounding boxes.
    A body hit is a base hit when some obstacle comes closer to the
    reference point than the body's nearest edge. This radius is exact;
    the kernel's is smaller by a margin far below the gaps the tests use."""
    ref = Point2(q[0], q[1])
    for oi, poly in enumerate(obs.polygons):
        if point_in_polygon(ref, poly):
            return BaseInObstacle(oi)
    raws = robot.body_raws(q)
    for oi, tris in enumerate(obs.tri_raws):
        if soups_touch(raws, tris):
            rp = robot.reference_point
            r = edge_distance((rp.x, rp.y), robot.body)
            for oj, poly in enumerate(obs.polygons):
                if edge_distance(q[:2], poly) < r:
                    return BaseInObstacle(oj)
            return ObstacleHit(1, oi)
    return None


def flush_self_contact(rng, side):
    """A three-link chain whose links 1 and 3 lie along the x axis and touch
    exactly, edge on edge, on one side of link 1: "above", "below", "left"
    or "right". Link 1's half-width 2^-5 keeps every contact coordinate
    exact, so the two links' bounding boxes meet exactly."""
    h = 2.0 ** -5
    if side == "right":
        # cos(pi/2) * l2 is below half an ulp of l1: link 3 starts at x = l1
        l1, l2 = rng.uniform(0.5, 1.0), rng.uniform(0.1, 0.5)
        a = math.pi / 2
        w3 = 2 * l2 + rng.uniform(0.01, 0.2)
        l3 = rng.uniform(0.1, 0.5)
    elif side == "left":
        # link 3 ends at x = 0, link 1's base
        l1, l2 = rng.uniform(0.2, 0.4), rng.uniform(0.6, 1.0)
        a = rng.uniform(0.8, 1.2) * math.pi
        t = l2 * math.sin(a)
        w3 = 2 * (abs(t) + rng.uniform(0.01, 0.1))
        l3 = -(l1 + l2 * math.cos(a))
    else:
        # link 3's near edge lies on link 1's far edge, y = +h or -h
        l1, l2 = rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.45)
        a = rng.uniform(0.55, 0.85) * math.pi
        if side == "below":
            a += math.pi / 2
        w3 = 2 * (abs(l2 * math.sin(a)) - h)
        l3 = rng.uniform(0.1, 0.5)
    chain = SerialChain(Point2(0.0, 0.0), [(l1, 2 * h), (l2, 0.02), (l3, w3)])
    return chain, (0.0, a, -a)


class TestPrefilters:
    """The bounding-box prefilters of collision_check skip only separating-axis
    tests that cannot succeed, so the cause equals an all-pairs search's."""

    def test_chain_cause_matches_all_pairs(self):
        rng = np.random.default_rng(21)
        seen = Counter()
        for _ in range(600):
            n = int(rng.integers(2, 6))
            chain = SerialChain(
                Point2(*rng.uniform(-0.5, 0.5, 2)),
                [(rng.uniform(0.2, 1.0), rng.uniform(0.02, 0.15)) for _ in range(n)],
            )
            q = tuple(rng.uniform(0.0, 2 * math.pi, n))
            per_link = link_raws(chain, q)
            obs = PreparedObstacles([
                abutting_square(rng, per_link[int(rng.integers(n))])
                for _ in range(int(rng.integers(0, 4)))
            ])
            expect = all_pairs_chain_cause(chain, q, obs)
            assert chain.collision_check(q, obs).cause == expect
            seen[type(expect).__name__] += 1
        assert min(seen[k] for k in ("ObstacleHit", "SelfHit", "NoneType")) >= 30, seen

    def test_rigid_body_cause_matches_all_pairs(self):
        rng = np.random.default_rng(22)
        seen = Counter()
        for _ in range(600):
            body = regular_polygon(
                0.0, 0.0, rng.uniform(0.1, 0.5), int(rng.integers(3, 8)),
                rng.uniform(0.0, 2 * math.pi),
            )
            robot = RigidSE2(body, Point2(*rng.uniform(-0.02, 0.02, 2)))
            q = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi))
            soups = [robot.body_raws(q), [(q[0], q[1]) * 3]]
            obs = PreparedObstacles([
                abutting_square(rng, soups[int(rng.integers(2))])
                for _ in range(int(rng.integers(0, 4)))
            ])
            expect = all_pairs_body_cause(robot, q, obs)
            assert robot.collision_check(q, obs).cause == expect
            seen[type(expect).__name__] += 1
        assert min(seen[k] for k in ("BaseInObstacle", "ObstacleHit", "NoneType")) >= 30, seen

    @pytest.mark.parametrize("side", ["above", "below", "left", "right"])
    def test_flush_self_contact_is_found(self, side):
        rng = np.random.default_rng(23)
        for _ in range(50):
            chain, q = flush_self_contact(rng, side)
            obs = PreparedObstacles([])
            assert all_pairs_chain_cause(chain, q, obs) == SelfHit(1, 3)
            assert chain.collision_check(q, obs).cause == SelfHit(1, 3)


@st.composite
def convex_bodies(draw):
    """A convex body through 3-8 of 12 points spaced evenly around a tilted
    ellipse of 0.003 to 2 across, with the mean of its vertices as its
    reference point."""
    a = 10 ** draw(st.floats(-2.5, 0.3))
    b = a * draw(st.floats(0.3, 1.0))
    c, s = math.cos(tilt := draw(st.floats(0.0, 2 * math.pi))), math.sin(tilt)
    picks = sorted(draw(st.lists(st.integers(0, 11), min_size=3, max_size=8, unique=True)))
    pts = []
    for k in picks:
        ex, ey = a * math.cos(math.pi * k / 6), b * math.sin(math.pi * k / 6)
        pts.append((c * ex - s * ey, s * ex + c * ey))
    ref = Point2(sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
    return RigidSE2(Polygon2(pts), ref)


def facing_square(x, y, psi, d, h, corner=False):
    """A square beyond (x, y) in direction psi whose near side, or near
    corner, lies at distance d: side 2h, or diagonal 2h with ``corner``."""
    frame = ((0, 0), (h, -h), (2 * h, 0), (h, h)) if corner else \
        ((0, -h), (2 * h, -h), (2 * h, h), (0, h))
    (ux, uy), (wx, wy) = (math.cos(psi), math.sin(psi)), (-math.sin(psi), math.cos(psi))
    return Polygon2([(x + (d + i) * ux + j * wx, y + (d + i) * uy + j * wy) for i, j in frame])


class TestInscribedDisc:
    """An obstacle within a rigid body's inscribed disc about its reference
    point is a base hit, which marks the whole heading column. The rule
    changes causes only, and every heading it implies collides."""

    HEADINGS = tuple(
        map(se2_grid(((0.0, 1.0), (0.0, 1.0)), [2, 2, 72]).centre, [2] * 72, range(72))
    )

    @settings(max_examples=100, deadline=None)
    @given(convex_bodies(), st.integers(0, 2**32 - 1))
    def test_base_hits_collide_at_every_heading(self, robot, seed):
        # Squares whose side or corner nearest the reference point lies at
        # r * (1 + eps), r the body's inscribed radius: eps is +-1e-6, or
        # -1e-7 to -1e-11, which puts the contact within the rounding of the
        # body's vertices near 1e6, where half the squares lie. Half face
        # the body's nearest edge at one heading of the grid, the worst case
        # for that heading's check; the others lie in a random direction.
        rng = np.random.default_rng(seed)
        rp = (robot.reference_point.x, robot.reference_point.y)
        v = [(w.x, w.y) for w in robot.body.vertices]
        (ax, ay), (bx, by) = min(zip(v, v[1:] + v[:1]), key=lambda e: segment_distance(rp, *e))
        r = segment_distance(rp, (ax, ay), (bx, by))
        for _ in range(10):
            far = 1e6 if rng.integers(2) else 0.0
            x, y = (far + float(t) for t in rng.uniform(-5.0, 5.0, 2))
            eps = rng.choice([-1e-6, 1e-6]) if rng.integers(2) else -(10 ** -rng.uniform(7, 11))
            if rng.integers(2):
                psi = self.HEADINGS[rng.integers(72)] + math.atan2(ax - bx, by - ay)
            else:
                psi = rng.uniform(0.0, 2 * math.pi)
            obstacle = facing_square(
                x, y, psi, r * (1 + eps), rng.uniform(0.05, 1.0), bool(rng.integers(2))
            )
            obs = PreparedObstacles([obstacle])
            causes = [robot.collision_check((x, y, phi), obs).cause for phi in self.HEADINGS]
            if BaseInObstacle(0) in causes and not point_in_polygon(Point2(x, y), obstacle):
                event(f"disc rule fired at {far:g}")
                assert all(sat_collides(robot, (x, y, phi), obs) for phi in self.HEADINGS)

    def test_margin_grows_with_the_coordinates(self):
        # A body 0.008 across near (1e6, 1e6), whose +x edge faces a square
        # at heading 63, at r * (1 - 2e-9) from the reference point. The
        # rounding of the body's vertices there exceeds that depth, so some
        # headings miss the square, and a margin of a relative 1e-9 of r
        # would admit it.
        robot = RigidSE2(square(0.0, 0.0, 0.004), Point2(0.0, 0.0))
        x, y = 999995.586, 999998.361
        obs = PreparedObstacles([facing_square(x, y, self.HEADINGS[63], 0.004 * (1 - 2e-9), 0.05)])
        assert not all(sat_collides(robot, (x, y, phi), obs) for phi in self.HEADINGS)
        causes = {robot.collision_check((x, y, phi), obs).cause for phi in self.HEADINGS}
        assert causes == {ObstacleHit(1, 0), None}

    @settings(max_examples=100, deadline=None)
    @given(convex_bodies(), st.integers(0, 2**32 - 1))
    def test_verdict_equals_sat_reference(self, robot, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            far = 1e6 if rng.integers(2) else 0.0
            q = (far + rng.uniform(-1.0, 1.0), far + rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi))
            obs = PreparedObstacles([
                square(*(np.array(q[:2]) + rng.uniform(-2.0, 2.0, 2)), rng.uniform(0.05, 0.5))
                for _ in range(int(rng.integers(1, 4)))
            ])
            cause = robot.collision_check(q, obs).cause
            assert (cause is not None) == sat_collides(robot, q, obs)
            event(type(cause).__name__)


def reference_causes(robot, spec, obs) -> list:
    """``collision_check``'s cause at every cell centre, in raster order."""
    return [
        robot.collision_check(cell_to_config(spec, lin_to_multi(spec, lin)), obs).cause
        for lin in range(spec.size)
    ]


def read_cause(kernel, lin, spec, expect):
    """The kernel's cause at a cell, a ``FreeRow`` read as free; every cell
    of a free row, along the last axis, must be free by the reference."""
    cause = kernel(lin)
    if type(cause) is FreeRow:
        stride = spec.strides[-2]
        assert all(expect[c] is None for c in range(lin % stride, spec.size, stride))
        return None
    return cause


def assert_kernel_matches(robot, spec, obs, seed) -> list:
    """A fresh cell kernel gives the reference cause on every cell, taken
    in raster order and, with another fresh kernel, in a shuffled order.
    Returns the causes."""
    expect = reference_causes(robot, spec, obs)
    raster = robot.cell_kernel(spec, obs)
    assert [read_cause(raster, lin, spec, expect) for lin in range(spec.size)] == expect
    shuffled = robot.cell_kernel(spec, obs)
    order = np.random.default_rng(seed).permutation(spec.size).tolist()
    got = {lin: read_cause(shuffled, lin, spec, expect) for lin in order}
    assert got == dict(enumerate(expect))
    return expect


# Cells of a grid drawn for the kernel tests; the reference checks them all.
KERNEL_TEST_CELLS = 1500


@st.composite
def chains_on_grids(draw):
    """A chain of 1-5 links on its grid of 2-9 cells per axis, each joint
    limited (a clamped axis) or not (a wrapped one), and 0-3 squares that
    abut one link at one cell centre, touching it or a hair off, as in
    ``TestPrefilters``."""
    n = draw(st.integers(1, 5))
    dims, budget = [], KERNEL_TEST_CELLS
    for axis in range(n):
        dims.append(draw(st.integers(2, min(9, budget // 2 ** (n - axis - 1)))))
        budget //= dims[-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limits = []
    for _ in range(n):
        lo = rng.uniform(-math.pi, math.pi)
        limits.append(None if rng.integers(2) else (lo, lo + rng.uniform(0.2, 2 * math.pi)))
    chain = SerialChain(
        Point2(*rng.uniform(-0.5, 0.5, 2)),
        [(rng.uniform(0.2, 1.0), rng.uniform(0.02, 0.3)) for _ in range(n)],
        limits,
    )
    spec = chain_grid(chain, dims)
    per_link = link_raws(chain, cell_to_config(spec, lin_to_multi(spec, int(rng.integers(spec.size)))))
    obs = PreparedObstacles([
        abutting_square(rng, per_link[int(rng.integers(n))]) for _ in range(int(rng.integers(0, 4)))
    ])
    return chain, spec, obs, int(rng.integers(2**32))


def nudged(x: float, ulps: int) -> float:
    """x moved ``ulps`` floats up, or down when ``ulps`` is negative."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def misses(box, square) -> bool:
    """Whether two (x0, y0, x1, y1) boxes miss each other."""
    return box[2] < square[0] or square[2] < box[0] or box[3] < square[1] or square[3] < box[1]


def joint_and_bodies(chain, q):
    """Joint n-1 of the chain at q and the (raws, box) bodies of links
    1..n-2, those the last link is tested against, with
    ``collision_check``'s floats."""
    angle, jx, jy, bodies = 0.0, chain.base.x, chain.base.y, []
    for k in range(chain.dof - 1):
        angle += q[k]
        body, jx, jy = kinematics._link_body(jx, jy, angle, chain.links[k])
        bodies.append(body)
    return jx, jy, bodies[:-1]  # link n-1 is adjacent to the last


def tri_edges(raw) -> list:
    """Each edge normal (nx, ny) of a raw triangle, as ``raw_tri_intersects``
    computes it, with the triangle's projection [lo, hi] on it."""
    out = []
    for i in (0, 2, 4):
        ex, ey, fx, fy = raw[i], raw[i + 1], raw[(i + 2) % 6], raw[(i + 3) % 6]
        nx, ny = ey - fy, fx - ex
        proj = sorted(raw[k] * nx + raw[k + 1] * ny for k in (0, 2, 4))
        out.append((nx, ny, proj[0], proj[-1]))
    return out


class ReachRule:
    """The free-row rule of ``ChainCells`` about one joint n-1, written
    out: the reach square, and the reach disc's projection on an edge
    normal, widened by the margin."""

    def __init__(self, jx, jy, last: Link):
        self.jx, self.jy = jx, jy
        reach = last.length + last.width / 2
        self.big = max(abs(jx), abs(jy), reach)
        self.r = reach + DISC_MARGIN * self.big
        self.square = (jx - self.r, jy - self.r, jx + self.r, jy + self.r)

    def disc(self, nx, ny) -> tuple:
        p = self.jx * nx + self.jy * ny
        d = self.r * math.hypot(nx, ny) + self.big * (DISC_MARGIN * (abs(nx) + abs(ny)))
        return p - d, p + d

    def apart(self, raw) -> bool:
        """Whether one of the triangle's own edges puts the disc wholly on
        its far side."""
        for nx, ny, lo, hi in tri_edges(raw):
            d0, d1 = self.disc(nx, ny)
            if d0 > hi or d1 < lo:
                return True
        return False

    def blocks(self, raws, box) -> bool:
        """Whether a body keeps the row from being clear."""
        return not misses(box, self.square) and not all(map(self.apart, raws))


# Where the boundary lies in each case of ``chain_at_its_reach``: on the
# edge of the reach square for the box of an obstacle or of one of links
# 1..n-2, on the reach disc for an edge of a triangle of either.
REACH_CASES = ("obstacle box", "link box", "obstacle edge", "link edge")


def chain_at_its_reach(case: str, ulps: int, seed: int):
    """A chain of 2-4 links based near the origin, 1e3 or 1e6, on a grid of
    2-5 cells per axis, a random cell, and one body on the boundary of the
    free-row rule about the cell's joint n-1, or 1-4 ulps either side,
    outside when ``ulps`` > 0: the box of an obstacle or of one of links
    1..n-2 on the edge of the reach square, or a slanted edge of an
    obstacle triangle or an edge of a triangle of links 1..n-2 at the reach
    disc's distance along its normal. Bar the obstacle's box, the last
    link's length is tuned to put the boundary there. Returns the chain,
    grid, obstacles, cell, whether the cell's row must be clear, and a
    label; None when the seed gives no such case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3 if case.startswith("link") else 2, 5))
    base = (rng.choice([0.0, 1e3, 1e6]) * rng.uniform(-1, 1, 2)).tolist()
    links = [Link(rng.uniform(0.2, 1.0), rng.uniform(0.02, 0.3)) for _ in range(n)]
    limits = []
    for _ in range(n):
        lo = rng.uniform(-math.pi, math.pi)
        limits.append(None if rng.integers(2) else (lo, lo + rng.uniform(0.2, 2 * math.pi)))
    spec = chain_grid(SerialChain(Point2(*base), links, limits), [int(rng.integers(2, 6)) for _ in range(n)])
    lin = int(rng.integers(spec.size))
    q = cell_to_config(spec, lin_to_multi(spec, lin))
    jx, jy, bodies = joint_and_bodies(SerialChain(Point2(*base), links, limits), q)

    def tuned(width, value, want):
        """The last link of that width at which ``value``, which grows with
        its length, equals ``want``; None if no length gives it."""
        lo, hi = 0.0, 8.0
        while lo < (mid := (lo + hi) / 2) < hi:
            if value(ReachRule(jx, jy, Link(mid, width))) < want:
                lo = mid
            else:
                hi = mid
        return Link(hi, width) if value(ReachRule(jx, jy, Link(hi, width))) == want else None

    obs = PreparedObstacles([])
    if case == "obstacle box":
        axis, sign = int(rng.integers(2)), 1.0 if rng.integers(2) else -1.0
        edge = ReachRule(jx, jy, links[-1]).square[axis + (2 if sign > 0 else 0)]
        near = nudged(edge, int(sign) * ulps)
        spans = [sorted((near, near + sign * rng.uniform(0.1, 1.0)))]
        across = (jy, jx)[axis] - rng.uniform(0.0, 1.0)  # spans the joint
        spans.append((across, across + 1.0))
        (x0, x1), (y0, y1) = spans if axis == 0 else spans[::-1]
        obs = PreparedObstacles([Polygon2([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])])
        last, target = links[-1], obs.bboxes[0]
    elif case == "link box":
        # The side of the link's box farthest from the joint, and the
        # square's edge `ulps` floats short of it, outward.
        target = bodies[int(rng.integers(len(bodies)))][1]
        gap, side = max((target[0] - jx, 2), (jx - target[2], 0), (target[1] - jy, 3), (jy - target[3], 1))
        if gap < 0.05:
            return None
        sign = 1 if side >= 2 else -1
        want = nudged(target[side - 2 if side >= 2 else side + 2], -sign * ulps)
        last = tuned(rng.uniform(0.01, gap), lambda rule: sign * rule.square[side], sign * want)
    else:
        def farthest(raw):
            """The largest distance from the joint to the triangle along one
            of its edge normals, with the triangle, edge and side."""
            out = []
            for i, (nx, ny, lo, hi) in enumerate(tri_edges(raw)):
                h, p = math.hypot(nx, ny), jx * nx + jy * ny
                out += [((lo - p) / h, raw, i, -1), ((p - hi) / h, raw, i, 1)]
            return max(out)

        # Of links 1..n-2, the first the disc stops being apart from as the
        # reach grows, with the edge that parts them until then.
        nearest = min((min(map(farthest, raws)) for raws, _ in bodies), default=(math.inf,))
        if case == "obstacle edge":
            # A triangle whose first edge lies across a line at distance
            # `dist` from the joint, nearer than links 1..n-2 and slanted at
            # least 0.25 rad off the axes, and whose third corner lies
            # beyond it, away from link n-1.
            if nearest[0] < 0.1:
                return None
            theta = sum(q[:-1]) + rng.uniform(-1.0, 1.0)
            axis = round(theta / (math.pi / 2)) * math.pi / 2
            theta = axis + math.copysign(max(0.25, abs(theta - axis)), theta - axis)
            ux, uy = math.cos(theta), math.sin(theta)
            dist = rng.uniform(0.05, 1.0) * min(1.5, nearest[0])
            a, b, depth = rng.uniform(1.5, 3), rng.uniform(1.5, 3), rng.uniform(0.5, 2)
            fx, fy = jx + dist * ux, jy + dist * uy
            obs = PreparedObstacles([Polygon2([
                (fx - a * uy, fy + a * ux), (fx + b * uy, fy - b * ux), (fx + depth * ux, fy + depth * uy)
            ])])
            (raw,), target = obs.tri_raws[0], obs.bboxes[0]
            edge, side = 0, -1  # the disc below the triangle's projection
        else:
            dist, raw, edge, side = nearest
            target = next(box for raws, box in bodies if raw in raws)
            if dist < 0.05:
                return None
        nx, ny, lo, hi = tri_edges(raw)[edge]
        width = rng.uniform(0.01, min(0.3, dist))
        if side < 0:
            last = tuned(width, lambda rule: rule.disc(nx, ny)[1], nudged(lo, -ulps))
        else:
            last = tuned(width, lambda rule: -rule.disc(nx, ny)[0], -nudged(hi, ulps))
    if last is None:
        return None
    chain = SerialChain(Point2(*base), links[:-1] + [last], limits)
    rule = ReachRule(jx, jy, last)
    if case.endswith("box"):
        assert misses(target, rule.square) == (ulps > 0)
    else:
        if misses(target, rule.square):  # the square alone clears it
            return None
        d0, d1 = rule.disc(nx, ny)
        assert (d1 < lo if side < 0 else d0 > hi) == (ulps > 0)
    blocked = any(rule.blocks(raws, box) for raws, box in bodies + list(zip(obs.tri_raws, obs.bboxes)))
    prefix_free = chain.truncated(n - 1).collision_check(q[:-1], obs).cause is None
    clear = prefix_free and not blocked
    return chain, spec, obs, lin, clear, f"{case}, row {'clear' if clear else 'checked'}"


class TestFixedAxes:
    @pytest.mark.parametrize(
        "robot, cause",
        [
            (unit_chain(3), BaseInObstacle(0)),
            (RigidSE2(square(0.0, 0.0, 0.5), Point2(0.0, 0.0)), SelfHit(1, 3)),
        ],
        ids=["chain-base", "rigid-self"],
    )
    def test_a_cause_the_robot_cannot_report_is_refused(self, robot, cause):
        with pytest.raises(ValidationError, match="reports no"):
            robot.fixed_axes(cause)


class TestCellKernel:
    """The cell kernels return ``collision_check``'s cause at each cell
    centre, whatever order the cells come in."""

    @settings(max_examples=60, deadline=None)
    @given(chains_on_grids())
    def test_chain_kernel_matches_reference(self, case):
        assert_kernel_matches(*case)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(REACH_CASES), st.integers(-4, 4), st.integers(0, 2**32 - 1))
    # On the boundary each row is checked, an ulp outside it clear.
    @example("obstacle box", 0, 7)
    @example("obstacle box", 1, 7)
    @example("link box", 0, 4)
    @example("link box", 1, 4)
    @example("obstacle edge", 0, 0)
    @example("obstacle edge", 1, 0)
    @example("link edge", 0, 0)
    @example("link edge", 1, 0)
    def test_chain_kernel_matches_reference_at_the_reach_disc(self, case, ulps, seed):
        """A box on the edge of the last link's reach square, or a triangle
        edge at the reach disc's distance, or a hair either side, on chains
        near the origin and far from it: the kernel matches the reference,
        and the cell's row comes back ``FreeRow`` from its second visit on,
        exactly when the rule says it is clear."""
        built = chain_at_its_reach(case, ulps, seed)
        assume(built is not None)
        chain, spec, obs, lin, clear, label = built
        event(label)
        assert_kernel_matches(chain, spec, obs, seed)
        kernel = chain.cell_kernel(spec, obs)
        visits = [kernel(lin) for _ in range(3)]
        assert [type(c) is FreeRow for c in visits] == [False, clear, clear]
        if clear:
            assert visits[0] is None

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_kernel_matches_reference_near_the_reach_disc(self, seed):
        """Chains of 3-4 links, with triangles strewn about the last link's
        reach from a few cells' joint n-1: the kernel gives the reference
        cause on every cell, and some rows are clear although the reach
        square meets a box, by the triangles' own edges."""
        rng = np.random.default_rng(seed)
        n = 3 + seed % 2
        chain = SerialChain(
            Point2(*rng.uniform(-1.0, 1.0, 2)),
            [(rng.uniform(0.6, 1.0), rng.uniform(0.02, 0.2)) for _ in range(n - 1)] + [(0.4, 0.05)],
            [(lo, lo + rng.uniform(1.0, 2 * math.pi)) for lo in rng.uniform(-math.pi, math.pi, n)],
        )
        spec = chain_grid(chain, [8, 8, 4] if n == 3 else [5, 5, 5, 4])
        reach = chain.links[-1].length + chain.links[-1].width / 2
        triangles = []
        for lin in rng.integers(spec.size, size=8).tolist():
            # Off the corner of the reach square ahead of link n-1, where
            # its box meets the square.
            q = cell_to_config(spec, lin_to_multi(spec, lin))
            jx, jy, _ = joint_and_bodies(chain, q)
            angle = (round(sum(q[:-1]) / (math.pi / 2) - 0.5) + 0.5) * math.pi / 2 + rng.uniform(-0.3, 0.3)
            away = reach + rng.uniform(0.02, 0.15)
            centre = (jx + away * math.cos(angle), jy + away * math.sin(angle))
            (ax, ay), (bx, by), (cx, cy) = corners = (centre + rng.uniform(-0.08, 0.08, (3, 2))).tolist()
            ccw = (bx - ax) * (cy - ay) > (by - ay) * (cx - ax)
            triangles.append(Polygon2(corners if ccw else corners[::-1]))
        obs = PreparedObstacles(triangles)
        assert_kernel_matches(chain, spec, obs, seed)
        kernel = chain.cell_kernel(spec, obs)
        stride = spec.strides[-2]
        by_edges = 0
        for row in range(stride):
            kernel(row)
            if type(kernel(row + stride)) is FreeRow:
                jx, jy, bodies = joint_and_bodies(chain, cell_to_config(spec, lin_to_multi(spec, row)))
                square = ReachRule(jx, jy, chain.links[-1]).square
                by_edges += not all(misses(box, square) for box in [box for _, box in bodies] + obs.bboxes)
        assert by_edges > 0

    @pytest.mark.parametrize("side", ["above", "below", "left", "right"])
    def test_flush_self_contact_on_a_grid(self, side):
        """Cell (0, 0, 0)'s centre is exactly the flush contact of
        ``flush_self_contact``; the other cells lie within 2^-39 rad of it."""
        rng = np.random.default_rng(24)
        step = 2.0**-40
        for _ in range(10):
            chain, q = flush_self_contact(rng, side)
            limits = [(v - step / 2, v - step / 2 + 3 * step) for v in q]
            chain = SerialChain(chain.base, chain.links, limits)
            spec = chain_grid(chain, [3, 3, 3])
            assert cell_to_config(spec, (0, 0, 0)) == q
            causes = assert_kernel_matches(chain, spec, PreparedObstacles([]), 0)
            assert causes[0] == SelfHit(1, 3)

    def test_memo_starts_over_when_full(self, monkeypatch):
        monkeypatch.setattr(kinematics, "MEMO_CELLS", 7)
        sc = four_link_scene(5, block_angles=(90,))
        obs = sc.prepared()
        expect = reference_causes(sc.robot, sc.grid, obs)
        kernel = sc.robot.cell_kernel(sc.grid, obs)
        for lin in np.random.default_rng(0).permutation(sc.grid.size).tolist():
            assert read_cause(kernel, lin, sc.grid, expect) == expect[lin]
            assert max(len(level) for level in kernel.memo) <= 7
        # A full level starts over by itself: the first never fills.
        assert len(kernel.memo[0]) == 5

    def test_memo_of_an_exhausted_grid_stays_small(self):
        """Every cell of the exhausting 16^4 four-link grid memoises 16 +
        256 + 4,096 prefixes in under 1.2 MB, about 280 B each."""
        sc = four_link_scene(16, block_angles=(90,))
        kernel = sc.robot.cell_kernel(sc.grid, sc.prepared())
        order = np.random.default_rng(0).permutation(sc.grid.size).tolist()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for lin in order:
                kernel(lin)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert [len(level) for level in kernel.memo] == [16, 256, 4096]
        assert peak <= 1_200_000

    @pytest.mark.parametrize("kind", ["serial_chain", "rigid_se2"])
    def test_kernel_keeps_no_table_of_axis_cells(self, kind):
        """A kernel keeps a few numbers per axis, not one per cell of an
        axis: a table of an axis's 10^6 centres would take 32 MB."""
        if kind == "serial_chain":
            robot = SerialChain((0.0, 0.0), [1.0, 0.5])
            spec = chain_grid(robot, [10**6, 2])
        else:
            robot = RigidSE2(square(0.0, 0.0, 0.1), Point2(0.0, 0.0))
            spec = se2_grid(((0.0, 1.0), (0.0, 1.0)), [2, 2, 10**6])
        tracemalloc.start()
        try:
            kernel = robot.cell_kernel(spec, PreparedObstacles([]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert kernel(spec.size - 1) is None

    def test_grid_beyond_joint_limits_is_refused(self):
        chain = SerialChain((0, 0), [1.0, 1.0], [None, (0.0, 1.0)])
        spec = GridSpec((4, 4), (True, False), (0.0, 0.0), (TWO_PI, 2.0))
        with pytest.raises(InvalidConfiguration):
            chain.cell_kernel(spec, PreparedObstacles([]))

    def test_rigid_body_kernel_matches_reference(self):
        rng = np.random.default_rng(25)
        seen = Counter()
        for _ in range(6):
            body = regular_polygon(0.0, 0.0, rng.uniform(0.1, 0.4), int(rng.integers(3, 8)))
            robot = RigidSE2(body, Point2(0.0, 0.0))
            spec = se2_grid(((-1.0, 1.0), (-1.0, 1.0)), [9, 7, 12])
            obs = PreparedObstacles([square(*rng.uniform(-0.8, 0.8, 2), 0.2) for _ in range(3)])
            seen.update(type(c).__name__ for c in assert_kernel_matches(robot, spec, obs, 0))
        assert min(seen[k] for k in ("BaseInObstacle", "ObstacleHit", "NoneType")) >= 30, seen

    @pytest.mark.parametrize("axis, sign", [(0, 1), (0, -1), (1, 1), (1, -1)])
    def test_rigid_body_kernel_matches_reference_at_its_reach(self, axis, sign):
        """An obstacle's edge lies at the body's reach from a column of cell
        centres, or 1-4 ulps either side of it, on grids shifted by up to
        1e6 with bodies from 1e-6 to 1 across. The body's farthest vertex
        lies on the edge's axis, so at heading 0 (a cell centre here) it
        reaches exactly that far, and the contact starts or ends there."""
        rng = np.random.default_rng(26)
        seen = Counter()
        for _ in range(12):
            size = 10 ** rng.uniform(-6, 0)
            shift = rng.choice([0.0, 1e3, 1e6]) * rng.uniform(-1, 1, 2)
            # A star around the reference point, off the body's centre, whose
            # first vertex is its farthest in |rx| + |ry|, on the axis.
            ref = Point2(*(size * rng.uniform(-1, 1, 2)))
            n = int(rng.integers(4, 8))
            angles = 2 * math.pi * (np.arange(1, n) + rng.uniform(-0.3, 0.3, n - 1)) / n
            far = np.zeros(2)
            far[axis] = sign * size
            turn = math.atan2(far[1], far[0])
            pts = [far] + [
                size * rng.uniform(0.2, 0.7) * np.array([math.cos(turn + a), math.sin(turn + a)])
                for a in angles
            ]
            body = Polygon2([(ref.x + p[0], ref.y + p[1]) for p in pts])
            rel = [(v.x - ref.x, v.y - ref.y) for v in body.vertices]
            reach = max(abs(rx) + abs(ry) for rx, ry in rel)
            assert abs(rel[0][axis]) == reach
            robot = RigidSE2(body, ref)
            # Cell centres 0.4 reach apart; headings 0, 1, ..., 5 exactly.
            step = 0.4 * reach
            lo = shift - 4 * step
            spec = GridSpec(
                (8, 6, 6), (False, False, True), (*lo, -0.5), (*(lo + 8 * step), 5.5)
            )
            column = spec.centre(axis, int(rng.integers(0, spec.dims[axis])))
            for ulps in range(-4, 5):
                edge = column + sign * reach
                for _ in range(abs(ulps)):
                    edge = math.nextafter(edge, math.copysign(math.inf, ulps))
                # A slab 4 deep beyond the edge, 8 long across the grid.
                box = [sorted((edge, edge + sign * 4.0)), (shift[1 - axis] - 4.0, shift[1 - axis] + 4.0)]
                if axis:
                    box.reverse()
                (x0, x1), (y0, y1) = box
                obs = PreparedObstacles([Polygon2([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])])
                causes = assert_kernel_matches(robot, spec, obs, ulps + 4)
                seen.update(type(cause).__name__ for cause in causes)
        assert min(seen[k] for k in ("ObstacleHit", "NoneType")) >= 100, seen

    def test_rigid_body_cells_out_of_reach_skip_the_geometry(self, monkeypatch):
        """On ``rigid_body_wall``'s grid a cell whose reference point lies
        farther than the body's reach (0.25 + 0.15) from the wall's box is
        free without a ``collision_check`` call; every other cell calls it."""
        calls = []
        check = RigidSE2.collision_check

        def counted(self, q, obs):
            calls.append(q)
            return check(self, q, obs)

        monkeypatch.setattr(RigidSE2, "collision_check", counted)
        sc = rigid_wall_scene()
        obs = sc.prepared()
        (x0, y0, x1, y1), = obs.bboxes
        kernel = sc.robot.cell_kernel(sc.grid, obs)
        assert kernel.reach == 0.4
        skipped = 0
        for lin in range(0, sc.grid.size, 7):
            x, y, _ = cell_to_config(sc.grid, lin_to_multi(sc.grid, lin))
            beyond = x + 0.4 < x0 or x1 < x - 0.4 or y + 0.4 < y0 or y1 < y - 0.4
            calls.clear()
            cause = kernel(lin)
            assert len(calls) == (not beyond)
            skipped += beyond
            if beyond:
                assert cause is None
        assert skipped > 0.7 * sc.grid.size / 7
