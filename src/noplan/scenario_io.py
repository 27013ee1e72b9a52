"""Scenario files: a YAML schema for robot, obstacles, start/goal and grid.

Angles are radians; a string with an explicit ``deg`` suffix ("15 deg") is
converted at load. The grid can be given explicitly (``dims``) or derived
from a clearance parameter ``delta`` via the resolution rule: with links
summing to L, an angular step below delta/L keeps any workspace point's
per-step motion under delta, so features of size delta cannot be stepped
over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import yaml

from .bitmap import GridSpec, TWO_PI, config_to_cell, integer
from .errors import (
    GeometryError,
    InvalidDelta,
    OutOfBounds,
    ParseError,
    ValidationError,
)
from .geometry import Point2, Polygon2
from .kinematics import PreparedObstacles, RigidSE2, SerialChain


@dataclass
class Scenario:
    """A complete problem instance: robot, world, endpoints, grid."""

    robot: object
    obstacles: list
    start: tuple
    goal: tuple
    grid: GridSpec
    obstacle_ids: tuple = None
    name: str = ""
    _prepared: PreparedObstacles = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.start = tuple(float(v) for v in self.start)
        self.goal = tuple(float(v) for v in self.goal)
        dof = self.robot.dof
        if self.grid.ndim != dof:
            raise ValidationError(
                f"grid has {self.grid.ndim} axes but the robot has {dof} degrees of freedom"
            )
        for label, q in (("start", self.start), ("goal", self.goal)):
            if len(q) != dof:
                raise ValidationError(f"{label} has {len(q)} values, robot needs {dof}")
            try:
                config_to_cell(self.grid, q)
            except OutOfBounds as exc:
                raise ValidationError(f"{label} out of bounds: {exc}") from exc
        if self.obstacle_ids is None:
            self.obstacle_ids = tuple(f"obstacle-{i}" for i in range(len(self.obstacles)))
        else:
            self.obstacle_ids = tuple(str(i) for i in self.obstacle_ids)
        if len(self.obstacle_ids) != len(self.obstacles):
            raise ValidationError("need exactly one id per obstacle")
        if len(set(self.obstacle_ids)) != len(self.obstacle_ids):
            raise ValidationError("obstacle ids must be unique")

    def prepared(self) -> PreparedObstacles:
        if self._prepared is None:
            self._prepared = PreparedObstacles(self.obstacles)
        return self._prepared

    def truncate(self, k: int) -> "Scenario":
        """Restrict a chain scenario to its first k joints.

        The truncated robot occupies a subset of the full robot, so an
        infeasibility verdict transfers to the full problem.
        """
        if self.robot.kind != "serial_chain":
            raise ValidationError("only serial chains support truncation")
        if k == self.robot.dof:
            return self
        return replace(
            self,
            robot=self.robot.truncated(k),
            start=self.start[:k],
            goal=self.goal[:k],
            grid=self.grid.prefix(k),
        )


def suggest_resolution(robot: SerialChain, delta: float) -> list:
    """Per-joint cell counts from the clearance parameter delta."""
    if not isinstance(robot, SerialChain):
        raise ValidationError("resolution suggestion applies to serial chains")
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta > 0):
        raise InvalidDelta(f"delta must be a positive finite number, got {delta!r}")
    theta = delta / robot.reach()
    dims = []
    for lim in robot.joint_limits:
        span = TWO_PI if lim is None else lim[1] - lim[0]
        cells = span / theta if theta else math.inf
        if not math.isfinite(cells):
            raise InvalidDelta(
                f"delta {delta!r} at reach {robot.reach()} gives no finite cell count"
            )
        dims.append(max(2, math.ceil(cells)))
    return dims


def min_obstacle_edge(obstacles) -> float:
    """Shortest polygon edge over all obstacles; the default delta."""
    best = math.inf
    for poly in obstacles:
        verts = poly.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            best = min(best, math.hypot(b.x - a.x, b.y - a.y))
    if not math.isfinite(best):
        raise InvalidDelta("no obstacles to derive delta from; give delta explicitly")
    return best


def chain_grid(robot: SerialChain, dims) -> GridSpec:
    """Grid over a chain's joint space: limited joints clamp, free joints wrap."""
    if len(dims) != robot.dof:
        raise ValidationError(f"need {robot.dof} axis sizes, got {len(dims)}")
    lo, hi, wrap = [], [], []
    for lim in robot.joint_limits:
        if lim is None:
            lo.append(0.0)
            hi.append(TWO_PI)
            wrap.append(True)
        else:
            lo.append(lim[0])
            hi.append(lim[1])
            wrap.append(False)
    return GridSpec(tuple(dims), tuple(wrap), tuple(lo), tuple(hi))


def se2_grid(workspace, dims) -> GridSpec:
    """Grid over SE(2): bounded translation axes plus a wrapping heading."""
    if len(dims) != 3:
        raise ValidationError(f"need 3 axis sizes for a rigid body, got {len(dims)}")
    (xlo, xhi), (ylo, yhi) = workspace
    return GridSpec(
        tuple(dims),
        (False, False, True),
        (float(xlo), float(ylo), 0.0),
        (float(xhi), float(yhi), TWO_PI),
    )


def parse_angle(value) -> float:
    """Radians from a number, or from a string with a deg/rad suffix."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, scale in (("degrees", math.pi / 180), ("deg", math.pi / 180),
                              ("radians", 1.0), ("rad", 1.0)):
            if text.endswith(suffix):
                number = text[: -len(suffix)].strip()
                try:
                    return float(number) * scale
                except ValueError:
                    break
        try:
            return float(text)
        except ValueError:
            pass
    raise ParseError(f"cannot parse angle {value!r}; use radians or e.g. '15 deg'")


def _require(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _point(value, context) -> Point2:
    try:
        x, y = value
        return Point2(float(x), float(y))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{context}: expected [x, y], got {value!r}") from exc


def _polygon(value, context) -> Polygon2:
    if not isinstance(value, (list, tuple)) or len(value) < 3:
        raise ParseError(f"{context}: expected a list of at least 3 [x, y] vertices")
    return Polygon2([_point(v, context) for v in value])


def _limit(value, context):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{context}: expected null or [lo, hi], got {value!r}")
    return parse_angle(value[0]), parse_angle(value[1])


def _robot(data) -> object:
    kind = _require(data, "kind", "robot")
    if kind == "serial_chain":
        base = _point(_require(data, "base", "robot"), "robot.base")
        links_raw = _require(data, "links", "robot")
        if not isinstance(links_raw, list) or not links_raw:
            raise ParseError("robot.links: expected a non-empty list")
        links = []
        for i, entry in enumerate(links_raw):
            if isinstance(entry, dict):
                length = float(_require(entry, "length", f"robot.links[{i}]"))
                width = float(entry["width"]) if "width" in entry else None
            else:
                length, width = float(entry), None
            links.append((length, width) if width is not None else length)
        limits_raw = data.get("joint_limits")
        limits = None
        if limits_raw is not None:
            if len(limits_raw) != len(links):
                raise ParseError("robot.joint_limits: need one entry per link")
            limits = [_limit(lim, f"robot.joint_limits[{i}]") for i, lim in enumerate(limits_raw)]
        return SerialChain(base, links, limits)
    if kind == "rigid_se2":
        body = _polygon(_require(data, "body", "robot"), "robot.body")
        ref = _point(_require(data, "reference_point", "robot"), "robot.reference_point")
        return RigidSE2(body, ref)
    raise ParseError(f"robot.kind: unknown kind {kind!r}")


def _grid(data, robot, obstacles) -> GridSpec:
    data = data or {}
    if not isinstance(data, dict):
        raise ParseError("grid: must be a mapping")
    if robot.kind == "rigid_se2":
        workspace = _require(data, "workspace", "grid")
        dims = _require(data, "dims", "grid")
        return se2_grid(workspace, dims)
    if "dims" in data:
        return chain_grid(robot, data["dims"])
    delta = data.get("delta")
    delta = float(delta) if delta is not None else min_obstacle_edge(obstacles)
    return chain_grid(robot, suggest_resolution(robot, delta))


def scenario_from_dict(data: dict, name: str = "") -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario: top level must be a mapping")
    try:
        robot = _robot(_require(data, "robot", "scenario"))
        obstacles = []
        ids = []
        for i, entry in enumerate(_require(data, "obstacles", "scenario") or []):
            context = f"obstacles[{i}]"
            if isinstance(entry, dict):
                ids.append(str(entry.get("id", f"obstacle-{i}")))
                obstacles.append(_polygon(_require(entry, "vertices", context), context))
            else:
                ids.append(f"obstacle-{i}")
                obstacles.append(_polygon(entry, context))
        start = [parse_angle(v) for v in _require(data, "start", "scenario")]
        goal = [parse_angle(v) for v in _require(data, "goal", "scenario")]
        grid = _grid(data.get("grid"), robot, obstacles)
        scenario = Scenario(
            robot=robot,
            obstacles=obstacles,
            start=start,
            goal=goal,
            grid=grid,
            obstacle_ids=ids,
            name=str(data.get("name", name)),
        )
        k = data.get("truncate_to_links")
        if k is not None:
            scenario = scenario.truncate(integer("truncate_to_links", k))
    except GeometryError as exc:
        raise ValidationError(str(exc)) from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"scenario: malformed field value: {exc}") from exc
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"malformed scenario file {path}: nested too deeply") from None
    return scenario_from_dict(data, name=str(path))
