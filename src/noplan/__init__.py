"""Prove kinematic motion-planning infeasibility on discretized C-spaces.

The library samples a configuration-space bitmap without replacement,
amplifies every collision into whole index slices of provably colliding
cells, segments the remaining free space, and reports that no plan exists
once start and goal fall into different components. Exhausting the grid
instead yields a feasible-at-this-resolution verdict.
"""

from .bitmap import (
    CSpaceBitmap,
    GridSpec,
    cell_to_config,
    config_to_cell,
    lin_to_multi,
    multi_to_lin,
    neighbors,
)
from .engine import (
    FEASIBLE_AT_RESOLUTION,
    INFEASIBLE,
    START_OR_GOAL_IN_OBSTACLE,
    Verdict,
    prove_infeasibility,
)
from .errors import (
    EngineTimeout,
    Exhausted,
    GeometryError,
    IncompatibleGrids,
    InvalidConfiguration,
    InvalidDelta,
    NoplanError,
    OutOfBounds,
    OutOfRange,
    ParseError,
    StartOrGoalInObstacle,
    TooLarge,
    UnsupportedDimension,
    ValidationError,
)
from .geometry import Point2, Polygon2, Triangle2, point_in_polygon, triangulate
from .kinematics import (
    BaseInObstacle,
    CollisionReport,
    Link,
    ObstacleHit,
    PreparedObstacles,
    RigidSE2,
    SelfHit,
    SerialChain,
)
from .sampler import (
    IterationStats,
    SamplerParams,
    SampleSet,
    propagate,
    sample_obstacle_cells,
)
from .scenario_io import (
    Scenario,
    chain_grid,
    load_scenario,
    min_obstacle_edge,
    scenario_from_dict,
    se2_grid,
    suggest_resolution,
)
from .segmentation import LabelField, segment, segment_check

__version__ = "0.1.0"

__all__ = [
    "BaseInObstacle",
    "CollisionReport",
    "CSpaceBitmap",
    "EngineTimeout",
    "Exhausted",
    "FEASIBLE_AT_RESOLUTION",
    "GeometryError",
    "GridSpec",
    "INFEASIBLE",
    "IncompatibleGrids",
    "InvalidConfiguration",
    "InvalidDelta",
    "IterationStats",
    "LabelField",
    "Link",
    "NoplanError",
    "ObstacleHit",
    "OutOfBounds",
    "OutOfRange",
    "ParseError",
    "Point2",
    "Polygon2",
    "PreparedObstacles",
    "RigidSE2",
    "SampleSet",
    "SamplerParams",
    "Scenario",
    "SelfHit",
    "SerialChain",
    "START_OR_GOAL_IN_OBSTACLE",
    "StartOrGoalInObstacle",
    "TooLarge",
    "Triangle2",
    "UnsupportedDimension",
    "ValidationError",
    "Verdict",
    "cell_to_config",
    "chain_grid",
    "config_to_cell",
    "lin_to_multi",
    "load_scenario",
    "min_obstacle_edge",
    "multi_to_lin",
    "neighbors",
    "point_in_polygon",
    "propagate",
    "prove_infeasibility",
    "sample_obstacle_cells",
    "scenario_from_dict",
    "se2_grid",
    "segment",
    "segment_check",
    "suggest_resolution",
    "triangulate",
]
