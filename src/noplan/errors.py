"""Exception types shared across the package."""


class NoplanError(Exception):
    """Base class for all package errors."""


class GeometryError(NoplanError):
    pass


class DegeneratePolygon(GeometryError):
    """Polygon has fewer than 3 vertices or zero area."""


class InvalidPolygon(GeometryError):
    """Polygon violates orientation or simplicity invariants."""


class InvalidConfiguration(NoplanError):
    """Configuration has wrong dimension or violates joint limits."""


class OutOfRange(NoplanError):
    """Cell index outside the grid."""


class OutOfBounds(NoplanError):
    """Configuration coordinate outside a non-wrapping axis interval."""


class Exhausted(NoplanError):
    """A draw from a sample set whose every cell has been visited."""


class StartOrGoalInObstacle(NoplanError):
    """Start or goal cell is (or became) an obstacle cell."""


class TooLarge(NoplanError):
    """Grid too large for exhaustive construction."""


class IncompatibleGrids(NoplanError):
    """Fine grid is not an integer per-axis refinement of the coarse grid."""


class InvalidDelta(NoplanError):
    """Non-positive clearance value passed to the resolution rule."""


class ParseError(NoplanError):
    """Scenario file is syntactically malformed."""


class ValidationError(NoplanError):
    """Scenario file parsed but violates a documented invariant."""


class UnsupportedDimension(NoplanError):
    """Image export requested for a grid that is not 2D (and no slice given)."""


class EngineTimeout(NoplanError):
    """Wall-clock budget exceeded (benchmark harness only)."""
