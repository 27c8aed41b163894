"""Exception hierarchy. Numerical preconditions fail loudly, never silently repaired."""


class ShortcutForgeError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ShortcutForgeError):
    """Operands do not share the required dimension."""


class HermiticityError(ShortcutForgeError):
    """Matrix is not Hermitian within tolerance. Inputs are never symmetrized."""


class DegeneracyError(ShortcutForgeError):
    """A gap-dividing quantity was requested at (or too close to) a level crossing."""


class GridTooCoarseError(ShortcutForgeError):
    """Consecutive eigenvector overlaps stayed below threshold after maximal refinement."""


class SpanningError(ShortcutForgeError):
    """Operator-basis expansion left a residual above tolerance."""


class GaugeDiscontinuityError(ShortcutForgeError):
    """A mode path has consecutive overlaps too small for phase tracking."""


class IllConditionedError(ShortcutForgeError):
    """Amplitude below floor over a region that carries probability flux."""


class ConfigError(ShortcutForgeError):
    """Scenario configuration failed validation."""
