"""Exception types shared across the toolkit."""


class CycleSenseError(Exception):
    """Base class for all toolkit errors."""


class GridError(CycleSenseError):
    """Grid construction or compatibility problem."""


class GridOverflowError(GridError):
    """A kick or a propagation would push the beam outside half of the
    position window or of the momentum window of the grid."""


class NormalizationError(CycleSenseError):
    """An operation required a normalized wavefunction and did not get one."""


class RegimeError(CycleSenseError):
    """Inputs violate the small-signal guard of a first-order expression."""


class PostSelectionError(CycleSenseError):
    """Post-selection is singular or the surviving amplitude is negligible."""


class EstimabilityError(CycleSenseError):
    """The requested scalar is not estimable from a singular information matrix."""


class DomainError(CycleSenseError, ValueError):
    """An input, or a value derived from it, is outside a formula's domain."""


class ConvergenceError(CycleSenseError):
    """A numerical estimate failed its internal convergence check."""


class FitError(CycleSenseError):
    """A regression received degenerate or insufficient data."""


class ConfigError(CycleSenseError):
    """A run configuration failed validation; the message names the field."""
