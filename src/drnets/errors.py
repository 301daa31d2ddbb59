"""Exception taxonomy shared across the package.

Estimation failures deliberately subclass a common base so callers (and the
command line front end) can map them to a single failure category without
enumerating every situation.
"""


class DrnetsError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(DrnetsError, ValueError):
    """A config object or argument combination is invalid."""


class InputError(DrnetsError, ValueError):
    """Input data violates a documented precondition (shape, range, coding)."""


class EstimationError(DrnetsError, RuntimeError):
    """Base class for failures raised while fitting or estimating."""


class EmptySubgroupError(EstimationError):
    """All sample weights are zero: there is nothing to fit."""


class DivergenceError(EstimationError):
    """Training produced a non-finite loss."""


class SeparationError(EstimationError):
    """A binary fit received only one class among the weighted rows."""


class SplitError(EstimationError):
    """A sample split left one half without both treatment arms."""


class StratumError(EstimationError):
    """A required treatment/mediator stratum is empty or too small to fit."""


class FoldError(EstimationError):
    """A cross-fitting fold violates a precondition (e.g. single-arm)."""


class ConvergenceError(EstimationError):
    """A solver stopped without satisfying its stationarity check."""
