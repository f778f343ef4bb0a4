"""Exception types shared across the package."""


class IllposedError(Exception):
    """Base class for all package errors."""


class GridMismatchError(IllposedError):
    """A vector does not belong to the grid it was used with."""


class NonFiniteError(IllposedError):
    """An operation produced a non-finite value."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidParameterError(IllposedError, ValueError):
    """A parameter is outside its admissible range."""


class SingularSystemError(IllposedError):
    """A regularized normal-equations system could not be factorized."""


class SolverFailureError(IllposedError):
    """An iterative solver did not converge; carries the best iterate found."""

    def __init__(self, message, best_point=None, best_value=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value


class CertificateUnavailableError(IllposedError):
    """Certificate evaluation requires the true solution, which is missing."""


class ConfigurationError(IllposedError, ValueError):
    """Invalid problem name, config key, or config value."""


class BudgetExceededError(IllposedError):
    """A brute-force search would exceed its evaluation budget."""


class UnsupportedOperatorError(IllposedError):
    """The requested operation is not defined for this operator kind."""
