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
    """A regularized normal-equations system could not be factorized.

    The package raises it nowhere: a singular pencil is a
    :class:`SolverFailureError`.  It stays only because the benchmark's
    self-test injects it as a failure that ends a whole sweep.
    """


class SolverFailureError(IllposedError):
    """A solve failed: a root find or Gauss-Newton did not converge, a pencil
    could not be decomposed, or a point provider cannot give a point."""


class ConfigurationError(IllposedError, ValueError):
    """Invalid problem name, config key, or config value."""


class UnsupportedOperatorError(IllposedError):
    """The requested operation is not defined for this operator kind."""
