"""Regularized solvers for ill-posed operator equations with noisy data.

Two constructions with checkable guarantees: a variational method that
nearly minimizes ``||A(u) - f_delta|| + delta * phi(u)``, and residual
minimization over a compact constraint set.  Both come with certificate
inequalities that any returned solution must satisfy when the problem
hypotheses hold, plus a gallery of ill-posed test problems with known
solutions.
"""

from .errors import (ConfigurationError, GridMismatchError, IllposedError,
                     InvalidParameterError, NonFiniteError, SolverFailureError,
                     UnsupportedOperatorError)
from .gallery import (ConditionReport, ProblemInstance, build_problem,
                      condition_report)
from .grids import Grid, l2_norm
from .noise import inject_noise
from .operators import (OperatorSpec, apply, as_matrix, dense_operator,
                        diagonal_operator, domain_project, jacobian,
                        nonlinear_operator, normal_matrix, weighted_product,
                        weighted_transpose)
from .quasisolution import minimize_on_compactum, quasi_certificate
from .stabilizers import Compactum, Stabilizer, phi_value, project_onto
from .sweep import (SweepConfig, SweepReport, SweepRow, parse_config_file,
                    run_sweep)
from .tikhonov import Solution, TikhonovPath
from .variational import (VariationalResult, f_functional, minimize_variational,
                          variational_certificate)

__version__ = "0.1.0"
