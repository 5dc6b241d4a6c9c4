"""Grassmann/Clifford algebra toolkit for 4D spacetime with a verification CLI.

The package implements the 16-dimensional complex exterior algebra on four
generators, the Clifford algebra of an arbitrary nondegenerate symmetric
metric acting on it through boundary/coboundary operators, the canonical
linear identification between the two, concrete Dirac matrices, spin lifts of
metric isometries, the exterior action of invertible linear maps, and a
plane-wave solver for the matrix Dirac equation.  The ``spinrep`` CLI drives
numerical verification suites over all of it.
"""

from ._kernels import backend_name
from ._version import __version__
from .clifford import CliffordElement, even_part, geometric_product, grade_project, reversion
from .dirac import (
    PlaneWave,
    covariance_residual,
    hodge_dirac_symbol,
    plane_wave_solutions,
    symbol_matrix,
)
from .errors import (
    ConfigError,
    DegenerateMetric,
    LiftNotFound,
    NotIsometry,
    SpinrepError,
)
from .grassmann import (
    GrassmannElement,
    Metric,
    delta,
    delta_star,
    gamma_op,
    hodge,
    minkowski,
    right_delta,
    right_delta_star,
    right_gamma_op,
    vee,
    wedge,
)
from .isomorphisms import (
    GammaBasis,
    clifford_to_matrix,
    dirac_matrices,
    left_rep,
    matrix_to_clifford,
    matrix_wedge,
    right_rep,
    to_clifford,
    to_grassmann,
)
from .transforms import (
    SpinElement,
    exterior_pushforward,
    gl4_on_matrices,
    grade_leakage,
    metric_pullback,
    random_lorentz,
    spin_lift,
    spinor_factorization,
    substitute_gammas,
    transport_residual,
)

__all__ = [
    "backend_name",
    "CliffordElement",
    "GrassmannElement",
    "GammaBasis",
    "Metric",
    "PlaneWave",
    "SpinElement",
    "SpinrepError",
    "ConfigError",
    "DegenerateMetric",
    "LiftNotFound",
    "NotIsometry",
    "clifford_to_matrix",
    "covariance_residual",
    "delta",
    "delta_star",
    "dirac_matrices",
    "even_part",
    "exterior_pushforward",
    "gamma_op",
    "geometric_product",
    "gl4_on_matrices",
    "grade_leakage",
    "grade_project",
    "hodge",
    "hodge_dirac_symbol",
    "left_rep",
    "matrix_to_clifford",
    "matrix_wedge",
    "metric_pullback",
    "minkowski",
    "plane_wave_solutions",
    "random_lorentz",
    "reversion",
    "right_delta",
    "right_delta_star",
    "right_gamma_op",
    "right_rep",
    "spin_lift",
    "spinor_factorization",
    "substitute_gammas",
    "symbol_matrix",
    "to_clifford",
    "to_grassmann",
    "transport_residual",
    "vee",
    "wedge",
]
