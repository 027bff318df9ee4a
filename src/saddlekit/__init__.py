"""Solver toolkit for singular saddle-point systems.

Constraint-style preconditioners with a rank-deficient constraint block,
applied through explicit Moore-Penrose block formulas; a stationary
fixed-point scheme plus restarted GMRES and QMR on top of them; spectral
convergence diagnostics; and a staggered-grid Oseen cavity benchmark.
"""

__version__ = "0.1.0"

from .linalg import (
    LinAlgFailure,
    NotPositiveDefinite,
    SingularTriangular,
    SvdFactors,
    pinv,
    pseudospectral_radius,
    spectral_norm,
    svd,
)
from .problems import (
    SaddleSystem,
    Splitting,
    build_oseen,
    build_random_singular,
    make_consistent_rhs,
    split,
)
from .precond import (
    BLOCK_DIAG,
    BLOCK_TRI,
    CONSTRAINT,
    PChoice,
    Preconditioner,
    SYMMETRIC_SCALED,
    TRIANGULAR_SPLIT,
    apply_pseudo_inverse,
    apply_pseudo_inverse_transpose,
    assemble,
    build,
)
from .solvers import (
    BreakdownError,
    DivergenceError,
    IterationReport,
    SolveConfig,
    best_report,
    gcp_iterate,
    gmres_restarted,
    omega_sweep,
    qmr,
    solve_with,
)
from .analysis import (
    SpectralReport,
    check_lemma4,
    compute_X,
    gcp_convergence_indicator,
    norm_certificates,
    omega_bound_symmetric,
    omega_bound_triangular,
    pd_bound,
    projection_spectrum,
)

__all__ = [
    "__version__",
    "LinAlgFailure", "NotPositiveDefinite", "SingularTriangular",
    "SvdFactors", "pinv", "pseudospectral_radius", "spectral_norm", "svd",
    "SaddleSystem", "Splitting", "build_oseen", "build_random_singular",
    "make_consistent_rhs", "split",
    "BLOCK_DIAG", "BLOCK_TRI", "CONSTRAINT", "PChoice", "Preconditioner",
    "SYMMETRIC_SCALED", "TRIANGULAR_SPLIT", "apply_pseudo_inverse",
    "apply_pseudo_inverse_transpose", "assemble", "build",
    "BreakdownError", "DivergenceError", "IterationReport", "SolveConfig",
    "best_report", "gcp_iterate", "gmres_restarted", "omega_sweep", "qmr",
    "solve_with",
    "SpectralReport", "check_lemma4", "compute_X",
    "gcp_convergence_indicator", "norm_certificates",
    "omega_bound_symmetric", "omega_bound_triangular", "pd_bound",
    "projection_spectrum",
]
