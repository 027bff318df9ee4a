"""Solver toolkit for singular saddle-point systems.

Constraint-style preconditioners with a rank-deficient constraint block,
applied through their Moore-Penrose inverses; a stationary
fixed-point scheme plus restarted GMRES and QMR on top of them; spectral
convergence diagnostics; and a staggered-grid Oseen cavity benchmark.
"""

__version__ = "0.1.0"

from .linalg import (
    LinAlgFailure,
    NotPositiveDefinite,
    pinv,
    pseudospectral_radius,
    spectral_norm,
)
from .problems import (
    SaddleSystem,
    build_oseen,
    build_random_singular,
    make_consistent_rhs,
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
    pd_bound,
)
from .solvers import (
    IterationReport,
    SolveConfig,
    best_report,
    omega_sweep,
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
    projection_spectrum,
)

__all__ = [
    "__version__",
    "LinAlgFailure", "NotPositiveDefinite", "pinv",
    "pseudospectral_radius", "spectral_norm",
    "SaddleSystem", "build_oseen", "build_random_singular", "make_consistent_rhs",
    "BLOCK_DIAG", "BLOCK_TRI", "CONSTRAINT", "PChoice", "Preconditioner",
    "SYMMETRIC_SCALED", "TRIANGULAR_SPLIT", "apply_pseudo_inverse",
    "apply_pseudo_inverse_transpose", "assemble", "build", "pd_bound",
    "IterationReport", "SolveConfig", "best_report", "omega_sweep", "solve_with",
    "SpectralReport", "check_lemma4", "compute_X",
    "gcp_convergence_indicator", "norm_certificates",
    "omega_bound_symmetric", "omega_bound_triangular", "projection_spectrum",
]
