"""The public names: perfbench builds its namespace from ``saddlekit.__all__``,
so a dropped export would end a benchmark run as ``run_failed``."""

import numpy as np
import pytest

import saddlekit
from saddlekit import analysis, cli, precond, solvers

from conftest import densify

# the names perfbench/workloads.py and perfbench/tracing.py call
BENCHMARK_NAMES = [
    "build_oseen", "build", "PChoice",
    "CONSTRAINT", "BLOCK_DIAG", "BLOCK_TRI", "SYMMETRIC_SCALED", "TRIANGULAR_SPLIT",
    "assemble", "apply_pseudo_inverse", "apply_pseudo_inverse_transpose",
    "solve_with", "SolveConfig", "check_lemma4",
    "omega_bound_symmetric", "omega_bound_triangular", "pd_bound",
]
# the attributes of a built Preconditioner perfbench reads: workloads.null_vector
# and the tracer's apply tag read ``family``; the tracer's build tag reads the
# ``kind`` of the PChoice a preconditioner is built from, kept as ``p_choice``
PRECONDITIONER_ATTRS = ["family", "p_choice"]
# the module attributes perfbench/tracing.py wraps: the package looks them up
# at call time, so a renamed one drops its spans without any error
TRACED_LOOKUPS = {
    solvers: ["apply_pseudo_inverse", "apply_pseudo_inverse_transpose", "build", "solve_with"],
    cli: ["build_oseen", "omega_sweep"],
    analysis: ["apply_pseudo_inverse", "gcp_convergence_indicator", "projection_spectrum"],
}


def test_all_names_resolve():
    assert [name for name in saddlekit.__all__ if not hasattr(saddlekit, name)] == []


def test_benchmark_names_exported():
    assert [name for name in BENCHMARK_NAMES if name not in saddlekit.__all__] == []
    assert callable(saddlekit.SaddleSystem.matrix)
    assert callable(cli.main)


def test_preconditioner_attrs_perfbench_reads():
    s = saddlekit.build_oseen(4, 0.1)
    for family in (saddlekit.CONSTRAINT, saddlekit.BLOCK_DIAG, saddlekit.BLOCK_TRI):
        pc = saddlekit.build(s, family, saddlekit.PChoice())
        assert [name for name in PRECONDITIONER_ATTRS if not hasattr(pc, name)] == []
        assert (pc.family, pc.p_choice.kind) == (family, saddlekit.SYMMETRIC_SCALED)


@pytest.mark.parametrize("family", precond.FAMILIES)
def test_assemble_takes_the_calls_perfbench_makes(family):
    # workloads.mplus_relres: M @ Y and M.T @ Z on column blocks, and M @ y on a vector
    s = saddlekit.build_oseen(4, 0.1)
    M = saddlekit.assemble(saddlekit.build(s, family, saddlekit.PChoice()))
    dense = densify(M)
    Y, Z = np.random.default_rng(0).standard_normal((2, s.n + s.m, 4))
    for got, want in ((M @ Y, dense @ Y), (M.T @ Z, dense.T @ Z), (M @ Y[:, 0], dense @ Y[:, 0])):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_traced_lookups_exist():
    missing = [f"{module.__name__}.{name}" for module, names in TRACED_LOOKUPS.items()
               for name in names if not hasattr(module, name)]
    assert missing == []


def test_pd_bound_is_one_function():
    # the PD gate's rule lives in precond; the package exports that function
    assert saddlekit.pd_bound is precond.pd_bound


def test_solve_with_is_the_one_front_end():
    # every solver runs by name through solve_with; no loop is exported,
    # under its own name or a solver's
    assert "solve_with" in saddlekit.__all__
    loops = set(solvers._SOLVERS.values())
    assert [name for name in saddlekit.__all__ if getattr(saddlekit, name) in loops] == []
    assert set(saddlekit.__all__).isdisjoint(solvers._SOLVERS)
