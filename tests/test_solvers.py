import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlekit import (
    BLOCK_TRI,
    CONSTRAINT,
    DivergenceError,
    PChoice,
    SaddleSystem,
    SolveConfig,
    best_report,
    build,
    build_oseen,
    build_random_singular,
    gcp_iterate,
    gmres_restarted,
    omega_sweep,
    qmr,
    solve_with,
)
from saddlekit import solvers
from saddlekit.solvers import CONVERGED, DIVERGED, INFEASIBLE, MAX_ITERS


def saddle(seed):
    return build_random_singular(n=8, m=4, rank_b=3, seed=seed)


def default_pc(system, omega=1.0):
    return build(system, CONSTRAINT, PChoice(kind="symmetric_scaled", omega=omega))


def true_res(system, report):
    A, b = system.matrix(), system.rhs()
    return np.linalg.norm(b - A @ report.x) / np.linalg.norm(b)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolveConfig(restart=0)


class TestGcp:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_converges_on_singular_system(self, seed):
        s = saddle(seed)
        report = gcp_iterate(s, default_pc(s))
        assert report.converged and report.status == CONVERGED
        assert true_res(s, report) < 1e-6
        # history[0] is RES at the zero initial guess, i.e. exactly 1
        assert report.residual_history[0] == pytest.approx(1.0)
        assert len(report.residual_history) == report.iterations + 1

    def test_divergence_raises(self):
        s = saddle(5)
        pc = default_pc(s, omega=0.05)  # far below the convergent range
        with pytest.raises(DivergenceError) as exc:
            gcp_iterate(s, pc, SolveConfig(max_iters=2000))
        assert exc.value.report.status == DIVERGED
        assert np.isfinite(exc.value.report.final_res)

    def test_max_iters_status(self):
        s = saddle(6)
        report = gcp_iterate(s, default_pc(s), SolveConfig(max_iters=2))
        assert not report.converged and report.status == MAX_ITERS

    def test_warm_start(self):
        s = saddle(7)
        first = gcp_iterate(s, default_pc(s))
        again = gcp_iterate(s, default_pc(s), SolveConfig(x0=first.x))
        assert again.iterations <= 1


class TestKrylov:
    @pytest.mark.parametrize("method", [gmres_restarted, qmr])
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_solve_nonsingular(self, method, seed):
        g = np.random.default_rng(seed)
        n = 10
        A = g.standard_normal((n, n)) + 5 * np.eye(n)
        x_true = g.standard_normal(n)
        s = SaddleSystem(W=A, B=np.zeros((0, n)), f=A @ x_true, g=np.zeros(0))
        report = method(s, None, SolveConfig(tol=1e-10))
        assert report.converged
        assert np.allclose(report.x[:n], x_true, atol=1e-6)

    @pytest.mark.parametrize("solver", ["gmres", "qmr"])
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_preconditioned_on_singular(self, solver, seed):
        s = saddle(seed)
        report = solve_with(solver, s, default_pc(s))
        assert report.converged
        assert true_res(s, report) < 1e-6

    def test_gmres_counts_inner_steps(self):
        s = saddle(9)
        report = gmres_restarted(s, default_pc(s), SolveConfig(restart=3))
        assert report.iterations == len(report.residual_history) - 1

    def test_restart_equivalence_when_short(self):
        # with restart >= total steps, restarting never triggers
        s = saddle(10)
        a = gmres_restarted(s, default_pc(s), SolveConfig(restart=50))
        b = gmres_restarted(s, default_pc(s), SolveConfig(restart=200))
        assert a.iterations == b.iterations

    def test_qmr_residual_monotone_envelope(self):
        s = saddle(13)
        report = qmr(s, default_pc(s))
        hist = np.array(report.residual_history)
        # true residuals need not be monotone, but must end below tol
        assert hist[-1] < 1e-6


class TestSweep:
    def test_flags_infeasible_and_finds_best(self):
        s = saddle(20)
        from saddlekit.analysis import pd_bound
        grid = [0.5 * pd_bound(s.W), 2.0 * pd_bound(s.W)]
        reports = omega_sweep(s, CONSTRAINT, "triangular_split", grid,
                              cfg=SolveConfig(max_iters=2000))
        assert reports[1].status == INFEASIBLE
        best = best_report(reports)
        assert (best.omega if best else None) in (grid[0], None)

    def test_empty_grid_rejected(self):
        s = saddle(21)
        with pytest.raises(ValueError):
            omega_sweep(s, CONSTRAINT, "symmetric_scaled", [])

    def test_parallel_matches_serial(self, monkeypatch):
        s = saddle(22)
        grid = [0.8, 1.0, 1.2]
        serial = omega_sweep(s, CONSTRAINT, "symmetric_scaled", grid)
        monkeypatch.setattr(solvers.os, "cpu_count", lambda: 3)  # 3 workers on any host
        monkeypatch.setenv("SADDLEKIT_THREADS", "3")
        parallel = omega_sweep(s, CONSTRAINT, "symmetric_scaled", grid)
        assert [r.iterations for r in serial] == [r.iterations for r in parallel]
        assert [r.omega for r in serial] == grid

    def test_programming_error_propagates(self):
        # a misspelled keyword is a TypeError, not an infeasible omega
        with pytest.raises(TypeError):
            omega_sweep(saddle(23), CONSTRAINT, "symmetric_scaled", [0.8, 1.0],
                        enforce_pdd=False)

    @pytest.mark.parametrize("value", ["0", "two", str((os.cpu_count() or 1) + 1)])
    def test_rejects_bad_thread_count(self, monkeypatch, value):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started before validating SADDLEKIT_THREADS")

        monkeypatch.setattr(solvers, "ThreadPoolExecutor", no_work)
        monkeypatch.setattr(solvers, "build", no_work)
        monkeypatch.setenv("SADDLEKIT_THREADS", value)
        with pytest.raises(ValueError, match="SADDLEKIT_THREADS"):
            omega_sweep(saddle(24), CONSTRAINT, "symmetric_scaled", [0.8, 1.0])


def test_report_csv(tmp_path):
    s = saddle(30)
    report = gcp_iterate(s, default_pc(s))
    path = tmp_path / "hist.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,res"
    assert len(lines) == len(report.residual_history) + 1


def test_solve_with_maps_divergence():
    s = saddle(31)
    report = solve_with("gcp", s, default_pc(s, omega=0.05),
                        SolveConfig(max_iters=2000))
    assert report.status == DIVERGED and not report.converged


def test_gmres_overflow_is_divergence():
    # M_t^{-1} overflows the preconditioned residual far beyond the PD bound
    s = build_oseen(16, 0.1)
    pc = build(s, BLOCK_TRI, PChoice(kind="triangular_split", omega=2000.0),
               enforce_pd=False)
    report = solve_with("gmres", s, pc)
    assert report.status == DIVERGED and not report.converged
