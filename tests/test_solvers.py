import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlekit import (
    BLOCK_DIAG,
    BLOCK_TRI,
    CONSTRAINT,
    IterationReport,
    NotPositiveDefinite,
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
from saddlekit.cli import CASE_MAP
from saddlekit.solvers import (
    BREAKDOWN,
    CONVERGED,
    DIVERGED,
    INFEASIBLE,
    MAX_ITERS,
    STAGNATED,
)


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

    def test_divergence_is_reported(self):
        s = saddle(5)
        pc = default_pc(s, omega=0.05)  # far below the convergent range
        report = gcp_iterate(s, pc, SolveConfig(max_iters=2000))
        assert report.status == DIVERGED and not report.converged
        assert report.x is None and np.isfinite(report.final_res)
        # the diverging RES is not recorded
        assert len(report.residual_history) == report.iterations

    def test_divergence_pinned_to_the_bit(self):
        # the stopping test's residual is reused as the next step's r; the
        # first overflowing step and its last finite RES must not move
        s = build_oseen(4, 0.1)
        pc = build(s, CONSTRAINT, PChoice(kind="triangular_split", omega=79.58),
                   enforce_pd=False)
        report = solve_with("gcp", s, pc)
        assert report.status == DIVERGED and report.iterations == 18
        assert report.final_res == 228777365847.74582

    def test_overflow_diverges_at_first_step(self):
        s = build_oseen(8, 0.1)
        pc = build(s, BLOCK_DIAG, PChoice(kind="triangular_split", omega=2000.0),
                   enforce_pd=False)
        report = solve_with("gcp", s, pc)
        assert report.status == DIVERGED and report.iterations == 1

    def test_max_iters_status(self):
        s = saddle(6)
        report = gcp_iterate(s, default_pc(s), SolveConfig(max_iters=2))
        assert not report.converged and report.status == MAX_ITERS


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
        assert [r.omega for r in reports] == grid
        assert reports[1].status == INFEASIBLE
        best = best_report(reports)
        assert (best.omega if best else None) in (grid[0], None)

    def test_gate_off_builds_past_pd_bound(self):
        s = saddle(20)
        from saddlekit.analysis import pd_bound
        (report,) = omega_sweep(s, CONSTRAINT, "triangular_split", [2.0 * pd_bound(s.W)],
                                cfg=SolveConfig(max_iters=50), enforce_pd=False)
        assert report.status != INFEASIBLE and report.iterations > 0

    def test_indefinite_h_raises(self):
        # the SPD check on H does not depend on omega: no omega is infeasible
        s = build_oseen(4, 0.001)
        for family in (CONSTRAINT, BLOCK_DIAG):
            with pytest.raises(NotPositiveDefinite):
                omega_sweep(s, family, "symmetric_scaled", [1.0, 2.0])

    def test_empty_grid_rejected(self):
        s = saddle(21)
        with pytest.raises(ValueError):
            omega_sweep(s, CONSTRAINT, "symmetric_scaled", [])

    def test_programming_error_propagates(self):
        # a misspelled keyword is a TypeError, not an infeasible omega
        with pytest.raises(TypeError):
            omega_sweep(saddle(23), CONSTRAINT, "symmetric_scaled", [0.8, 1.0],
                        enforce_pdd=False)


def test_report_derives_converged_and_final_res():
    done = IterationReport(2, [1.0, 0.5, 1e-7], 1.0, status=CONVERGED)
    assert done.converged and done.final_res == 1e-7
    none = IterationReport(0, [], 1.0, status=INFEASIBLE)
    assert not none.converged and np.isnan(none.final_res)
    with pytest.raises(AttributeError):
        done.converged = False
    with pytest.raises(AttributeError):
        done.final_res = 0.0


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


# sha256 of the residual-history bytes (then of x, when the report carries
# one) on build_oseen(8, nu) with max_iters=400 and no PD gate: one case per
# solver and way of ending, so every exit of the shared stopping path is
# pinned to the bit, not only its step count.  Each case runs through
# solve_with and through the solver function itself, which must agree.
HISTORY_DIGESTS = [
    ("gcp", 0.1, "I", 1.0, CONVERGED, 17,
     "53f885fb30cd963ffcdc96238839e697c8093b787ceb99cc41f6623ddb37aa31"),
    ("gcp", 0.001, "I", 1.0, DIVERGED, 8,
     "83e4897a4a9639b1f7b8c9f5b665d7a5d90d04bd5c18217797c1bf587f5d4ac7"),
    ("gcp", 0.001, "II", 0.06, MAX_ITERS, 400,
     "a0a3444fdfeff5eb4e310864b70430cc079178668579b32050b20d52db3d0182"),
    ("gmres", 0.1, "I", 1.0, CONVERGED, 10,
     "40774c4c4e5854952c1f45de26974dd0c837e7485d0bbafd651b419ffd8b4ec3"),
    # P lies far past pd_bound here, so SuperLU's P-solves round differently
    # from the dense triangular solves they replaced
    ("gmres", 0.001, "IV", 0.9, STAGNATED, 9,
     "42a8609f8b4b20b79cf96240c47c5383922229069ea4961ee4e6c719a1b39a7e"),
    ("qmr", 0.001, "I", 1.0, CONVERGED, 55,
     "9329cbe47b72709a4f4e4343e48a597bf5be02e22494edf18f6b28676e9304c4"),
    # the block formula's M^+ broke QMR down here after 132 steps
    ("qmr", 0.001, "II", 0.9, CONVERGED, 95,
     "ff3049f23d8882f434f22d71fb12c97a2c4595df4036799a2c3889031145755c"),
    ("qmr", 0.1, "VI", 0.34, BREAKDOWN, 76,
     "86e34f57397dd136db5dbe7f4cf6a6ba12f3a346a8d72eac827621962a4f8c87"),
    ("stationary", 0.001, "V", 1.0, DIVERGED, 7,
     "78163132eb29d5c7b80e69584d1268443be2d18b45e8ed5f9c3b009adb563800"),
]


SOLVER_FUNCTIONS = {"gcp": gcp_iterate, "stationary": gcp_iterate,
                    "gmres": gmres_restarted, "qmr": qmr}


def _pinned_runs():
    # a solve_with run keeps the id pytest gives the bare row
    for row in HISTORY_DIGESTS:
        row_id = "-".join(map(str, row))
        yield pytest.param(*row, False, id=row_id)
        yield pytest.param(*row, True, id=f"{row_id}-direct")


@pytest.mark.parametrize("solver,nu,case,omega,status,iterations,digest,direct",
                         list(_pinned_runs()))
def test_residual_history_pinned(solver, nu, case, omega, status, iterations, digest, direct):
    s = build_oseen(8, nu)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    cfg = SolveConfig(max_iters=400)
    if direct:
        report = SOLVER_FUNCTIONS[solver](s, pc, cfg)
    else:
        report = solve_with(solver, s, pc, cfg)
    assert (report.status, report.iterations) == (status, iterations)
    h = hashlib.sha256(np.asarray(report.residual_history, dtype=float).tobytes())
    if report.x is not None:
        h.update(report.x.tobytes())
    assert h.hexdigest() == digest
