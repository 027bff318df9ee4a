import hashlib

import numpy as np
import pytest
import scipy.sparse as sps
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
    omega_sweep,
    pd_bound,
    solve_with,
)
from saddlekit import solvers
from saddlekit.tables import CASE_MAP
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

    @pytest.mark.parametrize("counts", [dict(max_iters=2.5), dict(max_iters=2.0),
                                        dict(restart=2.5), dict(max_iters=np.float64(3)),
                                        dict(max_iters=None)], ids=repr)
    def test_step_counts_integral(self, counts):
        # a float count once ran a fractional last gcp step and failed with a
        # TypeError inside the GMRES and QMR loops
        with pytest.raises(ValueError, match="invalid solve configuration"):
            SolveConfig(**counts)

    @pytest.mark.parametrize("solver", ["gcp", "gmres", "qmr"])
    def test_numpy_integer_counts(self, solver):
        s = saddle(0)
        cfg = SolveConfig(tol=1e-300, max_iters=np.int64(3), restart=np.int32(2))
        report = solve_with(solver, s, default_pc(s), cfg)
        assert (report.status, report.iterations) == (MAX_ITERS, 3)


class TestGcp:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_converges_on_singular_system(self, seed):
        s = saddle(seed)
        report = solve_with("gcp", s, default_pc(s))
        assert report.converged and report.status == CONVERGED
        assert true_res(s, report) < 1e-6
        # history[0] is RES at the zero initial guess, i.e. exactly 1
        assert report.residual_history[0] == pytest.approx(1.0)
        assert len(report.residual_history) == report.iterations + 1

    def test_divergence_is_reported(self):
        s = saddle(5)
        pc = default_pc(s, omega=0.05)  # far below the convergent range
        report = solve_with("gcp", s, pc, SolveConfig(max_iters=2000))
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
        assert report.final_res == 228777365847.74567

    def test_overflow_diverges_at_first_step(self):
        s = build_oseen(8, 0.1)
        pc = build(s, BLOCK_DIAG, PChoice(kind="triangular_split", omega=2000.0),
                   enforce_pd=False)
        report = solve_with("gcp", s, pc)
        assert report.status == DIVERGED and report.iterations == 1

    def test_max_iters_status(self):
        s = saddle(6)
        report = solve_with("gcp", s, default_pc(s), SolveConfig(max_iters=2))
        assert not report.converged and report.status == MAX_ITERS


class TestKrylov:
    @pytest.mark.parametrize("solver", ["gmres", "qmr"])
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_solve_nonsingular(self, solver, seed):
        # a full-rank B makes A nonsingular: the solve must reach its one
        # solution, here under the constraint M with P = I
        g = np.random.default_rng(seed)
        n, m = 10, 4
        W = g.standard_normal((n, n)) + 5 * np.eye(n)
        B = g.standard_normal((m, n))
        x_true = g.standard_normal(n + m)
        s = SaddleSystem(W=W, B=B, f=np.zeros(n), g=np.zeros(m))
        s = s.with_rhs(s.matrix() @ x_true)
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=np.eye(n)))
        report = solve_with(solver, s, pc, SolveConfig(tol=1e-10))
        assert report.converged
        assert np.allclose(report.x, x_true, atol=1e-6)

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
        report = solve_with("gmres", s, default_pc(s), SolveConfig(restart=3))
        assert report.iterations == len(report.residual_history) - 1

    def test_restart_equivalence_when_short(self):
        # with restart >= total steps, restarting never triggers
        s = saddle(10)
        a = solve_with("gmres", s, default_pc(s), SolveConfig(restart=50))
        b = solve_with("gmres", s, default_pc(s), SolveConfig(restart=200))
        assert a.iterations == b.iterations

    def test_qmr_residual_monotone_envelope(self):
        s = saddle(13)
        report = solve_with("qmr", s, default_pc(s))
        hist = np.array(report.residual_history)
        # true residuals need not be monotone, but must end below tol
        assert hist[-1] < 1e-6


class TestSweep:
    def test_flags_infeasible_and_finds_best(self):
        # at omega = 1e-320 the I/omega term of the triangular-split P
        # overflows, a build that fails without the PD gate
        s = saddle(20)
        grid = [0.5 * pd_bound(s.W), 1e-320]
        reports = omega_sweep(s, CONSTRAINT, "triangular_split", grid,
                              cfg=SolveConfig(max_iters=2000))
        assert [r.omega for r in reports] == grid
        assert reports[1].status == INFEASIBLE
        best = best_report(reports)
        assert (best.omega if best else None) in (grid[0], None)

    def test_gate_off_builds_past_pd_bound(self):
        s = saddle(20)
        (report,) = omega_sweep(s, CONSTRAINT, "triangular_split", [2.0 * pd_bound(s.W)],
                                cfg=SolveConfig(max_iters=50))
        assert report.status != INFEASIBLE and report.iterations > 0

    @pytest.mark.parametrize("family,kind,omega", [
        ("constrain", "symmetric_scaled", 1.0),
        (CONSTRAINT, "symmetric_scale", 1.0),
        (CONSTRAINT, "custom", 1.0),
        *[(CONSTRAINT, "triangular_split", w) for w in (0.0, -1.0, np.nan, np.inf)],
    ])
    def test_malformed_request_raises_before_any_build(self, monkeypatch, family, kind, omega):
        # a programming error is a ValueError, never an infeasible row
        def no_build(*args, **kwargs):
            raise AssertionError("built a preconditioner for a malformed sweep")

        monkeypatch.setattr(solvers, "build", no_build)
        with pytest.raises(ValueError):
            omega_sweep(saddle(22), family, kind, [0.5, omega])

    def test_unknown_solver_raises_before_any_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("built a preconditioner for an unknown solver")

        monkeypatch.setattr(solvers, "build", no_build)
        with pytest.raises(ValueError, match="unknown solver 'foo'; known: gcp, stationary"):
            omega_sweep(saddle(22), CONSTRAINT, "symmetric_scaled", [0.5, 1.0], solver="foo")

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


@pytest.mark.parametrize("solver", list(solvers._SOLVERS))
def test_every_solver_reports_its_case_label(solver):
    s = saddle(25)
    report = solve_with(solver, s, default_pc(s), SolveConfig(max_iters=3), case_label="I")
    assert report.case_label == "I"


def test_infeasible_sweep_point_reports_its_case_label():
    # at omega = 1e-320 the triangular-split P fails the PD gate: no solve runs
    s = saddle(20)
    reports = omega_sweep(s, CONSTRAINT, "triangular_split", [0.5 * pd_bound(s.W), 1e-320],
                          cfg=SolveConfig(max_iters=5), case_label="II")
    assert reports[1].status == INFEASIBLE
    assert [r.case_label for r in reports] == ["II", "II"]


def test_solve_with_unknown_solver():
    s = saddle(24)
    with pytest.raises(ValueError, match="unknown solver 'foo'; known: gcp, stationary, gmres, qmr"):
        solve_with("foo", s, default_pc(s))


def test_solve_with_maps_divergence():
    s = saddle(31)
    report = solve_with("gcp", s, default_pc(s, omega=0.05),
                        SolveConfig(max_iters=2000))
    assert report.status == DIVERGED and not report.converged


def test_gmres_overflow_is_divergence():
    # far beyond the PD bound M_t^{-1} b has entries near 1e168, too large to
    # square: the norm of the preconditioned residual overflows on the first cycle
    s = build_oseen(4, 0.1)
    pc = build(s, BLOCK_TRI, PChoice(kind="triangular_split", omega=1e150),
               enforce_pd=False)
    report = solve_with("gmres", s, pc)
    assert report.status == DIVERGED and report.iterations == 0


# (case, omega) on build_oseen(8, nu), both nu, where M^+ b has NaN entries:
# a solver that applies M^+ again to them raises ValueError
QMR_NON_FINITE_START = [("I", 1e300), ("II", 1e300), ("II", 1e-300), ("III", 1e300),
                        ("IV", 1e-300)]


@pytest.mark.parametrize("nu", [0.1, 0.001])
@pytest.mark.parametrize("case,omega", QMR_NON_FINITE_START)
def test_qmr_non_finite_start_is_divergence(nu, case, omega):
    s = build_oseen(8, nu)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    for solver in ("qmr", "gmres"):
        report = solve_with(solver, s, pc, SolveConfig(max_iters=200))
        assert (report.status, report.iterations, report.x) == (DIVERGED, 0, None)


def test_qmr_breakdown_scale_free():
    # at omega = 1e-30, ||M^+ b|| is near 1e30: the first delta = w^T v of the
    # unit vectors is 1, which once read as a breakdown at step 0
    s = build_oseen(8, 0.1)
    pc = build(s, CONSTRAINT, PChoice(kind="symmetric_scaled", omega=1e-30))
    cfg = SolveConfig(max_iters=200)
    report = solve_with("qmr", s, pc, cfg)
    assert (report.status, report.iterations) == (BREAKDOWN, 23)
    assert report.final_res < 0.75
    assert solve_with("gmres", s, pc, cfg).iterations == 200


@pytest.mark.parametrize("case,omega", [("I", 1.0), ("V", 1.0), ("VI", 0.34)])
def test_qmr_stored_transpose_matches_view(monkeypatch, case, omega):
    # QMR's one CSR A^T gives the bits the view A.T gave: with tocsr on the
    # view patched to hand the view back, the run reads the same to the bit
    s = build_oseen(8, 0.001)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    cfg = SolveConfig(max_iters=200)
    stored = solve_with("qmr", s, pc, cfg)
    kept_views = []

    def keep_view(self, copy=False):
        kept_views.append(self.shape)
        return self

    monkeypatch.setattr(sps.csc_array, "tocsr", keep_view)
    viewed = solve_with("qmr", s, pc, cfg)
    assert kept_views == [(s.n + s.m, s.n + s.m)]
    assert (viewed.status, viewed.iterations) == (stored.status, stored.iterations)
    assert stored.iterations > 10
    assert np.array_equal(viewed.residual_history, stored.residual_history)
    assert np.array_equal(viewed.x, stored.x)


@pytest.mark.parametrize("solver", ["gmres", "qmr"])
@pytest.mark.parametrize("case,omega", [("V", 1.0), ("VI", 0.1)])
def test_no_sparse_array_built_per_step(monkeypatch, solver, case, omega):
    # every sparse array a solve needs (A; QMR's A^T; the block-triangular
    # B^T at build) exists before the first step: a product with a
    # transposed view would build one on every step
    s = build_oseen(8, 0.001)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    built = []
    init = sps._base._spbase.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sps._base._spbase, "__init__", counting_init)
    counts = []
    for max_iters in (5, 50):
        built.clear()
        report = solve_with(solver, s, pc, SolveConfig(max_iters=max_iters))
        assert report.iterations == max_iters
        counts.append(len(built))
    assert counts[0] == counts[1]


# sha256 of the residual-history bytes (then of x, when the report carries
# one) on build_oseen(8, nu) with max_iters=400 and no PD gate: one case per
# solver and way of ending, so every exit of the shared stopping path is
# pinned to the bit, not only its step count (QMR's breakdown exit is
# checked by test_qmr_breakdown_scale_free).
HISTORY_DIGESTS = [
    ("gcp", 0.1, "I", 1.0, CONVERGED, 17,
     "9ad6274ec9bb6c64c88e0dad2a004c15b82127069e8511ad86f6cba41299278a"),
    ("gcp", 0.001, "I", 1.0, DIVERGED, 8,
     "ec4e2caa864ef4aec46a7fcb21014509f71df24baeaaaf721126cfc545968b95"),
    ("gcp", 0.001, "II", 0.06, MAX_ITERS, 400,
     "be47bdc28cfe672c73e282f00b47833f6fe4ca7ecf95cac98f3e13869ff9b2fb"),
    ("gmres", 0.1, "I", 1.0, CONVERGED, 10,
     "46818fbcd1935e53d9b5f670dc7ec29e26eaf2168e2acf00481ccc11d7428fcf"),
    # P lies far past pd_bound here, so each change of how Case IV factors
    # (SuperLU's P-solves, then E^+ from the pinned LU of M) re-rounds it;
    # status and step count have held
    ("gmres", 0.001, "IV", 0.9, STAGNATED, 9,
     "e13a884e416eb21a9bc79cf97721a5e150678c8b54f19b4bbc88fdc5c457b2ec"),
    ("qmr", 0.001, "I", 1.0, CONVERGED, 55,
     "0d694b409003f8dfacc7178319847739c1e39691926a502b2e81c0062ca4152c"),
    # the block formula's M^+ broke QMR down here after 132 steps
    ("qmr", 0.001, "II", 0.9, CONVERGED, 90,
     "b0bd8eb1aec51c0acb2dc0e33d1bf7467a3de94d6d187dfe807e73ba54c04532"),
    # broke down at step 179 while epsilon = q^T op(p) was tested against the
    # scale of the first preconditioned residual, not against ||q|| ||op(p)||
    ("qmr", 0.1, "VI", 0.34, MAX_ITERS, 400,
     "039e506bd972fe4c49ec26710bbea3a1b0c722f0eb07007a8f8dbe913039b267"),
    ("stationary", 0.001, "V", 1.0, DIVERGED, 7,
     "9a4cf474338187db800a063b0029aa7427cc81b618f46a1d2030bcc986cdfd6f"),
]


@pytest.mark.parametrize("solver,nu,case,omega,status,iterations,digest", HISTORY_DIGESTS)
def test_residual_history_pinned(solver, nu, case, omega, status, iterations, digest):
    s = build_oseen(8, nu)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    report = solve_with(solver, s, pc, SolveConfig(max_iters=400))
    assert (report.status, report.iterations) == (status, iterations)
    h = hashlib.sha256(np.asarray(report.residual_history, dtype=float).tobytes())
    if report.x is not None:
        h.update(report.x.tobytes())
    assert h.hexdigest() == digest
