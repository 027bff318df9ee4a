"""The four benchmark workloads.

Every workload is a closed loop: one operation at a time, the next one
started when the previous one returns.  A pass is the workload's full list
of operations.  The benchmark seed permutes the order of the operations and
draws the random test vectors; the problems themselves (grid, viscosity,
right-hand side) are the paper's fixed benchmark instances, so the work per
pass and every iteration count are the same on every seed.

Each workload talks to the package only through ``sk``: the names in
``saddlekit.__all__`` plus ``cli_main`` (``saddlekit.cli.main``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

TOL = 1e-6
RELRES_LIMIT = 1e-8
CASES = ("I", "II", "III", "IV", "V", "VI")


def case_families(sk):
    """Case label -> (family, P kind), as the paper numbers the six cases."""
    return {"I": (sk.CONSTRAINT, sk.SYMMETRIC_SCALED),
            "II": (sk.CONSTRAINT, sk.TRIANGULAR_SPLIT),
            "III": (sk.BLOCK_DIAG, sk.SYMMETRIC_SCALED),
            "IV": (sk.BLOCK_DIAG, sk.TRIANGULAR_SPLIT),
            "V": (sk.BLOCK_TRI, sk.SYMMETRIC_SCALED),
            "VI": (sk.BLOCK_TRI, sk.TRIANGULAR_SPLIT)}


@dataclass
class Outcome:
    """What one operation returned, before it is checked."""

    op: str
    status: str = "ok"
    iterations: int = 0
    relres: float | None = None      # M+ a-posteriori residual
    verdict: dict | None = None
    gamma_gap: float | None = None   # |gamma_T - gamma(X(P-W))| / gamma(X(P-W))
    error: str | None = None
    solution: tuple | None = field(default=None, repr=False)  # (system, x, final_res)


class Clock:
    """Adds up the time spent in set-up calls and in solve calls of a pass."""

    def __init__(self):
        self.setup = 0.0
        self.solve = 0.0

    def setup_call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.setup += perf_counter() - t0

    def solve_call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.solve += perf_counter() - t0


def _guard(outcome: Outcome, fn, *args):
    """Run one operation; an exception marks it failed instead of ending the pass."""
    try:
        fn(outcome, *args)
    except Exception as exc:  # an operation that raises counts as failed
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


class Workload:
    name = ""
    l = 16
    setup_in_pass = True   # the pass itself makes the set-up calls
    setup_reps = 4         # extra set-up samples taken before the passes

    def __init__(self, sk, seed: int):
        self.sk = sk
        self.seed = seed
        self.tracer = None
        self.families = case_families(sk)
        self.state = None
        self.apply_times = {}  # case -> (M+ times, (M+)^T times) timed inside a pass

    def rng(self, salt: int = 0):
        return np.random.default_rng([self.seed, salt])

    def order(self, items):
        """The seed's permutation of the operation list."""
        return [items[i] for i in self.rng(1).permutation(len(items))]

    def make_pc(self, clock, system, case, omega):
        family, kind = self.families[case]
        return clock.setup_call(self.sk.build, system, family,
                                self.sk.PChoice(kind=kind, omega=omega), enforce_pd=False)

    def set_op(self, op):
        if self.tracer is not None:
            self.tracer.op = op

    def solve(self, clock, outcome, solver, system, pc, case):
        rep = clock.solve_call(self.sk.solve_with, solver, system, pc,
                               self.sk.SolveConfig(tol=TOL), case_label=case)
        outcome.status = rep.status
        outcome.iterations = rep.iterations
        if rep.converged:
            outcome.solution = (system, rep.x, rep.final_res)
        return rep

    def set_up(self, clock):
        raise NotImplementedError

    def run_pass(self, clock) -> list[Outcome]:
        raise NotImplementedError

    def probe_targets(self):
        """(case, system, pc) for the per-operation probes, one per case."""
        raise NotImplementedError

    def probe_system(self):
        """The system whose A @ x is probed."""
        return self.probe_targets()[0][1]


# The 17 converged cells of tables 2-4 at l = 16, each at the omega its
# table cell selects: the best of {0.9, 1.0, 1.1} x the published omega.
# (table, nu, case, solver, factor, published omega)
SOLVE16_CELLS = (
    (2, 0.1, "I", "gcp", 1.1, 1.00),
    (3, 0.1, "I", "gmres", 0.9, 1.50),
    (3, 0.1, "III", "gmres", 0.9, 0.03),
    (3, 0.1, "IV", "gmres", 0.9, 0.02),
    (3, 0.1, "V", "gmres", 1.1, 0.01),
    (4, 0.1, "I", "qmr", 0.9, 1.52),
    (4, 0.1, "III", "qmr", 0.9, 2.12),
    (4, 0.1, "V", "qmr", 1.0, 1.26),
    (2, 0.001, "II", "gcp", 0.9, 0.08),
    (3, 0.001, "I", "gmres", 0.9, 26.40),
    (3, 0.001, "II", "gmres", 1.1, 0.04),
    (3, 0.001, "IV", "gmres", 1.1, 0.06),
    (4, 0.001, "I", "qmr", 0.9, 24.10),
    (4, 0.001, "II", "qmr", 1.1, 0.06),
    (4, 0.001, "IV", "qmr", 0.9, 0.09),
    (4, 0.001, "V", "qmr", 1.0, 28.35),
    (4, 0.001, "VI", "qmr", 1.0, 0.02),
)


class Solve16(Workload):
    """Time to a 1e-6 solution for every converged table cell at l = 16."""

    name = "solve16"

    def set_up(self, clock):
        systems = {nu: clock.setup_call(self.sk.build_oseen, self.l, nu)
                   for nu in self.order([0.1, 0.001])}
        cells = []
        for table, nu, case, solver, factor, published in self.order(SOLVE16_CELLS):
            omega = factor * published
            pc = self.make_pc(clock, systems[nu], case, omega)
            cells.append((f"T{table}/{nu:g}/{case}", solver, systems[nu], pc, case))
        self.state = cells
        return cells

    def run_pass(self, clock):
        outcomes = []
        for op, solver, system, pc, case in self.set_up(clock):
            self.set_op(op)
            outcomes.append(_guard(Outcome(op), lambda o: self.solve(
                clock, o, solver, system, pc, case)))
        return outcomes

    def probe_targets(self):
        seen = {}
        for _, _, system, pc, case in self.state:
            seen.setdefault(case, (case, system, pc))
        return list(seen.values())


SWEEP16_ARGV = ["sweep", "--case", "II", "--nu", "0.001", "-l", "16",
                "--omega-grid", "0.02:0.1:0.01"]
SWEEP16_GRID = [float(w) for w in np.arange(0.02, 0.1 + 0.005, 0.01)]


class Sweep16(Workload):
    """The README's Case II omega sweep, run through the command line."""

    name = "sweep16"
    setup_in_pass = False
    setup_reps = 5

    def set_up(self, clock):
        # The sweep builds inside the command; this is the same set-up made
        # through the public API, so that its cost is measured on its own.
        system = clock.setup_call(self.sk.build_oseen, self.l, 0.001)
        self.state = [(system, self.make_pc(clock, system, "II", omega))
                      for omega in SWEEP16_GRID]
        return self.state

    def run_pass(self, clock):
        self.set_op("sweep")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = clock.solve_call(self.sk.cli_main, list(SWEEP16_ARGV))
        self.csv = out.getvalue()
        if code != 0:
            return [Outcome("sweep", error=f"exit code {code}")]
        outcomes = []
        for row in csv.DictReader(line for line in self.csv.splitlines()
                                  if not line.startswith("#")):
            o = Outcome(f"omega={row['omega']}", status=row["status"])
            if row["iterations"] != "-":
                o.iterations = int(row["iterations"])
            if o.status == "converged":
                # the command prints no solution; its own true residual is checked
                o.solution = (None, None, float(row["final_res"]))
            outcomes.append(o)
        return outcomes

    def probe_targets(self):
        # the sweep's best omega, 0.07
        system, pc = self.state[int(np.argmin(np.abs(np.array(SWEEP16_GRID) - 0.07)))]
        return [("II", system, pc)]


# l = 32, nu = 0.001, the published omega of table 4 (Case III from table 3).
SETUP32_CASES = (("I", 21.60), ("II", 0.05), ("III", 0.02), ("IV", 0.11),
                 ("V", 25.67), ("VI", 0.04))
SETUP32_APPLIES = 4
SETUP32_SOLVES = 3   # repeats of the closing solve, so that solve_s is not one short call


class Setup32(Workload):
    """Set-up at l = 32: six builds, seeded M+ applies with an exactness check."""

    name = "setup32"
    l = 32
    setup_reps = 0

    def run_pass(self, clock):
        sk = self.sk
        system = clock.setup_call(sk.build_oseen, self.l, 0.001)
        rng = self.rng(2)
        self.apply_times = {}
        outcomes = []
        for case, omega in self.order(SETUP32_CASES):
            self.set_op(case)
            o = Outcome(f"mplus/{case}")
            outcomes.append(_guard(o, self._check_case, clock, system, case, omega, rng))
        self.set_op("solve")
        system01 = clock.setup_call(sk.build_oseen, self.l, 0.1)
        pc01 = self.make_pc(clock, system01, "I", 1.59)
        for _ in range(SETUP32_SOLVES):
            outcomes.append(_guard(Outcome("gcp/0.1/I"), lambda o: self.solve(
                clock, o, "gcp", system01, pc01, "I")))
        self.state = system
        return outcomes

    def _check_case(self, o, clock, system, case, omega, rng):
        sk = self.sk
        pc = self.make_pc(clock, system, case, omega)
        N = system.n + system.m
        R = rng.standard_normal((N, SETUP32_APPLIES))
        Y, Z = np.empty_like(R), np.empty_like(R)
        times = ([], [])
        for j in range(SETUP32_APPLIES):
            t0 = perf_counter()
            Y[:, j] = sk.apply_pseudo_inverse(pc, R[:, j])
            t1 = perf_counter()
            Z[:, j] = sk.apply_pseudo_inverse_transpose(pc, R[:, j])
            times[0].append(t1 - t0)
            times[1].append(perf_counter() - t1)
        self.apply_times[case] = times
        o.relres = mplus_relres(sk, pc, system, R, Y, Z)

    def probe_targets(self):
        return []  # the pass times its own applies; see apply_times

    def probe_system(self):
        return self.state


def null_vector(sk, pc, system):
    """v = (0, e/sqrt(m)) for the singular families, 0 for block-triangular."""
    v = np.zeros(system.n + system.m)
    if pc.family != sk.BLOCK_TRI:
        v[system.n:] = 1.0 / np.sqrt(system.m)
    return v


def mplus_relres(sk, pc, system, R, Y, Z):
    """max over columns of ||M y - (I - vv^T) r|| / ||r|| and the same for M^T z."""
    M = sk.assemble(pc)
    v = null_vector(sk, pc, system)
    target = R - np.outer(v, v @ R)
    norms = np.linalg.norm(R, axis=0)
    res_y = np.linalg.norm(M @ Y - target, axis=0) / norms
    res_z = np.linalg.norm(M.T @ Z - target, axis=0) / norms
    return float(max(res_y.max(), res_z.max()))


# One fixed omega per (nu, case) for the spectral analysis: table 3's
# published omega for Cases I, III and IV, and 0.06 for Case II.
ANALYZE16_POINTS = ((0.1, "I", 1.50), (0.1, "II", 0.06), (0.1, "III", 0.03),
                    (0.1, "IV", 0.02), (0.001, "I", 26.40), (0.001, "II", 0.06),
                    (0.001, "III", 0.04), (0.001, "IV", 0.06))
# The constraint-family points are also solved with gcp, so that the
# indicator's verdict (gamma(X(P - W)) < 1) meets the iteration it predicts.
ANALYZE16_SOLVES = ((0.1, "I"), (0.1, "II"), (0.001, "I"), (0.001, "II"))
ANALYZE16_SOLVE_REPEATS = 3   # so that solve_s is not 1.7 s of short calls


class Analyze16(Workload):
    """Spectral convergence analysis for Cases I-IV at l = 16, both nu."""

    name = "analyze16"

    def set_up(self, clock):
        systems = {nu: clock.setup_call(self.sk.build_oseen, self.l, nu)
                   for nu in self.order([0.1, 0.001])}
        points = [(nu, case, systems[nu], self.make_pc(clock, systems[nu], case, omega))
                  for nu, case, omega in self.order(ANALYZE16_POINTS)]
        self.state = (systems, points)
        return self.state

    def run_pass(self, clock):
        systems, points = self.set_up(clock)
        outcomes = []
        for nu in sorted(systems):
            self.set_op(f"bounds/{nu:g}")
            outcomes.append(_guard(Outcome(f"bounds/{nu:g}"), self._bounds, systems[nu]))
        gammas = {}
        for nu, case, system, pc in points:
            op = f"lemma4/{nu:g}/{case}"
            self.set_op(op)
            o = _guard(Outcome(op), self._lemma4, system, pc)
            outcomes.append(o)
            if o.verdict is not None:
                gammas[(nu, case)] = o.verdict
        for nu, case, system, pc in ANALYZE16_SOLVE_REPEATS * points:
            if (nu, case) not in ANALYZE16_SOLVES:
                continue
            op = f"gcp/{nu:g}/{case}"
            self.set_op(op)

            def solve(o):
                rep = self.solve(clock, o, "gcp", system, pc, case)
                verdict = gammas.get((nu, case))
                if verdict is not None:
                    o.verdict = {"gamma_predicts_convergence":
                                 verdict["gamma_XPW_lt_1"] == rep.converged}
            outcomes.append(_guard(Outcome(op), solve))
        return outcomes

    def _bounds(self, o, system):
        sk = self.sk
        o.verdict = {"omega_bound_symmetric": sk.omega_bound_symmetric(system.W),
                     "omega_bound_triangular": sk.omega_bound_triangular(system.W),
                     "pd_bound": sk.pd_bound(system.W)}

    def _lemma4(self, o, system, pc):
        rep = self.sk.check_lemma4(system, pc)
        o.verdict = {"null_ok": rep.lemma4_null_ok, "index_ok": rep.lemma4_index_ok,
                     "gamma_T_lt_1": rep.lemma4_gamma_ok,
                     "projector_ones": rep.projector_eig_ones,
                     "projector_zeros": rep.projector_eig_zeros}
        if rep.gamma_XPW is not None:
            o.verdict["gamma_XPW_lt_1"] = bool(rep.gamma_XPW < 1.0)
            o.gamma_gap = abs(rep.gamma_T - rep.gamma_XPW) / rep.gamma_XPW

    def probe_targets(self):
        seen = {}
        for _, case, system, pc in self.state[1]:
            seen.setdefault(case, (case, system, pc))
        return list(seen.values())


WORKLOADS = {w.name: w for w in (Solve16, Sweep16, Setup32, Analyze16)}


def _median_call_us(fn, *args, budget=0.3, most=50):
    """Median time of one call in microseconds, over as many calls as fit the budget."""
    t0 = perf_counter()
    fn(*args)
    reps = int(min(most, max(5, budget / max(perf_counter() - t0, 1e-9))))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times)


def probe(workload) -> dict[str, float]:
    """Per-operation probes on warmed preconditioners, run with tracing off.

    One M+ apply, one (M+)^T apply and the M+ a-posteriori residual per case
    the workload built, and one A @ x, all at the workload's grid size.
    ``problems.A_bytes`` is computed from the storage of A, not measured.
    """
    sk = workload.sk
    rng = workload.rng(3)
    out, relres = {}, []
    for case, system, pc in workload.probe_targets():
        r = rng.standard_normal((system.n + system.m, 1))
        out[f"precond.apply_us.{case}"] = _median_call_us(sk.apply_pseudo_inverse, pc, r[:, 0])
        out[f"precond.apply_t_us.{case}"] = _median_call_us(
            sk.apply_pseudo_inverse_transpose, pc, r[:, 0])
        y = sk.apply_pseudo_inverse(pc, r[:, 0])[:, None]
        z = sk.apply_pseudo_inverse_transpose(pc, r[:, 0])[:, None]
        relres.append(mplus_relres(sk, pc, system, r, y, z))
    for case, (t_apply, t_apply_t) in workload.apply_times.items():
        out[f"precond.apply_us.{case}"] = 1e6 * statistics.median(t_apply)
        out[f"precond.apply_t_us.{case}"] = 1e6 * statistics.median(t_apply_t)
    if relres:
        out["precond.apply_relres_max"] = max(relres)
    A = workload.probe_system().matrix()
    x = rng.standard_normal(A.shape[1])
    out["problems.matvec_us"] = _median_call_us(A.__matmul__, x)
    if isinstance(A, np.ndarray):
        out["problems.A_bytes"] = float(A.nbytes)
    else:  # a scipy.sparse matrix: the arrays it multiplies from
        out["problems.A_bytes"] = float(sum(getattr(A, name).nbytes
                                            for name in ("data", "indices", "indptr")))
    return out
