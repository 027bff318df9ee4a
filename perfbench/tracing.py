"""Outside-in span tracing for the benchmark's traced runs.

The tracer replaces public names with timing wrappers: names the
benchmark calls itself, and names that a package module looks up in its
own globals at call time (``saddlekit.solvers.apply_pseudo_inverse``,
``saddlekit.precond.pinv``, ...).  No file of the package changes.  Each
call records one span ``[name, layer, start, end, parent, op, tag]`` in
memory; the spans are reduced to per-layer metrics at the end of the run
and can be written out as JSON lines.

A name that the package no longer has is not patched; the metrics that
need it are reported as unmeasured, with the missing name as the reason.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

import numpy as np

NAME, LAYER, START, END, PARENT, OP, TAG = range(7)

LAYERS = ("problems", "linalg", "precond", "solvers", "analysis", "cli")

SVD_KERNELS = {"linalg.svd", "linalg.pinv", "linalg.spectral_norm", "linalg.numerical_rank"}
EIG_KERNELS = {"linalg.pseudospectral_radius", "linalg.sym_sqrt", "linalg.sym_inv_sqrt"}
SOLVER_KINDS = {"gcp": "gcp", "stationary": "gcp", "gmres": "gmres", "qmr": "qmr"}
STATUSES = ("converged", "max_iters", "diverged", "breakdown", "stagnated", "infeasible")
CASES = ("I", "II", "III", "IV", "V", "VI")

# (metric, unit).  The order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.remainder_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count"),
       ("problems.build_oseen_s", "s"), ("problems.matrix_s", "s"),
       ("problems.matrix_calls", "count"), ("problems.A_bytes", "B"),
       ("problems.matvec_us", "us"),
       ("linalg.svd_s", "s"), ("linalg.svd_calls", "count"), ("linalg.cholesky_s", "s"),
       ("linalg.eig_s", "s"),
       ("precond.build_s", "s"), ("precond.build_calls", "count"),
       ("precond.apply_calls", "count"), ("precond.apply_t_calls", "count"),
       ("precond.apply_block_s", "s"), ("precond.apply_relres_max", "ratio"),
       ("precond.apply_share", "ratio")]
    + [(f"precond.apply_us.{c}", "us") for c in CASES]
    + [(f"precond.apply_t_us.{c}", "us") for c in CASES]
    + [(f"precond.build_case_s.{c}", "s") for c in CASES]
    + [(f"solvers.us_per_iter.{k}", "us") for k in ("gcp", "gmres", "qmr")]
    + [("solvers.iterations", "count")]
    + [(f"solvers.outcomes.{s}", "count") for s in STATUSES]
    + [("analysis.lemma4_s", "s"), ("analysis.gamma_s", "s"),
       ("analysis.projection_s", "s"), ("analysis.bounds_s", "s"),
       ("analysis.gamma_gap_max", "ratio"),
       ("bench.failed_frac", "ratio")]
)

# Span names each metric is computed from; a metric whose span could not be
# installed is unmeasured.
NEEDS = {
    "problems.build_oseen_s": ["problems.build_oseen"],
    "problems.matrix_s": ["problems.matrix"],
    "problems.matrix_calls": ["problems.matrix"],
    "linalg.svd_s": sorted(SVD_KERNELS),
    "linalg.svd_calls": sorted(SVD_KERNELS),
    "linalg.cholesky_s": ["linalg.cholesky"],
    "linalg.eig_s": sorted(EIG_KERNELS),
    "precond.build_s": ["precond.build"],
    "precond.build_calls": ["precond.build"],
    "precond.apply_calls": ["precond.apply"],
    "precond.apply_t_calls": ["precond.apply_t"],
    "precond.apply_block_s": ["precond.apply"],
    "precond.apply_share": ["precond.apply", "precond.apply_t", "solvers.solve"],
    "solvers.iterations": ["solvers.solve"],
    "analysis.lemma4_s": ["analysis.lemma4"],
    "analysis.gamma_s": ["analysis.gamma"],
    "analysis.projection_s": ["analysis.projection"],
    "analysis.bounds_s": ["analysis.bounds"],
    "cli.self_s": ["cli.main"],
}
for _c in CASES:
    NEEDS[f"precond.build_case_s.{_c}"] = ["precond.build"]
for _k in ("gcp", "gmres", "qmr"):
    NEEDS[f"solvers.us_per_iter.{_k}"] = ["solvers.solve"]
for _s in STATUSES:
    NEEDS[f"solvers.outcomes.{_s}"] = ["solvers.solve"]


def _apply_tag(args, kwargs, result):
    return [args[0].family, int(np.ndim(args[1]))]


def _solve_tag(args, kwargs, result):
    return [args[0], result.iterations, result.status]


class Tracer:
    """In-memory span recorder that patches and restores attributes."""

    def __init__(self, case_of):
        self.spans: list[list] = []
        self.op = None
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._case_of = case_of

    def _build_tag(self, args, kwargs, result):
        p_choice = args[2] if len(args) > 2 else kwargs["p_choice"]
        return self._case_of(args[1] if len(args) > 1 else kwargs["family"], p_choice.kind)

    def wrap(self, fn, name, layer, tag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, layer, tag=None):
        if not hasattr(owner, attr):
            label = getattr(owner, "__name__", "saddlekit")
            self.missing.setdefault(name, f"{label}.{attr} does not exist")
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, tag))

    def install(self, sk, package):
        """Wrap the benchmark's own API calls and the package's module lookups."""
        modules = {name: getattr(package, name, None)
                   for name in ("solvers", "precond", "analysis", "cli")}
        required = [
            # calls the benchmark makes itself, through the public names
            (sk, "build_oseen", "problems.build_oseen", None),
            (sk, "build", "precond.build", self._build_tag),
            (sk, "assemble", "precond.assemble", None),
            (sk, "apply_pseudo_inverse", "precond.apply", _apply_tag),
            (sk, "apply_pseudo_inverse_transpose", "precond.apply_t", _apply_tag),
            (sk, "solve_with", "solvers.solve", _solve_tag),
            (sk, "check_lemma4", "analysis.lemma4", None),
            (sk, "omega_bound_symmetric", "analysis.bounds", None),
            (sk, "omega_bound_triangular", "analysis.bounds", None),
            (sk, "pd_bound", "analysis.bounds", None),
            (sk, "cli_main", "cli.main", None),
            (package.SaddleSystem, "matrix", "problems.matrix", None),
            # names the package modules look up while they run
            ("solvers", "apply_pseudo_inverse", "precond.apply", _apply_tag),
            ("solvers", "apply_pseudo_inverse_transpose", "precond.apply_t", _apply_tag),
            ("solvers", "build", "precond.build", self._build_tag),
            ("solvers", "solve_with", "solvers.solve", _solve_tag),
            ("cli", "build_oseen", "problems.build_oseen", None),
            ("cli", "omega_sweep", "solvers.omega_sweep", None),
            ("analysis", "apply_pseudo_inverse", "precond.apply", _apply_tag),
            ("analysis", "gcp_convergence_indicator", "analysis.gamma", None),
            ("analysis", "projection_spectrum", "analysis.projection", None),
        ]
        for owner, attr, name, tag in required:
            if isinstance(owner, str):
                if modules[owner] is None:
                    self.missing.setdefault(name, f"saddlekit.{owner} does not exist")
                    continue
                owner = modules[owner]
            self.patch(owner, attr, name, name.split(".")[0], tag)
        # linalg kernels and the W splitting, wherever a module imports them
        for mod in (modules["precond"], modules["analysis"]):
            for fn in ("cholesky", "pinv", "spectral_norm", "numerical_rank", "svd",
                       "pseudospectral_radius", "sym_sqrt", "sym_inv_sqrt"):
                if hasattr(mod, fn):
                    self.patch(mod, fn, f"linalg.{fn}", "linalg")
            if hasattr(mod, "split"):
                self.patch(mod, "split", "problems.split", "problems")

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "tag": s[TAG]}) + "\n")


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    roots = 0.0
    for i, s in enumerate(spans):
        out[f"{s[LAYER]}.self_s"] += dur[i] - child[i]
        if s[PARENT] < 0:
            roots += dur[i]
    out["bench.remainder_s"] = wall - roots
    out["trace.wall_s"] = wall
    out["trace.spans"] = float(len(spans))

    def total(names, pred=lambda s: True):
        picked = [dur[i] for i, s in enumerate(spans) if s[NAME] in names and pred(s)]
        return sum(picked), len(picked)

    out["problems.build_oseen_s"] = total({"problems.build_oseen"})[0]
    out["problems.matrix_s"], n = total({"problems.matrix"})
    out["problems.matrix_calls"] = float(n)
    out["linalg.svd_s"], n = total(SVD_KERNELS)
    out["linalg.svd_calls"] = float(n)
    out["linalg.cholesky_s"] = total({"linalg.cholesky"})[0]
    out["linalg.eig_s"] = total(EIG_KERNELS)[0]
    out["precond.build_s"], n = total({"precond.build"})
    out["precond.build_calls"] = float(n)
    out["precond.apply_calls"] = float(
        total({"precond.apply"}, lambda s: s[TAG] and s[TAG][1] == 1)[1])
    out["precond.apply_t_calls"] = float(total({"precond.apply_t"})[1])
    out["precond.apply_block_s"] = total({"precond.apply"},
                                         lambda s: s[TAG] and s[TAG][1] == 2)[0]

    def under_solve(i):
        while i >= 0:
            if spans[i][NAME] == "solvers.solve":
                return True
            i = spans[i][PARENT]
        return False

    solve_s = total({"solvers.solve"})[0]
    in_solve = sum(dur[i] for i, s in enumerate(spans)
                   if s[NAME] in ("precond.apply", "precond.apply_t") and under_solve(s[PARENT]))
    out["precond.apply_share"] = in_solve / solve_s if solve_s > 0 else 0.0

    for case in CASES:
        builds = [dur[i] for i, s in enumerate(spans)
                  if s[NAME] == "precond.build" and s[TAG] == case]
        if builds:
            out[f"precond.build_case_s.{case}"] = statistics.median(builds)

    per_kind = {k: [0.0, 0] for k in ("gcp", "gmres", "qmr")}
    status_counts = dict.fromkeys(STATUSES, 0)
    iterations = 0
    for i, s in enumerate(spans):
        if s[NAME] != "solvers.solve" or not s[TAG]:
            continue
        solver, its, status = s[TAG]
        kind = per_kind[SOLVER_KINDS[solver]]
        kind[0] += dur[i]
        kind[1] += its
        iterations += its
        status_counts[status] = status_counts.get(status, 0) + 1
    for k, (t, its) in per_kind.items():
        if its:
            out[f"solvers.us_per_iter.{k}"] = 1e6 * t / its
    out["solvers.iterations"] = float(iterations)
    for status in STATUSES:
        out[f"solvers.outcomes.{status}"] = float(status_counts[status])

    out["analysis.lemma4_s"] = total({"analysis.lemma4"})[0]
    out["analysis.gamma_s"] = total({"analysis.gamma"})[0]
    out["analysis.projection_s"] = total({"analysis.projection"})[0]
    out["analysis.bounds_s"] = total({"analysis.bounds"})[0]
    return out


def unmeasured_reasons(tracer: Tracer) -> dict[str, str]:
    """Metrics with a span that could not be installed, with the reason."""
    reasons = {}
    for metric, names in NEEDS.items():
        lost = sorted({tracer.missing[n] for n in names if n in tracer.missing})
        if lost:
            reasons[metric] = "; ".join(lost)
    return reasons
