#!/usr/bin/env python3
"""Benchmark for saddlekit: end-to-end and per-layer metrics on four workloads.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload solve16 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --workload setup32 --record      # rewrite its reference

Workloads (see ``workloads.py``): ``solve16``, ``sweep16``, ``setup32`` and
``analyze16``.  A run makes a small warm-up, a few timed set-up samples,
and then whole passes of the workload until ``--seconds`` would be
exceeded by one more pass (always at least one pass).  Every operation's
result is checked against ``reference.json``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of the untraced passes.
``--trace 1`` adds one traced pass and the per-operation probes and reports
the per-layer metrics instead (see ``tracing.py``); its spans are written
to ``perfbench/out/``.

The process runs single threaded: OpenBLAS gets one thread and the package's
omega sweeps stay serial (``SADDLEKIT_THREADS=1``).
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SADDLEKIT_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported

import argparse
import json
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"
DEFAULT_SEED = 0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("iters_per_s", "1/s"), ("iters_total", "count"), ("peak_rss_mb", "MB"))


def load_package():
    """Import saddlekit from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "saddlekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no saddlekit package under {src}")
    sys.path.insert(0, str(src))
    import saddlekit
    import saddlekit.cli

    if Path(saddlekit.__file__).resolve().parent != (src / "saddlekit").resolve():
        raise SystemExit(f"perfbench: imported saddlekit from {saddlekit.__file__}")
    sk = types.SimpleNamespace(**{name: getattr(saddlekit, name) for name in saddlekit.__all__})
    sk.cli_main = saddlekit.cli.main
    return saddlekit, sk


def environment(package) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "saddlekit": package.__version__, "threads": THREAD_ENV}


def warm_up(sk):
    """Load every code path once on a small grid before anything is timed."""
    system = sk.build_oseen(8, 0.1)
    families = wl.case_families(sk)
    for case, (family, kind) in families.items():
        pc = sk.build(system, family, sk.PChoice(kind=kind, omega=0.5), enforce_pd=False)
        r = system.rhs()
        sk.apply_pseudo_inverse(pc, r)
        sk.apply_pseudo_inverse_transpose(pc, r)
        solver = "stationary" if family == sk.BLOCK_TRI else "gcp"
        for name in (solver, "gmres", "qmr"):
            sk.solve_with(name, system, pc, sk.SolveConfig(max_iters=20))


def run_passes(workload, seconds):
    """Untraced passes until one more would overrun ``seconds``; at least one."""
    setup_samples, passes = [], []
    for _ in range(workload.setup_reps):
        clock = wl.Clock()
        workload.set_up(clock)
        setup_samples.append(clock.setup)
    start = perf_counter()
    while True:
        clock = wl.Clock()
        t0 = perf_counter()
        outcomes = workload.run_pass(clock)
        wall = perf_counter() - t0
        passes.append({"wall": wall, "setup": clock.setup, "solve": clock.solve,
                       "outcomes": outcomes})
        if workload.setup_in_pass:
            setup_samples.append(clock.setup)
        typical = statistics.median(p["wall"] for p in passes)
        if perf_counter() - start + typical > seconds:
            return setup_samples, passes


def traced_pass(workload, package):
    cases = {v: k for k, v in wl.case_families(workload.sk).items()}
    tracer = tracing.Tracer(case_of=lambda family, kind: cases.get((family, kind)))
    workload.tracer = tracer
    tracer.install(workload.sk, package)
    try:
        clock = wl.Clock()
        t0 = perf_counter()
        outcomes = workload.run_pass(clock)
        wall = perf_counter() - t0
    finally:
        tracer.restore()
        workload.tracer = None
    return tracer, wall, outcomes


# ---------------------------------------------------------------- checks

def same_verdict(got: dict | None, ref: dict | None) -> bool:
    if ref is None:
        return got is None
    if got is None or set(got) != set(ref):
        return False
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, float) and not isinstance(want, bool):
            if not np.isclose(have, want, rtol=1e-6, atol=0.0):
                return False
        elif have != want:
            return False
    return True


def failure_reasons(outcome, ref_ops, matrices) -> list[str]:
    """Why an operation failed; empty when it passed every check."""
    reasons = []
    if outcome.error:
        return [outcome.error]
    ref = ref_ops.get(outcome.op)
    if ref is None:
        reasons.append("operation missing from the reference")
    else:
        if outcome.status != ref["status"]:
            reasons.append(f"status {outcome.status}, reference {ref['status']}")
        if not same_verdict(outcome.verdict, ref.get("verdict")):
            reasons.append(f"verdict {outcome.verdict}, reference {ref.get('verdict')}")
    if outcome.status == "converged" and outcome.solution is not None:
        system, x, final_res = outcome.solution
        res = final_res
        if system is not None:
            key = id(system)
            if key not in matrices:
                matrices[key] = (system.matrix(), system.rhs())
            A, b = matrices[key]
            res = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
        if not res <= wl.TOL:
            reasons.append(f"true residual {res:.3e} above {wl.TOL:g}")
    if outcome.relres is not None and not outcome.relres <= wl.RELRES_LIMIT:
        reasons.append(f"M+ a-posteriori residual {outcome.relres:.3e} "
                       f"above {wl.RELRES_LIMIT:g}")
    return reasons


def check(all_outcomes, reference):
    """(attempted, failed, unexpected failures, per-op reasons) over every pass."""
    ref_ops = reference["ops"]
    known = set(reference.get("known_failures", []))
    matrices, failed, unexpected, notes = {}, 0, [], {}
    for outcome in all_outcomes:
        reasons = failure_reasons(outcome, ref_ops, matrices)
        if reasons:
            failed += 1
            notes[outcome.op] = reasons
            if outcome.op not in known:
                unexpected.append(outcome.op)
    return len(all_outcomes), failed, unexpected, notes


def record(name, outcomes, workload):
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    matrices = {}
    ops, known = {}, []
    for o in outcomes:
        if o.error:
            raise SystemExit(f"perfbench: {o.op} raised while recording: {o.error}")
        ops[o.op] = {"status": o.status, "iterations": o.iterations, "verdict": o.verdict}
        if o.relres is not None:
            ops[o.op]["relres"] = o.relres
        if failure_reasons(o, ops, matrices):
            known.append(o.op)
    entry = {"ops": dict(sorted(ops.items())), "known_failures": sorted(known)}
    if name == "sweep16":
        entry["csv"] = workload.csv
    reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name}: {len(ops)} operations, known failures {sorted(known)}")


# ---------------------------------------------------------------- metrics

def end_to_end(setup_samples, passes):
    iters = [sum(o.iterations for o in p["outcomes"]) for p in passes]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(p["solve"] for p in passes),
        "iters_per_s": statistics.median(i / p["solve"] for i, p in zip(iters, passes)),
        "iters_total": float(statistics.median(iters)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, traced_wall, untraced_wall, outcomes, attempted, failed):
    values = tracing.layer_metrics(tracer, traced_wall)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values.update(wl.probe(workload))
    relres = [o.relres for o in outcomes if o.relres is not None]
    if "precond.apply_relres_max" in values:  # from the probes
        relres.append(values["precond.apply_relres_max"])
    if relres:
        values["precond.apply_relres_max"] = max(relres)
    gaps = [o.gamma_gap for o in outcomes if o.gamma_gap is not None]
    if gaps:
        values["analysis.gamma_gap_max"] = max(gaps)
    values["bench.failed_frac"] = failed / attempted
    unmeasured = tracing.unmeasured_reasons(tracer)
    for metric, _ in tracing.PER_LAYER:
        if metric not in values:
            unmeasured.setdefault(metric, f"not exercised by {workload.name}")
    return values, unmeasured


# ---------------------------------------------------------------- runs

def run_one(args) -> dict:
    package, sk = load_package()
    print("environment " + json.dumps(environment(package)), flush=True)
    workload = wl.WORKLOADS[args.workload](sk, args.seed)
    warm_up(sk)
    setup_samples, passes = run_passes(workload, args.seconds)
    outcomes = [o for p in passes for o in p["outcomes"]]
    if args.record:
        record(args.workload, passes[0]["outcomes"], workload)
    if args.trace:
        tracer, traced_wall, traced_outcomes = traced_pass(workload, package)
        outcomes += traced_outcomes
    reference = json.loads(REFERENCE.read_text())[args.workload]
    attempted, failed, unexpected, notes = check(outcomes, reference)
    for op, reasons in sorted(notes.items()):
        label = "known failure" if op not in unexpected else "FAILED"
        print(f"{label} {op}: {'; '.join(reasons)}")
    drift = {o.op: (reference["ops"][o.op]["iterations"], o.iterations)
             for o in passes[0]["outcomes"]
             if o.op in reference["ops"] and reference["ops"][o.op]["iterations"] != o.iterations}
    for op, (was, now) in sorted(drift.items()):
        print(f"iteration drift {op}: reference {was}, now {now}")
    if args.workload == "sweep16" and workload.csv != reference["csv"]:
        print("sweep16 output differs from the reference CSV:\n" + workload.csv)
    print(f"{args.workload}: {len(passes)} pass(es), {attempted} operations, {failed} failed")

    if args.trace:
        values, unmeasured = per_layer(workload, tracer,
                                       traced_wall, statistics.median(p["wall"] for p in passes),
                                       outcomes, attempted, failed)
        for metric, reason in sorted(unmeasured.items()):
            print(f"unmeasured {metric}: {reason}")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl")
        units = tracing.PER_LAYER
    else:
        values = end_to_end(setup_samples, passes)
        units = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            if not line.startswith("environment"):
                print(f"   {line}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:32s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's entry of reference.json (seed 0)")
    args = parser.parse_args(argv)
    if args.record and (args.workload == "all" or args.seed != DEFAULT_SEED):
        parser.error("--record takes one workload at the default seed")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
