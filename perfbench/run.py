#!/usr/bin/env python3
"""seqcl protocol benchmark.

    python3 perfbench/run.py --workload hosp20-mlp --seed 1 --seconds 40 --trace 0

Runs one named workload (or ``all``) through the public harness API
(``load_partitions`` -> ``tune`` -> ``run_experiment`` -> ``report``) and
prints every metric with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Names, units and bounds
come from ``BENCHMARK.json`` at the repository root.

Each repetition is its own process (``worker.py``) with BLAS pinned to one
thread, so set-up time starts at process start and peak RSS is per
repetition. ``--trace 0`` runs five set-up-only processes, then full
repetitions while they fit in ``--seconds`` (at least one), and reports
medians. ``--trace 1`` runs one untraced and one traced repetition and
reports the per-layer metrics of the traced one: self and inclusive span
times, call and row counts, and computed kernel flop rates. The tracer
wraps the package's functions from outside (``tracer.py``).

Operations attempted: every (strategy, seed) run, every tune call and every
comparison of a repetition's records digest with the first one. A run fails
when its status is failed or it ends with non-finite parameters or
weighted cross-entropy; a tune call fails when it reads tasks beyond the
first two; a comparison fails when the digests differ.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
KERNEL_SPANS = {"fwd": "forward", "bwd": "backward"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    """Machine and software facts recorded with every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Runner:
    def __init__(self, workload, seed, toy):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.dir = OUT / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.glob("rep*.json"):
            stale.unlink()
        self.started = time.monotonic()
        self.count = 0

    def spawn(self, *flags):
        """One worker process; returns its parsed result file."""
        self.count += 1
        result = self.dir / f"rep{self.count:02d}.json"
        result.unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise BenchError("time budget spent before the repetition could start")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work-dir", str(self.dir / "work"),
               "--result", str(result), "--spawned-at", repr(time.monotonic()), *flags]
        if self.toy:
            cmd.append("--toy")
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from err
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text())


def _median(values):
    return float(statistics.median(values))


def strategy_medians(reps):
    """Median per-seed run time of each strategy over all repetitions.

    Run times cluster by strategy, so a median over the pooled times jumps
    between clusters; run_s_p50 and run_s_max are the median and the largest
    of these per-strategy medians.
    """
    per_strategy = {}
    for rep in reps:
        for strategy, times in rep["run_times_s"].items():
            per_strategy.setdefault(strategy, []).extend(times)
    return [_median(times) for times in per_strategy.values()]


def end_to_end(reps, probes):
    """Medians over repetitions (and set-up probes for setup_s)."""
    return {
        "setup_s": _median([r["setup_s"] for r in probes + reps]),
        "wall_s": _median([r["wall_s"] for r in reps]),
        "run_s_max": max(strategy_medians(reps)),
        "task_rows_per_s": _median([r["train_rows"] / r["run_experiment_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(names, traced, untraced):
    """Resolve each per-layer metric name against the traced repetition."""
    from tracer import FUNCTIONS, LAYERS, METHODS

    known = set(FUNCTIONS.values()) | set(METHODS.values())
    spans = traced["trace"]

    def span(name, field):
        if name not in known:
            raise BenchError(f"no traced span named {name!r}")
        self_s, incl_s, calls = spans.get(name, (0.0, 0.0, 0))
        return {"s": self_s, "incl_s": incl_s, "calls": calls}[field]

    def flops(kernel):
        return sum(traced["flops"].get(f"autodiff.{kernel}.{m}", 0) for m in KERNEL_SPANS.values())

    special = {
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        "trace.wall_s": traced["wall_s"],
        "trace.spans": traced["spans"],
        "harness.records.bytes": traced["records_bytes"],
        "harness.records.rows": traced["records_rows"],
        "quality.final_bacc": traced["final_bacc"],
        "quality.final_forgetting": traced["final_forgetting"],
    }
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif base in LAYERS and field == "self_s":
            value = sum(s for n, (s, _, _) in spans.items() if n.startswith(base + "."))
        elif base.startswith("autodiff.") and field in ("gflop", "gflop_per_s"):
            kernel = base.split(".", 1)[1]
            total = flops(kernel)
            if field == "gflop":
                value = total / 1e9
            else:
                busy = sum(span(f"{base}.{m}", "s") for m in KERNEL_SPANS.values())
                value = total / busy / 1e9 if busy > 0 else 0.0
        elif base.startswith("autodiff.") and field[:3] in KERNEL_SPANS and field[3:] in ("_s", "_calls"):
            value = span(f"{base}.{KERNEL_SPANS[field[:3]]}", "s" if field[3:] == "_s" else "calls")
        elif field in ("s", "incl_s", "calls"):
            value = span(base, field)
        elif field == "rows":
            span(base, "calls")
            value = traced["rows"].get(base, 0)
        elif field == "changed_frac":
            calls = span(base, "calls")
            value = traced["changed"].get(base, 0) / calls if calls else 0.0
        else:
            raise BenchError(f"per-layer metric {name!r} has no rule")
        out[name] = value
    return out


def run_workload(spec, workload, seed, seconds, trace, toy):
    env = environment()  # before the first repetition: it records the load at start
    runner = Runner(workload, seed, toy)
    errors, failures = [], []
    if trace:
        spans = OUT / workload / f"spans-seed{seed}.json.gz"
        reps = [runner.spawn(), runner.spawn("--spans", str(spans))]
    else:
        probes = [runner.spawn("--setup-only") for _ in range(SETUP_PROBES)]
        reps = []
        while True:
            begun = time.monotonic()
            reps.append(runner.spawn())
            took = time.monotonic() - begun
            if time.monotonic() - runner.started + took > seconds:
                break
    attempted = sum(r["attempted"] for r in reps) + len(reps) - 1
    failed = sum(r["failed"] for r in reps)
    for i, rep in enumerate(reps):
        errors += rep["errors"]
        failures += rep["failures"]
        if i and rep["digest"] != reps[0]["digest"]:
            failed += 1
            failures.append(f"repetition {i} records digest differs from repetition 0")
            errors.append(f"repetition {i} records digest differs from repetition 0")
    if errors:
        metrics = {}
    elif trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], reps[1], reps[0])
    else:
        metrics = end_to_end(reps, probes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": len(reps),
        "run_s_samples": sum(len(t) for r in reps for t in r["run_times_s"].values()),
        "run_s_p50": _median(strategy_medians(reps)),
        "tune_s_median": _median([r["tune_s"] for r in reps]),
        "report_s_median": _median([r["report_s"] for r in reps]),
        "failed_frac": failed / attempted,
        "failures": failures,
        "errors": errors,
        "digest": reps[0]["digest"],
        "final_bacc": reps[0].get("final_bacc"),
        "final_forgetting": reps[0].get("final_forgetting"),
        "per_repetition": [
            {key: rep.get(key) for key in ("setup_s", "wall_s", "tune_s", "run_experiment_s",
                                           "report_s", "run_times_s", "peak_rss_mb")}
            for rep in reps
        ],
        "environment": env,
    }
    if not trace:
        detail["setup_samples"] = SETUP_PROBES + len(reps)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, detail


def print_result(result, detail):
    print(f"== {detail['workload']} (seed {detail['seed']}, trace {int(detail['trace'])}, "
          f"{detail['repetitions']} repetitions, {detail['run_s_samples']} run_s samples)")
    print("environment " + json.dumps(detail["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"  run_s_p50 {detail['run_s_p50']:.4f} s; tune_s (median) "
          f"{detail['tune_s_median']:.4f} s; report_s (median) "
          f"{detail['report_s_median']:.4f} s; failed_frac "
          f"{detail['failed_frac']:.4f} = {result['failed']}/{result['attempted']}; "
          f"quality guards: final_bacc {detail['final_bacc']}, final_forgetting "
          f"{detail['final_forgetting']}; records digest {detail['digest'][:16]}")
    for line in detail["failures"]:
        print(f"  failed: {line}")
    for line in detail["errors"]:
        print(f"  error: {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="shrunken workloads for the schema self-check")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "seqcl" / "__init__.py").is_file():
        print(f"no seqcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    from workloads import build_workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    if set(names) != set(build_workloads(args.toy)):
        print("BENCHMARK.json and workloads.py name different workloads", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            result, detail = run_workload(spec, workload, args.seed, args.seconds,
                                          bool(args.trace), args.toy)
        except BenchError as err:
            print(f"{workload}: {err}", file=sys.stderr)
            return 1
        (OUT / workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "detail": detail}, indent=1))
        print_result(result, detail)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        for name, metric in result["metrics"].items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
