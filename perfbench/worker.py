"""One repetition of one workload, in its own process.

Started by ``run.py`` with the package on ``PYTHONPATH`` and BLAS pinned.
The repetition sets the workload up (import, profile, cohort, dataset I/O
where the workload has it, task split and partitions), then runs the
protocol through the public harness API: ``tune`` (workloads with a grid),
``run_experiment`` per strategy, ``report``. It checks the outputs and
writes one JSON result file. With ``--setup-only`` it stops after set-up.
"""

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import build_workloads, check_hospital_profile

import numpy as np

from seqcl import datagen, harness
from seqcl.errors import SeqclError


def _experiment_config(workload, strategy, data, seed, out_dir):
    return harness.config_from_dict({
        "data": data,
        "domain_key": workload.domain_key,
        "architecture": dict(workload.architecture),
        "strategy": strategy,
        "grid": dict(workload.grid),
        "epochs_per_task": workload.epochs_per_task,
        "learning_rate": workload.learning_rate,
        "n_runs": workload.n_runs,
        "master_seed": seed,
        "output_dir": str(out_dir / strategy),
    })


def _setup(workload, seed, work_dir):
    """Everything before the first training step; returns (data, partitions)."""
    if workload.via_dataset:
        cohort = datagen.generate_cohort(datagen.resolve_profile(workload.profile), seed=seed)
        dataset_dir = work_dir / "dataset"
        datagen.write_dataset(cohort, dataset_dir)
        data = {"path": str(dataset_dir)}
    else:
        data = {"profile": workload.profile, "seed": seed}
    first = _experiment_config(workload, workload.strategies[0][0], data, seed,
                               work_dir / "results")
    return data, harness.load_partitions(first)


def _run_gate(out, metadata_run):
    """Reasons this (strategy, seed) run counts as a failed operation."""
    reasons = []
    if metadata_run["status"] != "ok":
        reasons.append(f"status {metadata_run['status']}: {metadata_run.get('error')}")
        return reasons
    if not np.all(np.isfinite(out.final_params)):
        reasons.append("non-finite final parameters")
    if any(not math.isfinite(r["metrics"]["weighted_ce"]) for r in out.records):
        reasons.append("non-finite weighted_ce")
    return reasons


def _digest(results_dir, tune_results):
    """sha256 over every records stream and tune outcome, in a fixed order."""
    h = hashlib.sha256()
    for path in sorted(results_dir.glob("*/run_*.jsonl")):
        h.update(path.relative_to(results_dir).as_posix().encode())
        h.update(path.read_bytes())
    h.update(json.dumps(tune_results, sort_keys=True).encode())
    return h.hexdigest()


def run_protocol(workload, seed, data, partitions, results_dir):
    """tune -> run_experiment -> report; returns timings, gate and checks."""
    res = {"tune_s": 0.0, "run_experiment_s": 0.0, "run_times_s": {},
           "attempted": 0, "failed": 0, "failures": [], "errors": [],
           "train_rows": 0, "completed": 0}
    tune_results = {}
    # run_experiment's stream rule: long streams drop the two tuning tasks,
    # short ones keep them and fold their validation data into training
    long_stream = len(partitions) > 5
    final = partitions[2:] if long_stream else partitions
    own_rows = sum(p.train.n_samples + (0 if long_stream or p.val is None else p.val.n_samples)
                   for p in final)
    # per epoch: one row per seen task and split plus one mean row per split
    expected = workload.epochs_per_task * 2 * sum(t + 2 for t in range(len(final)))
    for strategy, fixed in workload.strategies:
        config = _experiment_config(workload, strategy, data, seed, results_dir)
        hyperparams = dict(fixed)
        if workload.grid:
            res["attempted"] += 1
            started = time.perf_counter()
            try:
                tuned = harness.tune(config, partitions=partitions)
            except SeqclError as err:
                res["tune_s"] += time.perf_counter() - started
                res["failed"] += 1
                res["failures"].append(f"{strategy} tune: {err}")
                continue
            res["tune_s"] += time.perf_counter() - started
            if tuned["audit_accesses_beyond_first_two"] != 0:
                res["failed"] += 1
                res["failures"].append(f"{strategy} tune read tasks beyond the first two")
            tune_results[strategy] = {"chosen": tuned["chosen"], "candidates": tuned["candidates"]}
            hyperparams.update(tuned["chosen"])
        res["attempted"] += workload.n_runs
        started = time.perf_counter()
        try:
            outs = harness.run_experiment(config, hyperparams=hyperparams,
                                          partitions=partitions)
        except SeqclError as err:
            # run_experiment raises after writing metadata when every run
            # failed; any other error is a protocol violation
            outs = []
            if "every run failed" not in str(err):
                res["errors"].append(f"{strategy}: {err}")
                continue
        res["run_experiment_s"] += time.perf_counter() - started
        exp_dir = Path(config.output_dir)
        metadata = json.loads((exp_dir / "metadata.json").read_text())
        by_run = {o.run_idx: o for o in outs}
        for meta in metadata["runs"]:
            res["run_times_s"].setdefault(strategy, []).append(meta["wall_clock_s"])
            reasons = _run_gate(by_run.get(meta["run"]), meta)
            if reasons:
                res["failed"] += 1
                res["failures"].append(f"{strategy} run {meta['run']}: {'; '.join(reasons)}")
        res["train_rows"] += own_rows * workload.epochs_per_task * len(metadata["runs"])
        for out in outs:
            if len(out.records) != expected:
                res["errors"].append(
                    f"{strategy} run {out.run_idx}: {len(out.records)} records, expected {expected}")
        if outs:
            res["completed"] += 1
        else:
            # report() refuses a directory without completed runs
            shutil.move(str(exp_dir), str(results_dir.parent / f"failed-{strategy}"))
    res["digest"] = _digest(results_dir, tune_results)
    return res


def summarize(summary, res):
    """Quality guards: means over strategies of the report's final values."""
    rows = summary["experiments"]
    if len(rows) != res["completed"]:
        res["errors"].append(f"report has {len(rows)} experiments, expected "
                             f"{res['completed']}")
    finals = [r["final_balanced_accuracy_mean"] for r in rows]
    forgets = [r["final_forgetting_mean"] for r in rows]
    if any(v is None or not 0.0 <= v <= 1.0 for v in finals):
        res["errors"].append(f"final balanced accuracy out of range: {finals}")
    if any(v is None or not math.isfinite(v) for v in forgets):
        res["errors"].append(f"final forgetting undefined: {forgets}")
    if not res["errors"]:
        res["final_bacc"] = float(np.mean(finals))
        res["final_forgetting"] = float(np.mean(forgets))


def _records_size(results_dir):
    files = sorted(results_dir.glob("*/run_*.jsonl"))
    lines = 0
    for path in files:
        with path.open("rb") as fh:
            lines += sum(1 for _ in fh) - 1  # minus the fingerprint header
    return sum(p.stat().st_size for p in files), lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path,
                        help="trace this repetition and write its spans here")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    workload = build_workloads(args.toy)[args.workload]
    if args.work_dir.exists():
        shutil.rmtree(args.work_dir)
    args.work_dir.mkdir(parents=True)
    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer(workload.name)
        tracer.install()

    data, partitions = _setup(workload, args.seed, args.work_dir)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.spawned_at}
    if not args.setup_only:
        results_dir = args.work_dir / "results"
        res = run_protocol(workload, args.seed, data, partitions, results_dir)
        started = time.perf_counter()
        summary = harness.report(results_dir)
        res["report_s"] = time.perf_counter() - started
        res["wall_s"] = time.monotonic() - setup_end
        if tracer is not None:
            tracer.uninstall()
        summarize(summary, res)
        res["records_bytes"], res["records_rows"] = _records_size(results_dir)
        if workload.name == "hosp20-mlp":
            sys.path.insert(0, str(Path(harness.__file__).resolve().parents[2] / "scripts"))
            from hospital_stream import build_profile

            problem = check_hospital_profile(build_profile(5000))
            if problem:
                res["errors"].append(problem)
        result.update(res)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["flops"] = tracer.flops
        result["rows"] = tracer.rows
        result["changed"] = tracer.changed
        result["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
