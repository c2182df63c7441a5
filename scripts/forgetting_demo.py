#!/usr/bin/env python3
"""Three-site stream where sequential fine-tuning erases the first site.

The synthetic cohort gives each site an outcome signal along a different
direction of one shared two-dimensional feature subspace (0, 90 and 180
degrees apart), with site-specific static offsets strong enough that joint
training can still separate the sites. Training site by site then overwrites
the weights the first site relies on; rehearsal or joint training does not.

Prints a retention table for the first task in stream order and leaves the
full per-epoch records under --out for ``seqcl report``.
"""

import argparse
import json
import pathlib

import numpy as np

from seqcl import harness
from seqcl.datagen import SITES3_STREAM, conflicting_stream_profile


def build_profile(n_patients):
    return conflicting_stream_profile(n_patients=n_patients, **SITES3_STREAM)


def first_task_trajectory(exp_dir, run_indices, epochs):
    """Per run, read from its run file, the first task's peak test balanced
    accuracy while it trains and its final one after the last task."""
    pairs = []
    for run_idx in run_indices:
        _, records = harness.read_run_file(exp_dir / f"run_{run_idx:02d}.jsonl")
        first = [r for r in records if r["eval_task"] == 0 and r["split"] == "test"]
        peak = max(r["metrics"]["balanced_accuracy"] for r in first if r["trained_task"] == 0)
        final = next(r["metrics"]["balanced_accuracy"] for r in first
                     if r["trained_task"] == 2 and r["epoch"] == epochs - 1)
        pairs.append((peak, final))
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="results/forgetting_demo",
                        help="directory for run records and the cohort profile")
    parser.add_argument("--patients", type=int, default=4800)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--master-seed", type=int, default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile_path = out / "profile.json"
    profile_path.write_text(json.dumps(build_profile(args.patients), indent=2))

    print(f"cohort profile written to {profile_path}")

    def config(strategy):
        return harness.config_from_dict({
            "data": {"profile": str(profile_path), "seed": 11},
            "domain_key": "site",
            "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 64,
                             "nonlinearity": "tanh"},
            "strategy": strategy,
            "output_dir": str(out / strategy),
            "epochs_per_task": args.epochs,
            "learning_rate": 0.1,
            "n_runs": args.runs,
            "master_seed": args.master_seed,
        })

    strategies = ("naive", "replay", "cumulative")
    results = harness.run_experiments([(config(strategy), None) for strategy in strategies])
    print(f"{'strategy':12s} {'peak':>6s} {'final':>6s} {'drop':>7s}   per-run drops")
    for strategy, completed in zip(strategies, results):
        pairs = first_task_trajectory(out / strategy, completed, args.epochs)
        peak = float(np.mean([p for p, _ in pairs]))
        final = float(np.mean([f for _, f in pairs]))
        per_run = " ".join(f"{p - f:+.3f}" for p, f in pairs)
        print(f"{strategy:12s} {peak:6.3f} {final:6.3f} {peak - final:+7.3f}   {per_run}")
    print(f"\nfull records under {out}/<strategy>/; summarize with: seqcl report {out}")


if __name__ == "__main__":
    main()
