#!/usr/bin/env python3
"""Twenty-hospital stream: where penalty anchoring stops helping.

Each hospital's outcome signal sits at a different angle of one shared
feature subspace, so a model trained hospital-by-hospital keeps reusing and
overwriting the same weights. Over twenty tasks the quadratic-penalty
methods drift anchor by anchor and end up forgetting as much as plain
fine-tuning, while a small rehearsal buffer still pins the old solutions.

Prints final mean forgetting with bootstrap confidence intervals. The first
two tasks in stream order are reserved for tuning by the protocol and are
excluded from the evaluated stream.
"""

import argparse
import json
import pathlib

from seqcl import harness
from seqcl.datagen import HOSPITAL20_STREAM, conflicting_stream_profile


def build_profile(n_patients):
    return conflicting_stream_profile(n_patients=n_patients, **HOSPITAL20_STREAM)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="results/hospital_stream")
    parser.add_argument("--patients", type=int, default=5000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--ewc-lambda", type=float, default=10.0)
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
            "domain_key": "hospital",
            "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 64,
                             "nonlinearity": "tanh"},
            "strategy": strategy,
            "output_dir": str(out / strategy),
            "epochs_per_task": args.epochs,
            "learning_rate": 0.1,
            "n_runs": args.runs,
            "master_seed": args.master_seed,
        })

    strength = {"ewc_lambda": args.ewc_lambda}
    harness.run_experiments([(config("naive"), None), (config("ewc"), strength),
                             (config("online_ewc"), strength), (config("replay"), None)])
    print(f"{'strategy':12s} {'forgetting':>10s}   95% CI")
    for row in harness.report(out)["experiments"]:
        ci = row["final_forgetting_ci"]
        ci = "(needs >= 2 runs)" if ci is None else f"({ci[0]:.3f}, {ci[1]:.3f})"
        print(f"{row['experiment']:12s} {row['final_forgetting_mean']:10.3f}   {ci}")
    print(f"\nfull records under {out}/<strategy>/; summary tables in {out}")


if __name__ == "__main__":
    main()
