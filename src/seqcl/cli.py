"""Command-line front end.

Exit codes: 0 on success, 2 for configuration and data-format problems,
3 when an experiment run fails.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .datagen import generate_cohort, resolve_profile, write_dataset
from .errors import ConfigurationError, DataError, DataFormatError, SeqclError
from .harness import (
    SWEEP_AXES,
    config_from_file,
    read_tune_result,
    report,
    run_experiments,
    sweep,
    tune,
    write_tune_result,
)
from .rules import SIZE, load_json

log = logging.getLogger(__name__)


def _load_hyperparams(path):
    """The file's JSON; the harness checks it against the strategy's keys."""
    return {} if path is None else load_json(path)


def _parse_axis_values(text):
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return values


def _cmd_generate_data(args):
    SIZE("--seed", args.seed)
    profile = resolve_profile(args.profile)
    cohort = generate_cohort(profile, seed=args.seed)
    write_dataset(cohort, args.out)
    print(f"wrote {cohort.n_samples} admissions to {args.out}")


def _cmd_tune(args):
    config = config_from_file(args.config)
    result = tune(config)
    path = write_tune_result(config, result)
    print(f"chosen: {json.dumps(result['chosen'], sort_keys=True)}")
    print(f"tune result written to {path}")


def _cmd_run(args):
    config = config_from_file(args.config)
    hyperparams = _load_hyperparams(args.hyperparams)
    tune_path = Path(config.output_dir) / "tune.json"
    if args.hyperparams is None and tune_path.exists():  # an explicit file wins, {} too
        hyperparams = read_tune_result(tune_path)["chosen"]
        print(f"using tuned hyperparameters from {tune_path}")
    completed = run_experiments([(config, hyperparams)])[0]
    print(f"{len(completed)} of {config.n_runs} runs completed; "
          f"results in {config.output_dir}")


def _cmd_sweep(args):
    config = config_from_file(args.config)
    values = _parse_axis_values(args.values) if args.values else None
    hyperparams = _load_hyperparams(args.hyperparams)
    groups = sweep(config, args.axis, values=values, hyperparams=hyperparams)
    print(f"{len(groups)} groups written under {config.output_dir}")


def _mean_and_ci(row, metric):
    """``row``'s final ``metric`` mean, with its CI where the row has one."""
    mean, ci = row[f"final_{metric}_mean"], row[f"final_{metric}_ci"]
    text = "n/a" if mean is None else f"{mean:.4f}"
    return text if ci is None else f"{text} CI ({ci[0]:.4f}, {ci[1]:.4f})"


def _cmd_report(args):
    summary = report(args.dir)
    for row in summary["experiments"]:
        print(f"{row['experiment']}: strategy={row['strategy']} "
              f"final balanced accuracy {_mean_and_ci(row, 'balanced_accuracy')}, "
              f"final forgetting {_mean_and_ci(row, 'forgetting')} over {row['n_runs']} runs")
    print(f"summary tables written under {args.dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcl",
        description="continual-learning benchmark harness for clinical-style "
                    "time series",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic cohort to disk")
    p.add_argument("profile", help="builtin profile name or profile JSON path")
    p.add_argument("out", help="output dataset path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate_data)

    p = sub.add_parser("tune", help="grid search on the first two tasks")
    p.add_argument("config", help="experiment config JSON")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("run", help="run the repeated-seeds experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--hyperparams", help="JSON file of tuned hyperparameters")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="repeat the experiment along one axis")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--hyperparams", help="JSON file of tuned hyperparameters")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="summarize a results directory")
    p.add_argument("dir", help="an experiment directory, or a directory of them")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.fn(args)
    except (ConfigurationError, DataFormatError, DataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SeqclError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
