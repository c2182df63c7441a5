"""End-to-end experiment protocol.

Configuration parsing, first-two-tasks grid search, repeated seeded runs
over the task stream, JSONL persistence, and report/plot-data generation.
The command-line layer in ``cli`` is a thin shell over these functions.
"""

import csv
import hashlib
import itertools
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    generate_cohort,
    load_dataset,
    partition_task,
    resolve_profile,
    split_tasks,
)
from .errors import (
    ConfigurationError,
    DataError,
    ReportError,
    SeqclError,
    UndefinedMetricError,
)
from .metrics import AccuracyMatrix, bootstrap_ci, forgetting
from .models import ARCHITECTURE_RULES, ArchitectureSpec, build_model
from .rules import COUNT, SIZE, SIZE_OR_NULL, Rule, check
from .strategies import SI_DAMPING, STRATEGIES, build_strategy
from .training import (
    TRAINER_RULES,
    TaskStream,
    TrainerSettings,
    compute_class_weights,
    run_single,
)

log = logging.getLogger(__name__)

# architecture config key -> rule: the spec's rules under the config's names
_ARCH_RULES = {"n_layers" if name == "n_feature_layers" else name: rule
               for name, rule in ARCHITECTURE_RULES.items()}
_DATA_KEYS = {"profile", "path", "seed"}

# experiment-level key -> rule; the trainer keys go through TRAINER_RULES
EXPERIMENT_RULES = {
    "n_runs": COUNT,
    "master_seed": SIZE,
    "data.seed": SIZE,
    "curriculum": Rule(
        "an int >= 0 (an order seed) or a list of domain names",
        lambda v: SIZE.accepts(v) or (
            isinstance(v, (list, tuple)) and all(isinstance(name, str) for name in v)),
    ),
}

# generic (strategy-independent) hyperparameters a grid or --hyperparams may carry
GENERIC_RULES = {
    **{key: rule for key, rule in _ARCH_RULES.items() if key != "kind"},
    **{key: rule for key, rule in TRAINER_RULES.items() if key != "epochs_per_task"},
}

PARTITION_SITE = 0x9A27


@dataclass
class ExperimentConfig:
    data: dict
    domain_key: str
    architecture: dict
    strategy: str
    output_dir: str
    grid: dict = field(default_factory=dict)
    curriculum: object = 0  # int order seed or explicit list of domain values
    epochs_per_task: int = 40
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.0
    n_runs: int = 5
    buffer_budget: object = 256  # int, or None for unlimited
    master_seed: int = 0

    def validate(self):
        unknown = set(self.data) - _DATA_KEYS
        if unknown:
            raise ConfigurationError(f"unknown data keys {sorted(unknown)}")
        if ("profile" in self.data) == ("path" in self.data):
            raise ConfigurationError("data needs exactly one of 'profile' or 'path'")
        check(EXPERIMENT_RULES, {**vars(self), "data.seed": self.data.get("seed", 0)})
        check(TRAINER_RULES, vars(self))
        unknown = set(self.architecture) - set(_ARCH_RULES)
        if unknown:
            raise ConfigurationError(f"unknown architecture keys {sorted(unknown)}")
        if "kind" not in self.architecture:
            raise ConfigurationError("architecture needs a 'kind'")
        check(_ARCH_RULES, self.architecture)
        self.architecture_spec()  # the cross-field checks
        strategy = build_strategy(self.strategy)  # name check
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(f"grid key {key!r} needs a nonempty list")
            for value in values:
                _check_hyperparams(self, {key: value})
        # the budget key's own rule, where there is one: gdumb's rejects null
        budget_rule = strategy.hyperparams.get(strategy.budget_key, SIZE_OR_NULL)
        budget_rule(f"buffer_budget for {self.strategy}", self.buffer_budget)

    def architecture_spec(self, overrides=None) -> ArchitectureSpec:
        merged = dict(self.architecture)
        for key in _ARCH_RULES.keys() & set(overrides or {}):
            merged[key] = overrides[key]
        if "n_layers" in merged:
            merged["n_feature_layers"] = merged.pop("n_layers")
        return ArchitectureSpec(**merged).validate()

    def trainer_settings(self, overrides=None) -> TrainerSettings:
        overrides = overrides or {}
        return TrainerSettings(
            epochs_per_task=self.epochs_per_task,
            batch_size=overrides.get("batch_size", self.batch_size),
            learning_rate=float(overrides.get("learning_rate", self.learning_rate)),
            momentum=float(overrides.get("momentum", self.momentum)),
        )


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_FIELDS = {"data", "domain_key", "architecture", "strategy", "output_dir"}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a mapping")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(raw)
    if missing:
        raise ConfigurationError(f"missing config keys {sorted(missing)}")
    config = ExperimentConfig(**raw)
    config.validate()
    return config


def config_from_file(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    return config_from_dict(raw)


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable digest of everything that shapes results (output path excluded)."""
    payload = _jsonable(asdict(config))  # rules accept numpy ints as well
    payload.pop("output_dir")
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# data assembly


def _input_dims(partition) -> tuple:
    """(seq_len, feature_dim) of the model-ready tensor for one partition."""
    data = partition.train
    return data.seq_len, data.timevarying.shape[2] + data.statics.shape[1]


def _partition_seed(master_seed: int, task_idx: int) -> int:
    seq = np.random.SeedSequence((int(master_seed), PARTITION_SITE, int(task_idx)))
    return int(seq.generate_state(1)[0])


def load_partitions(config: ExperimentConfig):
    """The full curriculum-ordered partition list: first two tasks carry a
    validation split, later ones do not."""
    if "path" in config.data:
        cohort = load_dataset(config.data["path"])
    else:
        profile = resolve_profile(config.data["profile"])
        cohort = generate_cohort(profile, seed=int(config.data.get("seed", 0)))
    curriculum = config.curriculum
    if isinstance(curriculum, (list, tuple)):
        tasks = split_tasks(cohort, config.domain_key, curriculum=list(curriculum))
    else:
        tasks = split_tasks(cohort, config.domain_key, order_seed=curriculum)
    partitions = []
    for idx, task in enumerate(tasks):
        partitions.append(
            partition_task(
                task,
                with_validation=idx < 2,
                seed=_partition_seed(config.master_seed, idx),
            )
        )
    return partitions


def _strategy_hyperparams(config: ExperimentConfig, chosen: dict) -> dict:
    """Strategy-constructor kwargs: tuned values plus the buffer-budget default."""
    cls = STRATEGIES[config.strategy]
    hp = {k: v for k, v in chosen.items() if k in cls.hyperparams}
    if cls.budget_key:
        hp.setdefault(cls.budget_key, config.buffer_budget)
    return hp


def _check_hyperparams(config: ExperimentConfig, hyperparams: dict) -> None:
    """Each value by its key's rule, then the architecture it makes as a whole."""
    rules = {**GENERIC_RULES, **STRATEGIES[config.strategy].hyperparams}
    unknown = set(hyperparams) - set(rules)
    if unknown:
        raise ConfigurationError(
            f"unknown hyperparameters {sorted(unknown)} for strategy {config.strategy!r}"
        )
    for key, value in hyperparams.items():
        rules[key](key, value)
    config.architecture_spec(hyperparams)


# ---------------------------------------------------------------------------
# tuning


def tune(config: ExperimentConfig, partitions=None):
    """Exhaustive grid search scored on the first two tasks' validation data.

    Every candidate trains on task 0 then task 1 and is scored by the mean
    validation balanced accuracy over both tasks after the second; the argmax
    (first in enumeration order on ties) is returned together with the audit
    and per-candidate scores. No partition of any task index >= 2 is read,
    and the access counter proves it.
    """
    config.validate()
    if not config.grid:
        raise ConfigurationError("hyperparameter grid is empty")
    if partitions is None:
        partitions = load_partitions(config)
    if len(partitions) < 2:
        raise ConfigurationError("tuning needs at least two tasks")
    stream = TaskStream(partitions, merge_val_into_train=False)

    _, train0_y, _ = stream.get(0, "train")
    _, train1_y, _ = stream.get(1, "train")
    class_weights = compute_class_weights(np.concatenate([train0_y, train1_y]))

    keys = sorted(config.grid)
    candidates = [
        dict(zip(keys, values))
        for values in itertools.product(*(config.grid[k] for k in keys))
    ]
    scored = []
    for candidate in candidates:
        spec = config.architecture_spec(candidate)
        t, d = _input_dims(partitions[0])
        strategy = build_strategy(
            config.strategy, _strategy_hyperparams(config, candidate)
        )
        out = run_single(
            lambda seed: build_model(spec, (t, d), seed),
            stream,
            strategy,
            class_weights,
            config.trainer_settings(candidate),
            master_seed=config.master_seed,
            run_idx=0,
            eval_splits=("val",),
            n_train_tasks=2,
        )
        score = None
        for row in reversed(out.records):
            if (row["trained_task"] == 1 and row["eval_task"] is None
                    and row["split"] == "val"):
                score = row["metrics"]["balanced_accuracy"]
                break
        scored.append({"hyperparams": candidate, "score": score})

    def sort_key(entry):
        return -1.0 if entry["score"] is None else entry["score"]

    best = max(scored, key=sort_key)
    audit = stream.accesses_at_or_beyond(2)
    if audit != 0:
        raise SeqclError(f"tuning touched {audit} partitions beyond the first two tasks")
    return {
        "chosen": best["hyperparams"],
        "candidates": scored,
        "audit_accesses_beyond_first_two": audit,
        "fingerprint": config_fingerprint(config),
    }


def write_tune_result(config: ExperimentConfig, result: dict) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "tune.json"
    path.write_text(json.dumps(_jsonable(result), indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# experiment runs


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _leakage_audit(consumed) -> list:
    """Patient ids seen in both a consumed train and a consumed test split."""
    union_train = set()
    union_test = set()
    for entry in consumed:
        union_train |= entry["train"]
        union_test |= entry["test"]
    return sorted(union_train & union_test)


def run_experiment(config: ExperimentConfig, hyperparams=None, partitions=None):
    """The repeated-seeds protocol behind every reported number.

    Streams with more than five tasks drop the two tuning tasks from the
    final phase; shorter streams keep them and fold their validation data
    into training. Class weights come from the first two tasks' training
    labels once, before any exclusion. Each run writes one JSONL metric
    stream; a failed run leaves a diagnostic file and the experiment moves
    on to its remaining seeds. Either replaces what an earlier invocation
    left for that run, and ``metadata.json``, written last, lists the runs
    that ``report`` reads.
    """
    config.validate()
    hyperparams = dict(hyperparams or {})
    _check_hyperparams(config, hyperparams)
    if partitions is None:
        partitions = load_partitions(config)
    if len(partitions) < 2:
        raise ConfigurationError("the protocol needs at least two tasks")

    weights_y = np.concatenate(
        [partitions[0].train.labels, partitions[1].train.labels]
    )
    class_weights = compute_class_weights(weights_y)

    exclude_tuning_tasks = len(partitions) > 5
    if exclude_tuning_tasks:
        final_partitions = partitions[2:]
        merge_val = False
    else:
        final_partitions = partitions
        merge_val = True

    spec = config.architecture_spec(hyperparams)
    t, d = _input_dims(final_partitions[0])
    settings = config.trainer_settings(hyperparams)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = config_fingerprint(config)

    # metadata.json indexes the runs a report reads; it is rewritten at the end
    (out_dir / "metadata.json").unlink(missing_ok=True)
    run_outputs = []
    run_meta = []
    for run_idx in range(config.n_runs):
        path = out_dir / f"run_{run_idx:02d}.jsonl"
        failed_path = out_dir / f"run_{run_idx:02d}.failed.json"
        for stale in (path, failed_path):  # a previous invocation's outcome
            stale.unlink(missing_ok=True)
        stream = TaskStream(final_partitions, merge_val_into_train=merge_val)
        strategy = build_strategy(
            config.strategy, _strategy_hyperparams(config, hyperparams)
        )
        started = time.monotonic()
        try:
            out = run_single(
                lambda seed: build_model(spec, (t, d), seed),
                stream,
                strategy,
                class_weights,
                settings,
                master_seed=config.master_seed,
                run_idx=run_idx,
            )
        except SeqclError as err:
            elapsed = time.monotonic() - started
            diagnostic = {
                "run": run_idx,
                "status": "failed",
                "error": type(err).__name__,
                "message": str(err),
                "wall_clock_s": elapsed,
            }
            for extra in ("residual", "iterations"):
                if hasattr(err, extra):
                    diagnostic[extra] = _jsonable(getattr(err, extra))
            failed_path.write_text(json.dumps(diagnostic, indent=2, sort_keys=True))
            run_meta.append(diagnostic)
            log.warning("run %d failed: %s", run_idx, err)
            continue
        elapsed = time.monotonic() - started

        leaked = _leakage_audit(out.consumed_patients)
        if leaked:
            raise DataError(
                f"patient ids {leaked[:5]} appear in both consumed train and "
                f"test partitions"
            )
        bad_epochs = {
            task: n for task, n in out.epochs_run.items()
            if n != settings.epochs_per_task
        }
        if bad_epochs:
            raise SeqclError(f"epoch accounting violated: {bad_epochs}")

        with path.open("w") as fh:
            fh.write(json.dumps({"fingerprint": fingerprint, "run": run_idx}) + "\n")
            for record in out.records:
                fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
        run_outputs.append(out)
        run_meta.append({
            "run": run_idx,
            "status": "ok",
            "wall_clock_s": elapsed,
            "leakage_intersection": [],
            "epochs_per_task_ok": True,
        })

    metadata = {
        "fingerprint": fingerprint,
        "config": asdict(config),
        "chosen_hyperparams": hyperparams,
        "class_weights": list(class_weights),
        "library_version": __version__,
        "defaults": {
            "optimizer": "sgd",
            "momentum": settings.momentum,
            "learning_rate": settings.learning_rate,
            "batch_size": settings.batch_size,
            "epochs_per_task": settings.epochs_per_task,
            "si_damping": SI_DAMPING,
            "fisher_estimator": "empirical, true-label gradients, one pass",
            "note": "optimizer and learning rate are stand-ins; no source states them",
        },
        "tasks": [p.task_name for p in final_partitions],
        "excluded_tuning_tasks": exclude_tuning_tasks,
        "runs": run_meta,
    }
    (out_dir / "metadata.json").write_text(
        json.dumps(_jsonable(metadata), indent=2, sort_keys=True)
    )
    if not run_outputs:
        raise SeqclError("every run failed; see diagnostic files")
    return run_outputs


# ---------------------------------------------------------------------------
# reporting


def _read_experiment(exp_dir: Path):
    """metadata.json and the records of every run it lists as ok."""
    meta_path = exp_dir / "metadata.json"
    if not meta_path.exists():
        raise ReportError(f"{exp_dir} has no metadata.json")
    metadata = json.loads(meta_path.read_text())
    runs = {}
    fingerprints = {metadata["fingerprint"]}
    for entry in metadata["runs"]:
        if entry["status"] != "ok":
            continue
        path = exp_dir / f"run_{entry['run']:02d}.jsonl"
        if not path.exists():
            raise ReportError(f"{exp_dir} lists run {entry['run']} as ok but has no {path.name}")
        with path.open() as fh:
            fingerprints.add(json.loads(fh.readline())["fingerprint"])
            runs[entry["run"]] = [json.loads(line) for line in fh]
    if len(fingerprints) > 1:
        raise ReportError(
            "mixed config fingerprints in one directory: "
            + ", ".join(sorted(fingerprints))
        )
    if not runs:
        raise ReportError(f"{exp_dir} has no completed runs")
    return metadata, runs


def _final_mean_balanced_accuracy(records, epochs_per_task):
    last_trained = max(r["trained_task"] for r in records)
    for row in reversed(records):
        if (row["trained_task"] == last_trained and row["eval_task"] is None
                and row["split"] == "test" and row["epoch"] == epochs_per_task - 1):
            return row["metrics"]["balanced_accuracy"]
    return None


def final_mean_forgetting(records, epochs_per_task):
    """Mean forgetting over the earlier tasks after the last task, from the
    test balanced accuracies at each task's final epoch; None when the
    accuracy matrix is incomplete or the stream has one task."""
    n_tasks = max(r["trained_task"] for r in records) + 1
    if n_tasks < 2:
        return None
    matrix = AccuracyMatrix(n_tasks)
    for row in records:
        if (row["split"] == "test" and row["eval_task"] is not None
                and row["epoch"] == epochs_per_task - 1):
            value = row["metrics"]["balanced_accuracy"]
            if value is not None:
                matrix.set(row["trained_task"], row["eval_task"], value)
    try:
        _, mean = forgetting(matrix, n_tasks - 1)
    except UndefinedMetricError:
        return None
    return mean


def summarize_experiment(exp_dir, bootstrap_seed=0) -> dict:
    """Per-experiment summary row: final balanced accuracy and forgetting,
    means with bootstrap confidence intervals across runs."""
    exp_dir = Path(exp_dir)
    metadata, runs = _read_experiment(exp_dir)
    epochs = metadata["config"]["epochs_per_task"]
    finals, forgets = [], []
    for records in runs.values():
        value = _final_mean_balanced_accuracy(records, epochs)
        if value is not None:
            finals.append(value)
        f = final_mean_forgetting(records, epochs)
        if f is not None:
            forgets.append(f)
    row = {
        "experiment": exp_dir.name,
        "strategy": metadata["config"]["strategy"],
        "architecture": metadata["config"]["architecture"].get("kind"),
        "n_runs": len(runs),
        "fingerprint": metadata["fingerprint"],
        "final_balanced_accuracy_mean": float(np.mean(finals)) if finals else None,
        "final_forgetting_mean": float(np.mean(forgets)) if forgets else None,
        "ci_suppressed": len(finals) < 2,
    }
    if len(finals) >= 2:
        lo, hi = bootstrap_ci(finals, seed=bootstrap_seed)
        row["final_balanced_accuracy_ci"] = [lo, hi]
    else:
        row["final_balanced_accuracy_ci"] = None
    if len(forgets) >= 2:
        lo, hi = bootstrap_ci(forgets, seed=bootstrap_seed)
        row["final_forgetting_ci"] = [lo, hi]
    else:
        row["final_forgetting_ci"] = None
    return row


def _series_rows(runs):
    """Across-run averages keyed by (trained_task, epoch, eval_task, split)."""
    cells = {}
    for records in runs.values():
        for row in records:
            key = (row["trained_task"], row["epoch"], row["eval_task"], row["split"])
            value = row["metrics"]["balanced_accuracy"]
            if value is None:
                continue
            cells.setdefault(key, []).append(value)
    out = []
    for key in sorted(cells, key=lambda k: (k[0], k[1], k[3], -1 if k[2] is None else k[2])):
        values = cells[key]
        out.append({
            "trained_task": key[0],
            "epoch": key[1],
            "eval_task": key[2],
            "split": key[3],
            "balanced_accuracy_mean": float(np.mean(values)),
            "n_runs": len(values),
        })
    return out


def _write_csv(path: Path, rows, fieldnames):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def report(results_dir) -> dict:
    """Summary tables plus plot-ready series for one experiment directory,
    a directory of experiment subdirectories, or a sweep directory."""
    results_dir = Path(results_dir)
    if not results_dir.exists():
        raise ReportError(f"no such results directory: {results_dir}")
    sweep_manifest = results_dir / "sweep.json"
    if sweep_manifest.exists():
        manifest = json.loads(sweep_manifest.read_text())
        exp_dirs = [results_dir / group["dir"] for group in manifest["groups"]]
    elif (results_dir / "metadata.json").exists():
        exp_dirs = [results_dir]
    else:
        exp_dirs = sorted(
            child for child in results_dir.iterdir()
            if (child / "metadata.json").exists()
        )
        if not exp_dirs:
            raise ReportError(f"{results_dir} holds no experiment results")

    summary_rows = []
    for exp_dir in exp_dirs:
        row = summarize_experiment(exp_dir)
        summary_rows.append(row)
        _, runs = _read_experiment(exp_dir)
        series = _series_rows(runs)
        per_task = [r for r in series if r["eval_task"] is not None]
        seen_avg = [r for r in series if r["eval_task"] is None]
        fields = ["trained_task", "epoch", "eval_task", "split",
                  "balanced_accuracy_mean", "n_runs"]
        _write_csv(exp_dir / "trajectories.csv", per_task, fields)
        _write_csv(exp_dir / "seen_average.csv", seen_avg, fields)

    summary = {"experiments": summary_rows}
    (results_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True)
    )
    fields = ["experiment", "strategy", "architecture", "n_runs",
              "final_balanced_accuracy_mean", "final_balanced_accuracy_ci",
              "final_forgetting_mean", "final_forgetting_ci", "ci_suppressed",
              "fingerprint"]
    _write_csv(results_dir / "summary.csv", summary_rows, fields)
    return summary


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("buffer_budget", "curriculum")
_DEFAULT_SWEEP_VALUES = {
    "buffer_budget": [256, 512, 1024],
    "curriculum": [0, 1, 2],
}


def sweep(config: ExperimentConfig, axis: str, values=None, hyperparams=None):
    """Full experiment per axis value, seeds shared, results grouped."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}"
        )
    values = list(values) if values is not None else list(_DEFAULT_SWEEP_VALUES[axis])
    if not values:
        raise ConfigurationError("sweep needs at least one axis value")
    base_dir = Path(config.output_dir)
    # every axis value and hyperparameter is validated before the first group runs
    group_configs = [
        config_from_dict({
            **_jsonable(asdict(config)),
            axis: value,
            "output_dir": str(base_dir / f"{axis}_{position}"),
        })
        for position, value in enumerate(values)
    ]
    for group_config in group_configs:
        _check_hyperparams(group_config, dict(hyperparams or {}))
    base_dir.mkdir(parents=True, exist_ok=True)
    groups = []
    for value, group_config in zip(values, group_configs):
        run_experiment(group_config, hyperparams)
        groups.append({
            "axis": axis,
            "value": _jsonable(value),
            "dir": Path(group_config.output_dir).name,
            "fingerprint": config_fingerprint(group_config),
        })
    manifest = {"axis": axis, "groups": groups, "master_seed": config.master_seed}
    (base_dir / "sweep.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
