"""End-to-end experiment protocol.

Configuration parsing, first-two-tasks grid search, repeated seeded runs
over the task stream, JSONL persistence, and report/plot-data generation.
``tune`` trains its grid candidates, and ``run_experiments`` the runs of
all its experiments, as the units of one worker pool per call; a run's
unit writes its own run file, the one channel its records take. The
command-line layer in ``cli`` is a thin shell over these functions.
"""

import collections
import contextlib
import csv
import ctypes
import functools
import hashlib
import itertools
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
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
from .rules import (
    COUNT, FLAG, MAPPING, NONEMPTY_LIST, SIZE, SIZE_OR_NULL, TEXT, VECTOR, Rule, decoding,
    load_json, read, required_fields,
)
from .strategies import SI_DAMPING, STRATEGIES, build_strategy
from .training import (
    TRAINER_RULES,
    RunOutput,
    TaskStream,
    TrainerSettings,
    compute_class_weights,
    evaluate_in_process,
    evaluate_seen_tasks,
    run_single,
)

log = logging.getLogger(__name__)

# architecture config key -> rule: the spec's rules under the config's names
_ARCH_RULES = {"n_layers" if name == "n_feature_layers" else name: rule
               for name, rule in ARCHITECTURE_RULES.items()}

# data key -> rule; exactly one of profile and path is a cross-field check
DATA_RULES = {"profile": Rule("a builtin profile name, a profile JSON path or a profile mapping",
                              lambda v: isinstance(v, (str, dict))),
              "path": TEXT, "seed": SIZE}

# config key -> rule; the nested mappings have their own tables
EXPERIMENT_RULES = {
    "data": MAPPING, "domain_key": TEXT, "architecture": MAPPING, "strategy": TEXT,
    "output_dir": TEXT, "grid": MAPPING,
    "curriculum": Rule(
        "an int >= 0 (an order seed) or a list of domain names",
        lambda v: SIZE.accepts(v) or (
            isinstance(v, (list, tuple)) and all(isinstance(name, str) for name in v)),
    ),
    **TRAINER_RULES, "n_runs": COUNT, "buffer_budget": SIZE_OR_NULL, "master_seed": SIZE,
}

# generic (strategy-independent) hyperparameters a grid or --hyperparams may carry
GENERIC_RULES = {
    **{key: rule for key, rule in _ARCH_RULES.items() if key != "kind"},
    **{key: rule for key, rule in TRAINER_RULES.items() if key != "epochs_per_task"},
}

PARTITION_SITE = 0x9A27

# Bumped by every change that alters what the same config records. Version 2
# is the proximal anchor step; results written before the field existed read
# as version 1.
RECORDS_VERSION = 2


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
        read(EXPERIMENT_RULES, vars(self), "config")
        read(DATA_RULES, self.data, "data")
        if ("profile" in self.data) == ("path" in self.data):
            raise ConfigurationError("data needs exactly one of 'profile' or 'path'")
        read(_ARCH_RULES, self.architecture, "architecture", required_fields(ArchitectureSpec))
        self.architecture_spec()  # the cross-field checks
        strategy = build_strategy(self.strategy)  # name check
        vocabulary = {**GENERIC_RULES, **strategy.hyperparams}
        read(dict.fromkeys(vocabulary, NONEMPTY_LIST), self.grid, "grid")
        for key, values in self.grid.items():
            for value in values:
                _check_hyperparams(self, {key: value}, "grid")
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


def config_from_dict(raw: dict) -> ExperimentConfig:
    read(EXPERIMENT_RULES, raw, "config", required_fields(ExperimentConfig))
    config = ExperimentConfig(**raw)
    config.validate()
    return config


def config_from_file(path) -> ExperimentConfig:
    return config_from_dict(load_json(path))


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


def _class_weights(partitions) -> tuple:
    """Class weights from the first two tasks' training labels, unmerged."""
    return compute_class_weights(
        np.concatenate([partitions[0].train.labels, partitions[1].train.labels]))


def _strategy_hyperparams(config: ExperimentConfig, chosen: dict) -> dict:
    """Strategy-constructor kwargs: tuned values plus the buffer-budget default."""
    cls = STRATEGIES[config.strategy]
    hp = {k: v for k, v in chosen.items() if k in cls.hyperparams}
    if cls.budget_key:
        hp.setdefault(cls.budget_key, config.buffer_budget)
    return hp


def _check_hyperparams(config: ExperimentConfig, hyperparams, where="hyperparameters") -> None:
    """Each value by its key's rule, then the architecture it makes as a whole."""
    read({**GENERIC_RULES, **STRATEGIES[config.strategy].hyperparams}, hyperparams, where)
    config.architecture_spec(hyperparams)


# ---------------------------------------------------------------------------
# tuning


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_forked_job = None  # (fn, units), set only inside _map_units' workers by their initializer


def _one_blas_thread():
    """Set this process's BLAS to one thread, where numpy's OpenBLAS allows it."""
    try:
        from numpy._core import _multiarray_umath

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
    set_threads(1)


def _adopt_job(fn, units):
    global _forked_job
    _forked_job = (fn, units)
    _one_blas_thread()  # not the parent's thread pool


def _run_forked(index):
    fn, units = _forked_job
    return fn(units[index])


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _map_units(fn, units) -> list:
    """``[fn(unit) for unit in units]``, in input order, on
    ``min(len(units), usable CPUs)`` forked worker processes; in this process
    when that is one or when the platform cannot fork. No worker starts a
    process of its own: callers flatten their work into one list of units.

    ``fn`` and ``units`` reach the workers by fork, so neither is pickled:
    only the unit indices go out and the results come back. Each worker sets
    its BLAS to one thread where numpy's OpenBLAS allows it. A unit's
    exception is re-raised here (the first in input order), and every worker
    has exited before this returns or raises.
    """
    units = list(units)
    workers = min(len(units), _usable_cpus())
    if workers > 1 and _can_fork():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_job, initargs=(fn, units),
        )
        try:
            return list(pool.map(_run_forked, range(len(units))))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return [fn(unit) for unit in units]


def _serve_evaluations(conn, run_conn, build_model_fn, stream, class_weights, splits):
    """The evaluation helper's life: ``(parameters, task index)`` messages in,
    ``(True, rows)`` or ``(False, error)`` out, until the run closes its end
    of the pipe."""
    run_conn.close()  # this fork's copy, so that the run's close is an EOF here
    _one_blas_thread()
    model = build_model_fn(0)  # any seed: every evaluation overwrites the parameters
    try:
        while True:
            values, task_idx = conn.recv()
            model.params.values[...] = values
            try:
                reply = True, evaluate_seen_tasks(model, stream, task_idx, class_weights, splits)
            except Exception as err:  # the run raises it
                reply = False, err
            conn.send(reply)
    except (EOFError, OSError):  # the run has ended, or has stopped listening
        return


@contextlib.contextmanager
def _evaluate_on_helper(build_model_fn, stream, class_weights, splits):
    """The evaluation executor of a run that trains alone: one helper
    process, forked with the run's model builder, stream, class weights and
    splits, evaluates each submitted model's parameters on a model of its
    own while the run trains on. At most one evaluation is in flight, since
    the run collects each before it submits the next. A helper error raises
    in the run with its own class and message; a helper that dies raises
    ChildProcessError. The helper has exited when the run's ``with`` block
    ends, by error or not. See ``training.evaluate_in_process`` for the
    protocol."""
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    conn, helper_conn = fork.Pipe()
    helper = fork.Process(target=_serve_evaluations,
                          args=(helper_conn, conn, build_model_fn, stream, class_weights, splits))
    helper.start()
    helper_conn.close()

    def collect():
        try:
            ok, value = conn.recv()
        except EOFError:
            helper.join()
            raise ChildProcessError(
                f"the evaluation helper exited with code {helper.exitcode}") from None
        if not ok:
            raise value
        return value

    def submit(model, task_idx):
        conn.send((model.params.values, task_idx))  # pickled here: the model may train on
        return collect

    try:
        yield submit
    finally:
        conn.close()
        helper.join()


def _train(config, hyperparams, stream, class_weights, run_idx, **kwargs):
    """``run_single`` of the config's model and strategy under
    ``hyperparams`` on ``stream``, with the config's trainer settings and
    master seed; ``kwargs`` go to ``run_single``."""
    spec = config.architecture_spec(hyperparams)
    t, d = _input_dims(stream.partitions[0])
    strategy = build_strategy(config.strategy, _strategy_hyperparams(config, hyperparams))
    return run_single(
        lambda seed: build_model(spec, (t, d), seed),
        stream,
        strategy,
        class_weights,
        config.trainer_settings(hyperparams),
        master_seed=config.master_seed,
        run_idx=run_idx,
        **kwargs,
    )


def _score_candidate(config, partitions, class_weights, candidate):
    """(score, access counts) of one grid candidate trained on the first two
    tasks, read through a stream of its own; the score is the mean validation
    balanced accuracy over both tasks after the second, or None."""
    stream = TaskStream(partitions, merge_val_into_train=False)
    out = _train(config, candidate, stream, class_weights, 0,
                 eval_splits=("val",), n_train_tasks=2)
    score = final_mean_balanced_accuracy(out.records, config.epochs_per_task, split="val")
    return score, stream.access_counts


def tune(config: ExperimentConfig, partitions=None):
    """Exhaustive grid search scored on the first two tasks' validation data.

    Every candidate trains on task 0 then task 1 and is scored by the mean
    validation balanced accuracy over both tasks after the second; the argmax
    (first in enumeration order on ties) is returned together with the audit
    and per-candidate scores. Candidates are independent seeded units and run
    through ``_map_units``, so on several CPUs they train in parallel, each
    in a forked process, with the same result as one after another. No
    partition of any task index >= 2 is read, and the access counter, summed
    over every candidate's stream, proves it.
    """
    config.validate()
    if not config.grid:
        raise ConfigurationError("hyperparameter grid is empty")
    if partitions is None:
        partitions = load_partitions(config)
    if len(partitions) < 2:
        raise ConfigurationError("tuning needs at least two tasks")
    class_weights = _class_weights(partitions)

    keys = sorted(config.grid)
    candidates = [
        dict(zip(keys, values))
        for values in itertools.product(*(config.grid[k] for k in keys))
    ]
    outcomes = _map_units(
        functools.partial(_score_candidate, config, partitions, class_weights), candidates
    )
    scored = []
    accesses = collections.Counter()
    for candidate, (score, access_counts) in zip(candidates, outcomes):
        scored.append({"hyperparams": candidate, "score": score})
        accesses.update(access_counts)

    def sort_key(entry):
        return -1.0 if entry["score"] is None else entry["score"]

    best = max(scored, key=sort_key)
    audit = sum(count for (task_idx, _), count in accesses.items() if task_idx >= 2)
    if audit != 0:
        raise SeqclError(f"tuning touched {audit} partitions beyond the first two tasks")
    return {
        "chosen": best["hyperparams"],
        "candidates": scored,
        "audit_accesses_beyond_first_two": audit,
        "fingerprint": config_fingerprint(config),
    }


# tune.json key -> rule; ``run`` reads the file back for its hyperparameters
TUNE_RULES = {"chosen": MAPPING, "candidates": NONEMPTY_LIST,
              "audit_accesses_beyond_first_two": SIZE, "fingerprint": TEXT}


def write_tune_result(config: ExperimentConfig, result: dict) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "tune.json"
    path.write_text(json.dumps(_jsonable(result), indent=2, sort_keys=True))
    return path


def read_tune_result(path) -> dict:
    """A ``tune.json`` checked against TUNE_RULES; a malformed file raises
    ConfigurationError, since it is an input to ``run``."""
    return read(TUNE_RULES, load_json(path), "tune.json", tuple(TUNE_RULES))


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


def _leakage_audit(partitions, merge_val) -> None:
    """Raise DataError when a patient id is in both a training split of
    ``partitions`` (with its validation split when ``merge_val`` folds that
    into training) and a test split."""
    train = [p.train.patient_ids for p in partitions]
    if merge_val:
        train += [p.val.patient_ids for p in partitions if p.val is not None]
    leaked = np.intersect1d(np.concatenate(train),
                            np.concatenate([p.test.patient_ids for p in partitions]))
    if leaked.size:
        raise DataError(
            f"patient ids {leaked[:5].tolist()} appear in both consumed train and "
            f"test partitions"
        )


# metadata.json key -> rule; ``report`` reads the fingerprint, the runs and the
# config keys it summarizes, so those are required and the rest may be absent
_RUN_ENTRIES = Rule("a list of {run: an int >= 0, status: ok or failed} mappings",
                  lambda v: isinstance(v, list) and all(
                      isinstance(e, dict) and SIZE.accepts(e.get("run"))
                      and e.get("status") in ("ok", "failed") for e in v))
_REPORTED_CONFIG_KEYS = ("epochs_per_task", "strategy", "architecture")
METADATA_RULES = {
    "fingerprint": TEXT, "runs": _RUN_ENTRIES, "config": MAPPING,
    "chosen_hyperparams": MAPPING, "class_weights": VECTOR, "library_version": TEXT,
    "defaults": MAPPING, "tasks": NONEMPTY_LIST, "excluded_tuning_tasks": FLAG,
    "records_version": COUNT,
}
METADATA_REQUIRED = ("fingerprint", "config", "runs")

# first line of a run file -> rule; the record lines after it are not checked
RUN_HEADER_RULES = {"fingerprint": TEXT, "run": SIZE, "records_version": COUNT}
RUN_HEADER_REQUIRED = ("fingerprint", "run")


def read_run_file(path):
    """(header, records) of run file ``path``: its first line checked against
    RUN_HEADER_RULES, then one record per line. A file that cannot be read,
    a line that is not JSON or a header that fails a rule raises ReportError
    naming the file; a bad record line is named by its line number."""
    with decoding(path, ReportError), Path(path).open() as fh:
        header = read(RUN_HEADER_RULES, json.loads(fh.readline()), str(path),
                      RUN_HEADER_REQUIRED, ReportError)
        try:
            return header, [json.loads(line) for line in fh]
        except json.JSONDecodeError as err:
            fh.seek(0)  # lines are counted only here, not while a good file is read
            line_no = next(n for n, line in enumerate(fh, 1) if line == err.doc)
            raise ReportError(f"{path} line {line_no} is not valid JSON: "
                              f"{err.msg} at column {err.colno}") from err


def _write_atomic(path: Path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` through a temp file beside it and
    ``os.replace``: ``path`` ends up complete or untouched, and an exception
    raised while writing leaves no temp file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _caught(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the SeqclError it raised."""
    try:
        return fn(*args, **kwargs)
    except SeqclError as err:
        return err


def _run_paths(out_dir: Path, run_idx: int) -> tuple:
    """(records file, diagnostic file) of run ``run_idx`` in ``out_dir``."""
    return out_dir / f"run_{run_idx:02d}.jsonl", out_dir / f"run_{run_idx:02d}.failed.json"


def _prepare(config, hyperparams, partitions):
    """One experiment made ready for its runs, as ``(config, hyperparams,
    partitions of the final phase, whether their validation data fold into
    training, class weights)``: its partitions pass the leakage audit, and
    what an earlier invocation left in its output directory is removed."""
    if partitions is None:
        partitions = load_partitions(config)
    if len(partitions) < 2:
        raise ConfigurationError("the protocol needs at least two tasks")
    class_weights = _class_weights(partitions)
    merge_val = len(partitions) <= 5
    final_partitions = partitions if merge_val else partitions[2:]
    _leakage_audit(final_partitions, merge_val)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # metadata.json indexes the runs a report reads; it is rewritten at the end
    (out_dir / "metadata.json").unlink(missing_ok=True)
    for pattern in ("run_*.jsonl", "run_*.failed.json", "run_*.tmp"):  # of any run count
        for stale in out_dir.glob(pattern):
            stale.unlink(missing_ok=True)
    return config, hyperparams, final_partitions, merge_val, class_weights


def _run_one(unit):
    """The whole life of run ``run_idx`` of a prepared experiment, for the
    unit ``(experiment, run_idx)``, in the process that trains it: trained on
    a task stream of its own, its epoch count checked, its records or its
    diagnostic written to its run file. Returns ``(metadata.json entry, final
    parameters)``, the parameters None for a failed run, or the SeqclError of
    a broken epoch count.

    A run that trains in the calling process, not in a ``_map_units``
    worker, is evaluated on a forked helper process (``_evaluate_on_helper``)
    when this process may use more than one CPU and can fork: the helper
    evaluates each epoch on a forked copy of the run's stream while the next
    epoch trains, and has exited before the run's outcome is known. A pool
    worker evaluates in process, so the pool never grows. The records are
    the same either way."""
    (config, hyperparams, partitions, merge_val, class_weights), run_idx = unit
    path, failed_path = _run_paths(Path(config.output_dir), run_idx)
    stream = TaskStream(partitions, merge_val_into_train=merge_val)
    alone = _forked_job is None and _usable_cpus() > 1 and _can_fork()
    started = time.monotonic()
    out = _caught(_train, config, hyperparams, stream, class_weights, run_idx,
                  evaluation=_evaluate_on_helper if alone else evaluate_in_process)
    entry = {"run": run_idx, "wall_clock_s": time.monotonic() - started}
    if isinstance(out, SeqclError):
        entry.update(status="failed", error=type(out).__name__, message=str(out))
        for extra in ("residual", "iterations"):
            if hasattr(out, extra):
                entry[extra] = _jsonable(getattr(out, extra))
        _write_atomic(failed_path, [json.dumps(entry, indent=2, sort_keys=True)])
        log.warning("%s run %d failed: %s", config.output_dir, run_idx, out)
        return entry, None

    bad_epochs = {task: n for task, n in out.epochs_run.items() if n != config.epochs_per_task}
    if bad_epochs:
        return SeqclError(f"epoch accounting violated: {bad_epochs}")
    header = {"fingerprint": config_fingerprint(config), "run": run_idx,
              "records_version": RECORDS_VERSION}
    _write_atomic(path, itertools.chain(  # records hold str, int, float and None only
        [json.dumps(header) + "\n"],
        (json.dumps(record, sort_keys=True) + "\n" for record in out.records),
    ))
    entry.update(status="ok", leakage_intersection=[], epochs_per_task_ok=True)
    return entry, out.final_params


def _finish(config, hyperparams, final_partitions, merge_val, class_weights, outcomes):
    """Write ``metadata.json`` of a prepared experiment from its runs'
    ``_run_one`` outcomes, in run order; the final parameters of its
    completed runs, by run index."""
    for outcome in outcomes:
        if isinstance(outcome, SeqclError):
            raise outcome
    settings = config.trainer_settings(hyperparams)
    metadata = {
        "fingerprint": config_fingerprint(config),
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
        "excluded_tuning_tasks": not merge_val,
        "records_version": RECORDS_VERSION,
        "runs": [entry for entry, _ in outcomes],
    }
    (Path(config.output_dir) / "metadata.json").write_text(
        json.dumps(_jsonable(metadata), indent=2, sort_keys=True)
    )
    completed = {entry["run"]: params for entry, params in outcomes if entry["status"] == "ok"}
    if not completed:
        raise SeqclError("every run failed; see diagnostic files")
    return completed


def run_experiments(experiments, partitions=None) -> list:
    """The repeated-seeds protocol behind every reported number, for each
    ``(config, hyperparams)`` pair of ``experiments`` (``None``
    hyperparameters read as ``{}``), each on ``partitions`` when given, else
    on its config's data; returns, per experiment in order, the final
    parameters of its completed runs keyed by run index. The records are in
    the run files only.

    Every config and its hyperparameters are checked before any partition
    loads. Each experiment is then prepared here: streams with more than five
    tasks drop the two tuning tasks from the final phase; shorter streams keep
    them and fold their validation data into training. Class weights come
    from the first two tasks' training labels once, before any exclusion, and
    the leakage audit reads the final partitions once, before any run trains.
    The runs of every experiment are independent seeded units, and all of
    them train through one ``_map_units`` call, so on several CPUs in
    parallel, each in a forked process; the records do not depend on how
    many. The unit that trains a run writes its JSONL metric stream; a failed
    run leaves a diagnostic file and the experiment keeps its remaining
    seeds. Either replaces what an earlier invocation left for that run and
    is written whole or not at all, and ``metadata.json``, written here once
    an experiment's runs have all ended, lists the runs that ``report``
    reads.

    A failed experiment does not stop the others. Once all have ended, the
    first failure's error class is raised; of several experiments, it names
    every failed one's output directory.
    """
    experiments = [(config, {} if hyperparams is None else hyperparams)
                   for config, hyperparams in experiments]
    for config, hyperparams in experiments:
        config.validate()
        _check_hyperparams(config, hyperparams)
    prepared = [_caught(_prepare, config, hyperparams, partitions)
                for config, hyperparams in experiments]
    units = [(experiment, run_idx) for experiment in prepared
             if not isinstance(experiment, SeqclError)
             for run_idx in range(experiment[0].n_runs)]
    outcomes = iter(_map_units(_run_one, units))
    results = []
    for experiment in prepared:
        if not isinstance(experiment, SeqclError):
            runs = list(itertools.islice(outcomes, experiment[0].n_runs))
            experiment = _caught(_finish, *experiment, runs)
        results.append(experiment)
    failures = [(config.output_dir, result) for (config, _), result in zip(experiments, results)
                if isinstance(result, SeqclError)]
    if failures:  # the first failure's class keeps its exit code in the CLI
        first = failures[0][1]
        if len(experiments) > 1:
            first.args = ("; ".join(f"experiment {d} failed: {err}" for d, err in failures),)
        raise first
    return results


def run_experiment(config: ExperimentConfig, hyperparams=None, partitions=None):
    """``run_experiments`` for one experiment: a RunOutput per completed run,
    in run order, its records read back from its run file, or its error."""
    completed = run_experiments([(config, hyperparams)], partitions)[0]
    out_dir = Path(config.output_dir)
    return [RunOutput(run_idx, read_run_file(_run_paths(out_dir, run_idx)[0])[1],
                      final_params=params)
            for run_idx, params in completed.items()]


# ---------------------------------------------------------------------------
# reporting


def _read_experiment(exp_dir: Path):
    """metadata.json and the records of every run it lists as ok."""
    meta_path = exp_dir / "metadata.json"
    metadata = read(METADATA_RULES, load_json(meta_path, ReportError), str(meta_path),
                    METADATA_REQUIRED, ReportError)
    metadata["config"] = read(EXPERIMENT_RULES, metadata["config"], f"{meta_path}.config",
                              _REPORTED_CONFIG_KEYS, ReportError)
    runs = {}
    fingerprints = {metadata["fingerprint"]}
    versions = {metadata.setdefault("records_version", 1)}
    for entry in metadata["runs"]:
        if entry["status"] != "ok":
            continue
        path = _run_paths(exp_dir, entry["run"])[0]
        if not path.exists():
            raise ReportError(f"{exp_dir} lists run {entry['run']} as ok but has no {path.name}")
        header, runs[entry["run"]] = read_run_file(path)
        fingerprints.add(header["fingerprint"])
        versions.add(header.get("records_version", 1))
    for what, seen in (("config fingerprints", fingerprints), ("records versions", versions)):
        if len(seen) > 1:
            raise ReportError(f"mixed {what} in one directory: "
                              + ", ".join(map(str, sorted(seen))))
    if not runs:
        raise ReportError(f"{exp_dir} has no completed runs")
    return metadata, runs


def final_mean_balanced_accuracy(records, epochs_per_task, split="test"):
    """The seen-task mean balanced accuracy on ``split`` at the last task's
    final epoch; None when the records hold no such row."""
    last_trained = max(r["trained_task"] for r in records)
    for row in reversed(records):
        if (row["trained_task"] == last_trained and row["eval_task"] is None
                and row["split"] == split and row["epoch"] == epochs_per_task - 1):
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


def summarize_experiment(name, metadata, runs) -> dict:
    """Per-experiment summary row from ``_read_experiment``'s metadata and
    runs: final balanced accuracy and forgetting, means with bootstrap
    confidence intervals across runs."""
    epochs = metadata["config"]["epochs_per_task"]
    per_run = {"balanced_accuracy": final_mean_balanced_accuracy,
               "forgetting": final_mean_forgetting}
    row = {
        "experiment": name,
        "strategy": metadata["config"]["strategy"],
        "architecture": metadata["config"]["architecture"].get("kind"),
        "n_runs": len(runs),
        "fingerprint": metadata["fingerprint"],
    }
    for metric, final_value in per_run.items():
        values = [v for v in (final_value(records, epochs) for records in runs.values())
                  if v is not None]
        row[f"final_{metric}_mean"] = float(np.mean(values)) if values else None
        row[f"final_{metric}_ci"] = list(bootstrap_ci(values)) if len(values) >= 2 else None
    row["ci_suppressed"] = row["final_balanced_accuracy_ci"] is None
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
    """Summary tables plus plot-ready series for one experiment directory, or
    for each experiment subdirectory of a directory, in name order. Nothing
    is written unless every experiment reads and all share one records
    version."""
    results_dir = Path(results_dir)
    if not results_dir.exists():
        raise ReportError(f"no such results directory: {results_dir}")
    if (results_dir / "metadata.json").exists():
        exp_dirs = [results_dir]
    else:
        exp_dirs = sorted(
            child for child in results_dir.iterdir()
            if (child / "metadata.json").exists()
        )
        if not exp_dirs:
            raise ReportError(f"{results_dir} holds no experiment results")

    summary_rows = []
    series = {}  # written once every experiment has been read
    versions = {}
    for exp_dir in exp_dirs:
        metadata, runs = _read_experiment(exp_dir)
        versions.setdefault(metadata["records_version"], exp_dir)
        if len(versions) > 1:
            raise ReportError("records versions differ across experiments: " + ", ".join(
                f"{d.name} has version {v}" for v, d in sorted(versions.items())))
        summary_rows.append(summarize_experiment(exp_dir.name, metadata, runs))
        series[exp_dir] = _series_rows(runs)
    fields = ["trained_task", "epoch", "eval_task", "split",
              "balanced_accuracy_mean", "n_runs"]
    for exp_dir, rows in series.items():
        _write_csv(exp_dir / "trajectories.csv",
                   [r for r in rows if r["eval_task"] is not None], fields)
        _write_csv(exp_dir / "seen_average.csv", [r for r in rows if r["eval_task"] is None],
                   fields)

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
    """Full experiment per axis value, seeds shared, every group one
    experiment of a single ``run_experiments`` call, so a failed group does
    not stop the others. Returns the group directories
    ``<output_dir>/<axis>_<k>``, ``k`` padded to the width of the last index
    so that name order is axis order. An ``<axis>_*`` directory an earlier
    sweep left that this one does not write loses its ``metadata.json``, so
    ``report`` no longer lists it."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}"
        )
    values = list(values) if values is not None else list(_DEFAULT_SWEEP_VALUES[axis])
    if not values:
        raise ConfigurationError("sweep needs at least one axis value")
    base_dir = Path(config.output_dir)
    width = len(str(len(values) - 1))
    group_configs = [
        config_from_dict({
            **_jsonable(asdict(config)),
            axis: value,
            "output_dir": str(base_dir / f"{axis}_{position:0{width}d}"),
        })
        for position, value in enumerate(values)
    ]
    groups = [Path(group_config.output_dir) for group_config in group_configs]
    for stale in base_dir.glob(f"{axis}_*/metadata.json"):
        if stale.parent not in groups:
            stale.unlink()
    run_experiments([(group_config, hyperparams) for group_config in group_configs])
    return groups
