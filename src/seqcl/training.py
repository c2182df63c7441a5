"""Single-run training loop: SGD over tasks with strategy hooks.

The run owns all of its randomness through named substreams derived from
(master_seed, run_idx, site), so every stochastic site (weight init, epoch
shuffling, buffer sampling, memory subsampling, scratch reinit) reproduces
independently of the others. Strategies that never draw leave their streams
untouched, which is what makes the zeroed-strength and unlimited-buffer
equivalences bitwise.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError
from .metrics import METRIC_NAMES, summarize_classification
from .models import predict
from .rules import COUNT, HALF_OPEN_UNIT, NON_NEGATIVE, read
from .strategies import Strategy

# fixed per-site tags folded into the seed tuple
RNG_SITES = {
    "init": 0x11A7,
    "shuffle": 0x5F1E,
    "buffer": 0xB0FF,
    "memory": 0xA6E3,
    "reinit": 0x4E17,
}


def stream_rng(master_seed: int, run_idx: int, site: str) -> np.random.Generator:
    """The named substream for one stochastic site of one run."""
    if site not in RNG_SITES:
        raise ConfigurationError(f"unknown rng site {site!r}")
    seq = np.random.SeedSequence((int(master_seed), int(run_idx), RNG_SITES[site]))
    return np.random.default_rng(seq)


def stream_seed(master_seed: int, run_idx: int, site: str) -> int:
    """A plain integer seed drawn from the named substream."""
    return int(stream_rng(master_seed, run_idx, site).integers(0, 2**31 - 1))


def compute_class_weights(labels) -> tuple:
    """Inverse-proportion class weights, normalized to mean 1 over samples."""
    labels = np.asarray(labels)
    n = labels.size
    counts = np.array([np.sum(labels == 0), np.sum(labels == 1)], dtype=np.float64)
    if np.any(counts == 0):
        raise DataError("class weights need both classes present")
    return (n / (2.0 * counts[0]), n / (2.0 * counts[1]))


def _read_only(array):
    array.setflags(write=False)
    return array


class TaskStream:
    """Ordered task partitions behind an access-counting facade.

    Every data read during tuning and training goes through ``get``, so the
    counter doubles as the protocol audit: tuning must leave every task
    index >= 2 at zero accesses. Each (task, split) is assembled on its
    first access only; the arrays the stream builds itself are read-only,
    since every later ``get`` hands out the same objects.
    """

    def __init__(self, partitions, merge_val_into_train=False):
        self.partitions = list(partitions)
        self.merge_val_into_train = bool(merge_val_into_train)
        self.access_counts = {}
        self._assembled = {}

    def __len__(self):
        return len(self.partitions)

    def task_name(self, task_idx: int) -> str:
        return self.partitions[task_idx].task_name

    def get(self, task_idx: int, split: str):
        """(features, labels, patient_ids) for one partition of one task."""
        part = self.partitions[task_idx]
        key = (task_idx, split)
        self.access_counts[key] = self.access_counts.get(key, 0) + 1
        if key not in self._assembled:
            self._assembled[key] = self._assemble(task_idx, part, split)
        return self._assembled[key]

    def _assemble(self, task_idx, part, split):
        if split == "train":
            data = part.train
            if self.merge_val_into_train and part.val is not None:
                return tuple(_read_only(merged) for merged in (
                    np.concatenate([part.train.features(), part.val.features()]),
                    np.concatenate([part.train.labels, part.val.labels]),
                    np.concatenate([part.train.patient_ids, part.val.patient_ids]),
                ))
        elif split == "val":
            data = part.val
            if data is None:
                raise DataError(f"task {task_idx} has no validation partition")
        elif split == "test":
            data = part.test
        else:
            raise ConfigurationError(f"unknown split {split!r}")
        return _read_only(data.features()), data.labels, data.patient_ids


# TrainerSettings field -> rule
TRAINER_RULES = {"epochs_per_task": COUNT, "batch_size": COUNT,
                 "learning_rate": NON_NEGATIVE, "momentum": HALF_OPEN_UNIT}


@dataclass
class TrainerSettings:
    epochs_per_task: int = 40
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.0

    def validate(self):
        read(TRAINER_RULES, vars(self), "trainer")


@dataclass
class RunOutput:
    run_idx: int
    records: list = field(default_factory=list)
    epochs_run: dict = field(default_factory=dict)  # task_idx -> epoch count
    final_params: np.ndarray | None = None


def evaluate_seen_tasks(model, stream, upto_task, class_weights, splits=("test", "train")):
    """Metric rows for every seen task on the requested splits, plus one
    running-mean row per split (eval_task None, averaged where defined)."""
    class_weights = np.asarray(class_weights, dtype=np.float64)
    task_names = [stream.task_name(j) for j in range(upto_task + 1)]
    rows = []
    for split in splits:
        per_task = []
        for j, task_name in enumerate(task_names):
            features, labels, _ = stream.get(j, split)
            probs = predict(model, features)
            values = summarize_classification(probs, labels, class_weights)
            per_task.append(values)
            rows.append(
                {"eval_task": j, "eval_task_name": task_name, "split": split, "metrics": values}
            )
        means = {}
        for name in METRIC_NAMES:
            defined = [v[name] for v in per_task if v[name] is not None]
            means[name] = float(np.mean(defined)) if defined else None
        rows.append(
            {"eval_task": None, "eval_task_name": None, "split": split, "metrics": means}
        )
    return rows


@contextmanager
def evaluate_in_process(build_model_fn, stream, class_weights, splits):
    """The degenerate evaluation executor, and ``run_single``'s default.

    An evaluation executor is a context manager called with the run's model
    builder, task stream, class weights and evaluation splits. It yields
    ``submit(model, task_idx)``, which takes the model as it stands after an
    epoch and returns a callable giving that epoch's ``evaluate_seen_tasks``
    rows, or raising its error. This one evaluates the live model at once, in
    this process, so its errors raise from ``submit`` itself.
    """
    def submit(model, task_idx):
        rows = evaluate_seen_tasks(model, stream, task_idx, class_weights, splits)
        return lambda: rows

    yield submit


def _batches(n, batch_size, order):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def run_single(
    build_model_fn,
    stream: TaskStream,
    strategy: Strategy,
    class_weights,
    settings: TrainerSettings,
    master_seed: int,
    run_idx: int,
    eval_splits=("test", "train"),
    n_train_tasks=None,
    evaluation=evaluate_in_process,
) -> RunOutput:
    """Train one model over the task stream under one strategy.

    build_model_fn(seed) must return a fresh Model; the trainer draws the
    init seed itself. Exactly settings.epochs_per_task epochs are spent on
    each task no matter what the strategy does. ``n_train_tasks`` caps how
    far into the stream training goes (the tuning loop stops after two).
    The records, the epochs spent per task and the final parameters come
    back in memory; writing them is the caller's part.

    Every seen task is evaluated on ``eval_splits`` after every epoch. The
    model of each epoch is submitted to the ``evaluation`` executor (see
    ``evaluate_in_process``) and training goes on; that epoch's rows are
    collected once the next epoch has trained, then stamped and appended in
    epoch order, so the records do not depend on the executor. An
    evaluation error is the run's error wherever the in-process executor
    would raise it: a later epoch's training error gives way to it.

    Each step moves the parameters by ``step = lr * g`` (``lr * v`` with
    momentum, the velocity ``v`` running over the task gradient ``g`` only).
    With the strategy's anchor ``(kappa, pull)`` it then takes the proximal
    step ``theta <- (theta - step + lr * pull) / (1 + lr * kappa)``, the exact
    minimiser of the linearised loss plus the quadratic penalty, which is
    stable for every kappa >= 0; without one it is plain ``theta -= step``.
    """
    settings.validate()
    n_tasks = len(stream) if n_train_tasks is None else min(n_train_tasks, len(stream))
    if n_tasks < 1:
        raise ConfigurationError("task stream is empty")

    model = build_model_fn(stream_seed(master_seed, run_idx, "init"))
    shuffle_rng = stream_rng(master_seed, run_idx, "shuffle")
    buffer_rng = stream_rng(master_seed, run_idx, "buffer")
    memory_rng = stream_rng(master_seed, run_idx, "memory")
    reinit_rng = stream_rng(master_seed, run_idx, "reinit")

    out = RunOutput(run_idx=run_idx)
    needs_observe = type(strategy).per_step_observe is not Strategy.per_step_observe

    def append_rows(task_idx, epoch, collect):
        for row in collect():
            row.update(run=run_idx, trained_task=task_idx,
                       trained_task_name=stream.task_name(task_idx), epoch=epoch)
            out.records.append(row)

    with evaluation(build_model_fn, stream, class_weights, eval_splits) as submit:
        pending = None  # (task_idx, epoch, collect) of the epoch being evaluated
        try:
            for task_idx in range(n_tasks):
                task_x, task_y, _ = stream.get(task_idx, "train")
                strategy.before_task(model, task_idx, task_x, task_y, buffer_rng)
                if strategy.wants_scratch_model(task_idx):
                    fresh_seed = int(reinit_rng.integers(0, 2**31 - 1))
                    model = build_model_fn(fresh_seed)
                train_x, train_y = strategy.training_data(task_x, task_y, task_idx)
                n = train_y.shape[0]
                velocity = None
                anchor = strategy.anchor  # changes only at task ends
                if anchor is not None:
                    lr_pull = settings.learning_rate * anchor.pull
                    denominator = 1.0 + settings.learning_rate * anchor.kappa
                for epoch in range(settings.epochs_per_task):
                    order = shuffle_rng.permutation(n)
                    for batch_idx in _batches(n, settings.batch_size, order):
                        x = model.prepare_batch(train_x[batch_idx])
                        yb = train_y[batch_idx]
                        logits = model.graph.forward(model.params, x)
                        _, dlogits = model.graph.loss(yb, class_weights)
                        _, extra_dlogits = strategy.batch_loss(
                            model, x, logits, yb, class_weights
                        )
                        if extra_dlogits is not None:
                            dlogits = dlogits + extra_dlogits
                        grad = model.graph.backward_from_dlogits(dlogits)
                        grad = strategy.transform_gradient(
                            grad, model, class_weights, memory_rng
                        )
                        if settings.momentum > 0.0:
                            if velocity is None:
                                velocity = np.zeros_like(grad)
                            velocity = settings.momentum * velocity + grad
                            step = settings.learning_rate * velocity
                        else:
                            step = settings.learning_rate * grad
                        theta = model.params.values
                        if needs_observe:
                            before = theta.copy()
                        theta -= step
                        if anchor is not None:  # the proximal step, in place
                            theta += lr_pull
                            theta /= denominator
                        if needs_observe:
                            strategy.per_step_observe(grad, theta - before)
                    if pending is not None:
                        previous, pending = pending, None
                        append_rows(*previous)
                    pending = (task_idx, epoch, submit(model, task_idx))
                    out.epochs_run[task_idx] = out.epochs_run.get(task_idx, 0) + 1
                strategy.after_task(model, task_idx, task_x, task_y, buffer_rng)
        except Exception:
            if pending is not None:  # evaluated in process, it would have raised first
                pending[2]()
            raise
        if pending is not None:
            append_rows(*pending)
    out.final_params = model.params.values.copy()
    return out
