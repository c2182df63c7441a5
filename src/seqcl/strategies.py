"""Continual-learning strategy plugins.

Each strategy is a bundle of hooks consumed by the training loop: a
quadratic anchor that the optimizer step pulls toward, a gradient transform
applied before that step, and task-boundary callbacks that build anchors or
refill rehearsal buffers. Unimplemented hooks are no-ops, so ``Naive`` is
literally the base class. EWC, online EWC and SI share one penalty
representation, the merged quadratic ``Anchor``.
Every gradient, the trainer's and the ones strategies take for themselves
(Fisher rows, GEM and A-GEM references), comes from the same graph calls:
``forward``, then dlogits (``Graph.loss`` plus any ``batch_loss`` term),
then the one reverse loop. GEM and A-GEM references and the trainer's step
read it summed over the batch (``backward_from_dlogits``); the Fisher reads
it per example (``row_gradients``, the ``RowGradients`` sink), one pass per
chunk.

The math lives in ``Anchor`` and module-level functions (``gem_project``,
``solve_dual_qp``, ``si_consolidate``, ...) so it can be checked against
hand values and brute-force oracles without building a model.

Each strategy class declares its grid vocabulary once, in ``hyperparams``
(grid key -> ``rules.Rule``). ``build_strategy`` and the harness's grid
checks apply those rules, so constructors only store values.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import _check_labels, log_softmax, softmax, weighted_ce_with_grad
from .errors import ConfigurationError, QpNonConvergenceError, UsageError
from .rules import COUNT, FLAG, NON_NEGATIVE, POSITIVE, SIZE, SIZE_OR_NULL, UNIT_INTERVAL, read

log = logging.getLogger(__name__)

SI_DAMPING = 1e-3  # SI's default xi in Omega = omega / (drift^2 + xi)


# ---------------------------------------------------------------------------
# quadratic anchors and importance math


@dataclass(frozen=True)
class Anchor:
    """A quadratic pull toward stored parameter states, merged into one term.

    One stored state ``centre`` with stiffness ``kappa`` contributes the
    penalty (1/2) * sum_i kappa_i (theta_i - centre_i)^2. Any number of them
    merge into ``kappa`` (their summed stiffness) and ``pull`` (the summed
    kappa * centre), so the penalty gradient is ``kappa * theta - pull`` and
    the memory is two vectors however many states are held. EWC adds
    kappa = lam * F_t at every finished task, online EWC holds
    kappa = lam * F_run and SI kappa = (2 * lam) * Omega, each at the latest
    task end. The trainer reads ``kappa`` and ``pull`` for its proximal step;
    ``gradient`` is the explicit form, kept as the oracle that step is checked
    against.
    """

    kappa: np.ndarray
    pull: np.ndarray

    @classmethod
    def at(cls, kappa, centre) -> "Anchor":
        """The anchor of one stored state."""
        return cls(kappa, kappa * centre)

    def __add__(self, other) -> "Anchor":
        return Anchor(self.kappa + other.kappa, self.pull + other.pull)

    def gradient(self, theta) -> np.ndarray:
        return self.kappa * theta - self.pull


def online_ewc_merge(running, fresh, decay) -> np.ndarray:
    """Running importance update: decay * running + fresh."""
    return fresh if running is None else decay * running + fresh


def si_observe(omega, grad, delta) -> None:
    """Per-step path integral, in place: omega += (-g) * delta_theta."""
    omega += (-grad) * delta


def si_consolidate(omega, drift, damping) -> np.ndarray:
    """One task's importance: omega / (drift^2 + xi), elementwise."""
    return omega / (drift * drift + damping)


def compute_fisher(model, features, labels, batch_size=64) -> np.ndarray:
    """Empirical Fisher diagonal at the model's current parameters.

    Mean over samples of the squared gradient of log p(y_n | x_n), with y_n
    the true label. Each chunk of ``batch_size`` rows takes one forward and
    one ``Graph.row_gradients`` pass, whose per-example gradients are bit
    for bit those of a single-row backward of the chunk; their squares are
    summed row by row in sample order. The pass holds N*P*8 bytes for a
    chunk of N rows and P parameters: 3.1 MB for 64 rows of a 1-layer
    h=32 LSTM over 10 features.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    labels = _check_labels(labels, n)  # DataError unless one 0/1 label per row
    if n == 0:
        raise UsageError("empirical Fisher needs at least one sample")
    x = model.prepare_batch(features)
    acc = model.params.zeros_like()
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        dlogits = softmax(model.graph.forward(model.params, x[start:stop]))
        dlogits[np.arange(stop - start), labels[start:stop]] -= 1.0
        for g in model.graph.row_gradients(dlogits):
            acc += g * g
    return acc / float(n)


# ---------------------------------------------------------------------------
# distillation


def distillation_with_grad(student_logits, teacher_logits, alpha, temperature):
    """Distillation term and its d/dlogits, the one copy of LwF's KL math.

    value = alpha * T^2 * KL(softmax(teacher/T) || softmax(student/T)),
    averaged over the batch. The gradient w.r.t. the student logits is
    alpha * T * (p_student - p_teacher) / N.
    """
    n = student_logits.shape[0]
    log_ps = log_softmax(student_logits / temperature)
    log_pt = log_softmax(teacher_logits / temperature)
    pt = np.exp(log_pt)
    kl = float(np.sum(pt * (log_pt - log_ps))) / n
    value = alpha * temperature * temperature * kl
    dlogits = alpha * temperature * (np.exp(log_ps) - pt) / n
    return value, dlogits


# ---------------------------------------------------------------------------
# rehearsal buffers


@dataclass
class ReplayBuffer:
    """Per-task verbatim sample stores, in task-encounter order."""

    tasks: list = field(default_factory=list)  # [(features, labels), ...]

    def counts(self):
        return [int(labels.shape[0]) for _, labels in self.tasks]

    def concat(self):
        """All stored samples, oldest task first; None when empty."""
        kept = [(f, y) for f, y in self.tasks if y.shape[0]]
        if not kept:
            return None
        features = np.concatenate([f for f, _ in kept], axis=0)
        labels = np.concatenate([y for _, y in kept], axis=0)
        return features, labels


def replay_store(buffer: ReplayBuffer, features, labels, rng, budget=256) -> None:
    """Append one task's sample: min(budget, N) drawn uniformly without
    replacement, kept in original stream order. budget=None stores everything
    (and draws nothing, so the unlimited case is RNG-silent)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if budget is None or budget >= n:
        idx = np.arange(n)
    elif budget <= 0:
        idx = np.arange(0)
    else:
        idx = np.sort(rng.choice(n, size=int(budget), replace=False))
    buffer.tasks.append((features[idx].copy(), labels[idx].copy()))


def gdumb_quotas(budget: int, n_seen: int):
    """Per-task slot counts, oldest to newest: floor split plus one extra
    slot for each of the remainder-many most recent tasks."""
    if n_seen < 1:
        raise UsageError("quota split needs at least one task")
    base = budget // n_seen
    remainder = budget - base * n_seen
    quotas = [base] * n_seen
    for k in range(n_seen - remainder, n_seen):
        quotas[k] += 1
    return quotas


def gdumb_rebalance(buffer: ReplayBuffer, stream_tasks, budget: int) -> None:
    """Rebuild the buffer from the per-task stream: each task keeps its
    quota-many most recently encountered samples.

    Quotas only shrink as tasks accumulate, so passing the current buffer
    contents as the stream for already-stored tasks is exact.
    """
    quotas = gdumb_quotas(budget, len(stream_tasks))
    rebuilt = []
    for (features, labels), quota in zip(stream_tasks, quotas):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        keep = min(quota, labels.shape[0])
        start = labels.shape[0] - keep
        rebuilt.append((features[start:].copy(), labels[start:].copy()))
    buffer.tasks = rebuilt


# ---------------------------------------------------------------------------
# gradient projections


def solve_dual_qp(h, b, iters=5000, tol=1e-10) -> np.ndarray:
    """Minimize (1/2) v'Hv + b'v over v >= 0 by projected coordinate descent.

    H must be symmetric PSD. Convergence is declared when the KKT residual
    max(|r_i| for v_i > 0, max(0, -r_i) for v_i = 0), r = Hv + b, drops to
    tol; otherwise QpNonConvergenceError carries the last residual.
    """
    h = np.asarray(h, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = b.shape[0]
    if h.shape != (k, k):
        raise UsageError(f"H must be {k}x{k}, got {h.shape}")
    v = np.zeros(k)
    diag = np.diag(h)
    residual = np.inf
    for sweep in range(iters):
        for i in range(k):
            if diag[i] <= 0.0:
                continue  # zero row of a PSD matrix; multiplier stays put
            r_i = h[i] @ v + b[i]
            v[i] = max(0.0, v[i] - r_i / diag[i])
        r = h @ v + b
        residual = float(np.max(np.where(v > 0.0, np.abs(r), np.maximum(0.0, -r))))
        if residual <= tol:
            return v
    raise QpNonConvergenceError(residual=residual, iterations=iters)


def gem_project(grad, references, margin, iters=5000, tol=1e-10) -> np.ndarray:
    """Project a gradient so every reference-gradient inner product clears
    the margin.

    If all constraints already hold the gradient is returned verbatim.
    Otherwise the result is the closest point z = g + G'v with
    <z, g_k> >= margin for every row g_k, found through the dual QP over
    multipliers v >= 0 with H = GG' and b = Gg - margin.
    """
    grad = np.asarray(grad, dtype=np.float64)
    refs = np.asarray(references, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[1] != grad.shape[0]:
        raise UsageError(
            f"reference matrix must be [k, {grad.shape[0]}], got {refs.shape}"
        )
    dots = refs @ grad
    if np.all(dots >= margin):
        return grad
    h = refs @ refs.T
    b = dots - margin
    v = solve_dual_qp(h, b, iters=iters, tol=tol)
    return grad + refs.T @ v


def agem_project(grad, ref_grad) -> np.ndarray:
    """Single-constraint projection: remove the component opposing the
    reference gradient, if any."""
    grad = np.asarray(grad, dtype=np.float64)
    ref_grad = np.asarray(ref_grad, dtype=np.float64)
    if ref_grad.shape != grad.shape:
        raise UsageError("reference gradient shape mismatch")
    dot = float(grad @ ref_grad)
    if dot >= 0.0:
        return grad
    denom = float(ref_grad @ ref_grad)
    if denom == 0.0:
        log.warning("zero reference gradient; projection skipped")
        return grad
    return grad - (dot / denom) * ref_grad


# ---------------------------------------------------------------------------
# strategy plugins


class Strategy:
    """No-op hook bundle; subclasses override what they need.

    ``hyperparams`` maps each grid key the strategy accepts to its ``Rule``,
    and the constructor takes exactly those keys (``lambda_e`` aside, an
    alias ``build_strategy`` folds into ``alpha``). ``budget_key`` names the
    key that defaults to the config's ``buffer_budget``.

    Hook order per task, as driven by the trainer: before_task, optional
    scratch reinit, training_data, then per batch (batch_loss,
    transform_gradient, the optimizer step, per_step_observe), and after_task
    once the epoch budget is spent. The step reads ``anchor``, the merged
    quadratic pull of EWC, online EWC and SI, once per task; None means no
    pull.
    """

    kind = "naive"
    hyperparams = {}
    budget_key = None
    anchor = None

    def before_task(self, model, task_idx, features, labels, rng) -> None:
        pass

    def wants_scratch_model(self, task_idx) -> bool:
        return False

    def training_data(self, features, labels, task_idx):
        return features, labels

    def batch_loss(self, model, batch, logits, labels, class_weights):
        """Extra loss on top of the weighted CE; returns (value, dlogits or None)."""
        return 0.0, None

    def penalty_gradient(self, theta):
        """The explicit gradient of the anchor penalty, or None without an
        anchor: the oracle of the trainer's proximal step, which never calls
        it. Ewc, OnlineEwc and Si bind it in their own class bodies, where
        the benchmark's tracer finds it."""
        return None if self.anchor is None else self.anchor.gradient(theta)

    def transform_gradient(self, grad, model, class_weights, rng):
        return grad

    def per_step_observe(self, grad, delta) -> None:
        """Sees each step's task gradient and the parameter change it made."""

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        pass


class Naive(Strategy):
    kind = "naive"


class Replay(Strategy):
    """Uniform per-task reservoirs concatenated into each new task's data."""

    kind = "replay"
    hyperparams = {"patterns_per_exp": SIZE_OR_NULL}
    budget_key = "patterns_per_exp"

    def __init__(self, patterns_per_exp=256):
        self.patterns_per_exp = patterns_per_exp  # per task; None = unlimited
        self.buffer = ReplayBuffer()

    def training_data(self, features, labels, task_idx):
        stored = self.buffer.concat()
        if stored is None:
            return features, labels
        old_f, old_y = stored
        return (
            np.concatenate([old_f, features], axis=0),
            np.concatenate([old_y, labels], axis=0),
        )

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        replay_store(self.buffer, features, labels, rng, budget=self.patterns_per_exp)


class Cumulative(Replay):
    """Joint training on everything seen so far: replay without a budget."""

    kind = "cumulative"
    hyperparams = {}
    budget_key = None

    def __init__(self):
        super().__init__(patterns_per_exp=None)


class Gdumb(Strategy):
    """Quota-balanced buffer of most recent samples; the model is retrained
    from scratch on the buffer alone at every task boundary."""

    kind = "gdumb"
    hyperparams = {"mem_size": SIZE, "gdumb_scratch_retrain": FLAG}
    budget_key = "mem_size"

    def __init__(self, mem_size=256, gdumb_scratch_retrain=True):
        self.mem_size = mem_size
        self.scratch_retrain = gdumb_scratch_retrain
        self.buffer = ReplayBuffer()

    @property
    def _inert(self) -> bool:
        return self.mem_size <= 0

    def before_task(self, model, task_idx, features, labels, rng) -> None:
        if self._inert:
            return
        stream = list(self.buffer.tasks) + [
            (np.asarray(features, dtype=np.float64), np.asarray(labels))
        ]
        gdumb_rebalance(self.buffer, stream, self.mem_size)

    def wants_scratch_model(self, task_idx) -> bool:
        return self.scratch_retrain and not self._inert

    def training_data(self, features, labels, task_idx):
        if self._inert:
            return features, labels
        stored = self.buffer.concat()
        if stored is None:
            return features, labels
        return stored


class Ewc(Strategy):
    """Quadratic pull toward every past task's parameters, Fisher-weighted."""

    kind = "ewc"
    hyperparams = {"ewc_lambda": NON_NEGATIVE, "fisher_batch_size": COUNT}

    def __init__(self, ewc_lambda=1.0, fisher_batch_size=64):
        self.lam = ewc_lambda
        self.fisher_batch_size = fisher_batch_size
        self.anchor = None  # every finished task's pull, merged in task order

    penalty_gradient = Strategy.penalty_gradient

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        if self.lam == 0.0:  # no anchor is ever read, so no Fisher is needed
            return
        fisher = compute_fisher(model, features, labels, self.fisher_batch_size)
        fresh = Anchor.at(self.lam * fisher, model.params.values)
        self.anchor = fresh if self.anchor is None else self.anchor + fresh


class OnlineEwc(Strategy):
    """Single decayed importance accumulator anchored at the latest task end."""

    kind = "online_ewc"
    hyperparams = {"ewc_lambda": NON_NEGATIVE, "decay_factor": UNIT_INTERVAL,
                   "fisher_batch_size": COUNT}

    def __init__(self, ewc_lambda=1.0, decay_factor=0.9, fisher_batch_size=64):
        self.lam = ewc_lambda
        self.decay = decay_factor
        self.fisher_batch_size = fisher_batch_size
        self.running_fisher = None
        self.anchor = None

    penalty_gradient = Strategy.penalty_gradient

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        if self.lam == 0.0:  # no anchor is ever read, so no Fisher is needed
            return
        fresh = compute_fisher(model, features, labels, self.fisher_batch_size)
        self.running_fisher = online_ewc_merge(self.running_fisher, fresh, self.decay)
        self.anchor = Anchor.at(self.lam * self.running_fisher, model.params.values)


class Si(Strategy):
    """Path-integral importance accumulated during training itself.

    omega integrates -g_task * delta_theta over the steps the trainer takes,
    g_task being the gradient before the proximal pull, so the penalty's own
    pull never counts as importance. At zero strength no anchor is built.
    """

    kind = "si"
    hyperparams = {"si_lambda": NON_NEGATIVE, "damping": POSITIVE}

    def __init__(self, si_lambda=1.0, damping=SI_DAMPING):
        self.strength = si_lambda
        self.damping = damping
        self.importance = None  # consolidated Omega over finished tasks
        self.anchor = None
        self.omega = None  # this task's path integral
        self.task_start = None

    def before_task(self, model, task_idx, features, labels, rng) -> None:
        self.task_start = model.params.values.copy()
        self.omega = model.params.zeros_like()

    penalty_gradient = Strategy.penalty_gradient

    def per_step_observe(self, grad, delta) -> None:
        si_observe(self.omega, grad, delta)

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        theta = model.params.values
        if self.importance is None:
            self.importance = np.zeros_like(theta)
        self.importance += si_consolidate(self.omega, theta - self.task_start, self.damping)
        if self.strength != 0.0:
            self.anchor = Anchor.at((2.0 * self.strength) * self.importance, theta)


class Lwf(Strategy):
    """Logit distillation against a frozen copy taken at each task start."""

    kind = "lwf"
    hyperparams = {"alpha": NON_NEGATIVE, "lambda_e": NON_NEGATIVE, "temperature": POSITIVE}

    def __init__(self, alpha=1.0, temperature=2.0):
        self.alpha = alpha
        self.temperature = temperature
        self.teacher_params = None

    def before_task(self, model, task_idx, features, labels, rng) -> None:
        if task_idx == 0 or self.alpha == 0.0:
            self.teacher_params = None
            return
        self.teacher_params = model.params.copy()

    def batch_loss(self, model, batch, logits, labels, class_weights):
        if self.teacher_params is None:
            return 0.0, None
        teacher_logits = model.graph.infer(self.teacher_params, batch)
        return distillation_with_grad(logits, teacher_logits, self.alpha, self.temperature)


def _memory_gradient(model, features, labels, class_weights):
    x = model.prepare_batch(features)
    logits = model.graph.forward(model.params, x)
    _, dlogits = weighted_ce_with_grad(logits, labels, class_weights)
    return model.graph.backward_from_dlogits(dlogits)


class Gem(Strategy):
    """Hard per-task constraints: the step must not increase any stored
    task's loss, enforced through the dual QP projection."""

    kind = "gem"
    hyperparams = {"memory_strength": NON_NEGATIVE, "patterns_per_exp": SIZE_OR_NULL,
                   "qp_iters": COUNT, "qp_tol": POSITIVE}
    budget_key = "patterns_per_exp"

    def __init__(self, memory_strength=0.5, patterns_per_exp=256,
                 qp_iters=5000, qp_tol=1e-10):
        self.margin = memory_strength
        self.patterns_per_exp = patterns_per_exp
        self.qp_iters = qp_iters
        self.qp_tol = qp_tol
        self.buffer = ReplayBuffer()

    def transform_gradient(self, grad, model, class_weights, rng):
        active = [(f, y) for f, y in self.buffer.tasks if y.shape[0]]
        if not active:
            return grad
        refs = np.stack(
            [_memory_gradient(model, f, y, class_weights) for f, y in active]
        )
        return gem_project(grad, refs, self.margin, iters=self.qp_iters, tol=self.qp_tol)

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        replay_store(self.buffer, features, labels, rng, budget=self.patterns_per_exp)


class Agem(Strategy):
    """Averaged single-constraint variant: one reference gradient from a
    random draw over the union of stored memories."""

    kind = "agem"
    hyperparams = {"patterns_per_exp": SIZE_OR_NULL, "sample_size": COUNT}
    budget_key = "patterns_per_exp"

    def __init__(self, patterns_per_exp=256, sample_size=256):
        self.patterns_per_exp = patterns_per_exp
        self.sample_size = sample_size
        self.buffer = ReplayBuffer()

    def transform_gradient(self, grad, model, class_weights, rng):
        stored = self.buffer.concat()
        if stored is None:
            return grad
        features, labels = stored
        total = labels.shape[0]
        if total > self.sample_size:
            idx = rng.choice(total, size=self.sample_size, replace=False)
            features, labels = features[idx], labels[idx]
        ref = _memory_gradient(model, features, labels, class_weights)
        return agem_project(grad, ref)

    def after_task(self, model, task_idx, features, labels, rng) -> None:
        replay_store(self.buffer, features, labels, rng, budget=self.patterns_per_exp)


# ---------------------------------------------------------------------------
# construction

STRATEGIES = {cls.kind: cls for cls in (
    Naive, Cumulative, Ewc, OnlineEwc, Si, Lwf, Replay, Gdumb, Gem, Agem,
)}


def build_strategy(name: str, hyperparams=None) -> Strategy:
    """Instantiate a strategy by name with its grid-vocabulary hyperparameters,
    each checked by its rule and normalised before the constructor sees it.

    ``lambda_e`` is accepted as an alias for the distillation weight
    ``alpha``; passing both with different values is an error.
    """
    if name not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {name!r}; expected one of {', '.join(STRATEGIES)}"
        )
    hp = read(STRATEGIES[name].hyperparams, hyperparams or {}, name)
    if "lambda_e" in hp:
        lam_e = hp.pop("lambda_e")
        if hp.setdefault("alpha", lam_e) != lam_e:
            raise ConfigurationError("alpha and lambda_e disagree; set only one")
    return STRATEGIES[name](**hp)
