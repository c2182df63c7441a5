"""Strategy math against hand values and brute-force oracles.

The projection oracles here are deliberately naive: exhaustive active-set
enumeration for the constrained projection and a dense grid scan for the
dual QP. Slow and obviously correct, so the fast implementations have
something independent to agree with.
"""

import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcl.autodiff as ad
import seqcl.rules as rules
import seqcl.strategies as cl
from seqcl.errors import ConfigurationError, DataError, QpNonConvergenceError, UsageError
from seqcl.models import ArchitectureSpec, build_model


# ---------------------------------------------------------------------------
# oracles


def project_oracle(g, refs, margin):
    """Closest z to g with refs @ z >= margin, by trying every active set."""
    k = refs.shape[0]
    best, best_d = None, np.inf
    for mask in range(1 << k):
        active = [i for i in range(k) if mask >> i & 1]
        if not active:
            z = g.copy()
        else:
            sub = refs[active]
            gram = sub @ sub.T
            try:
                v = np.linalg.solve(gram, margin - sub @ g)
            except np.linalg.LinAlgError:
                continue
            if np.any(v < -1e-9):
                continue
            z = g + sub.T @ v
        if np.all(refs @ z >= margin - 1e-9):
            d = float(np.linalg.norm(z - g))
            if d < best_d:
                best, best_d = z, d
    return best


def qp_grid_oracle(h, b, hi=3.0, step=0.01):
    """argmin of (1/2)v'Hv + b'v over the grid [0, hi]^3."""
    ax = np.arange(0.0, hi + step / 2, step)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    base = 0.5 * (h[0, 0] * x * x + h[1, 1] * y * y) + h[0, 1] * x * y
    base += b[0] * x + b[1] * y
    best_f, best_v = np.inf, None
    for z in ax:
        f = base + (h[0, 2] * x + h[1, 2] * y + b[2]) * z + 0.5 * h[2, 2] * z * z
        i, j = np.unravel_index(np.argmin(f), f.shape)
        if f[i, j] < best_f:
            best_f, best_v = f[i, j], np.array([ax[i], ax[j], z])
    return best_v


def kl_oracle(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


def softmax_oracle(logits):
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


class _TinyModel:
    """Just enough of the model surface for compute_fisher."""

    def __init__(self, graph, params):
        self.graph = graph
        self.params = params

    def prepare_batch(self, batch):
        batch = np.asarray(batch, dtype=np.float64)
        return batch.reshape(batch.shape[0], -1)


def legacy_compute_fisher(model, features, labels, batch_size=64):
    """The Fisher of one single-row backward per sample: one forward per
    chunk, then a full-chunk backward with every other row's dlogits zero."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    x = model.prepare_batch(np.asarray(features, dtype=np.float64))
    acc = model.params.zeros_like()
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        logits = model.graph.forward(model.params, x[start:stop])
        probs = ad.softmax(logits)
        for row in range(stop - start):
            dlogits = np.zeros_like(logits)
            y = int(labels[start + row])
            dlogits[row] = probs[row]
            dlogits[row, y] -= 1.0
            g = model.graph.backward_from_dlogits(dlogits)
            acc += g * g
    return acc / float(n)


def fd_gradient(fn, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += eps
        dn = theta.copy()
        dn[i] -= eps
        g[i] = (fn(up) - fn(dn)) / (2 * eps)
    return g


def small_model(seed=0):
    spec = ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=4)
    return build_model(spec, input_dims=(3, 2), seed=seed)


def toy_task(n, seed, t=3, d=2):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, t, d))
    labels = (rng.random(n) < 0.5).astype(np.int64)
    return features, labels


def anchor_penalty(anchors, theta):
    """Test-side oracle: sum over anchors of (1/2) * sum kappa (theta - centre)^2,
    the value whose gradient ``penalty_gradient`` returns."""
    return sum(0.5 * float(np.dot(a.kappa, (theta - a.centre) ** 2)) for a in anchors)


def at_params(values):
    """The model surface the anchor-building hooks read: its parameters."""
    values = np.array(values, dtype=np.float64)
    return SimpleNamespace(params=ad.ParameterVector(values, [("theta", 0, values.shape)]))


@pytest.fixture
def fishers(monkeypatch):
    """Queue of Fisher vectors that ``compute_fisher`` hands out in order."""
    queue = []
    monkeypatch.setattr(cl, "compute_fisher", lambda model, f, y, batch_size: queue.pop(0))
    return queue


# ---------------------------------------------------------------------------
# EWC


def test_ewc_penalty_hand_value(fishers):
    s = cl.Ewc(ewc_lambda=2.0)
    fishers.append(np.array([1.0, 2.0]))
    s.after_task(at_params([0.0, 0.0]), 0, None, None, None)
    theta = np.array([1.0, -1.0])
    assert np.array_equal(s.penalty_gradient(theta), [2.0, -4.0])
    assert anchor_penalty(s.anchors, theta) == pytest.approx(3.0, abs=1e-15)


def test_ewc_penalty_zero_at_anchor_and_zero_lambda(fishers):
    theta = np.array([0.3, -0.7, 2.0])
    s = cl.Ewc(ewc_lambda=5.0)
    fishers.append(np.array([1.0, 4.0, 0.5]))
    s.after_task(at_params(theta), 0, None, None, None)
    assert anchor_penalty(s.anchors, theta) == 0.0
    assert np.array_equal(s.penalty_gradient(theta), np.zeros(3))
    off = cl.Ewc(ewc_lambda=0.0)
    fishers.append(np.array([1.0, 4.0, 0.5]))
    off.after_task(at_params(theta), 0, None, None, None)
    assert off.penalty_gradient(theta + 1.0) is None


def test_ewc_penalty_positive_off_anchor(fishers):
    s = cl.Ewc(ewc_lambda=1.0)
    fishers.append(np.array([0.0, 1.0, 0.0]))
    s.after_task(at_params(np.zeros(3)), 0, None, None, None)
    assert anchor_penalty(s.anchors, np.array([5.0, 0.0, 5.0])) == 0.0
    assert anchor_penalty(s.anchors, np.array([0.0, 0.1, 0.0])) > 0.0


def test_ewc_gradient_matches_fd_over_multiple_anchors(fishers):
    rng = np.random.default_rng(3)
    s = cl.Ewc(ewc_lambda=1.7)
    for task in range(3):
        fishers.append(rng.random(6))
        s.after_task(at_params(rng.normal(size=6)), task, None, None, None)
    theta = rng.normal(size=6)
    analytic = s.penalty_gradient(theta)
    fd = fd_gradient(lambda t: anchor_penalty(s.anchors, t), theta)
    assert np.max(np.abs(analytic - fd)) < 1e-6



@pytest.mark.parametrize("kind", ["ewc", "online_ewc"])
def test_fisher_is_computed_only_where_an_anchor_is_read(kind, monkeypatch):
    calls = []
    real = cl.compute_fisher
    monkeypatch.setattr(cl, "compute_fisher", lambda *args: calls.append(1) or real(*args))
    model = small_model(seed=0)
    for lam, want in ((0.0, 0), (0.7, 3)):
        calls.clear()
        s = cl.build_strategy(kind, {"ewc_lambda": lam})
        for task in range(3):
            f, y = toy_task(9, seed=20 + task)
            s.after_task(model, task, f, y, None)
        assert len(calls) == want, lam
        assert (s.penalty_gradient(model.params.values) is None) == (lam == 0.0)

def test_fisher_hand_logistic_case():
    # Dense 1 -> 2 at zero weights, one sample x=1 with label 1: the
    # per-logit gradient is (0.5, -0.5), so every Fisher entry is 0.25.
    graph = ad.Graph([ad.Dense(1, 2)], ("flat", 1))
    params = graph.new_params()
    model = _TinyModel(graph, params)
    fisher = cl.compute_fisher(model, np.array([[1.0]]), np.array([1]))
    assert np.allclose(fisher, 0.25, atol=1e-15)


def test_fisher_nonnegative_and_duplication_invariant():
    model = small_model(seed=1)
    features, labels = toy_task(13, seed=2)
    fisher = cl.compute_fisher(model, features, labels, batch_size=5)
    assert np.all(fisher >= 0.0)
    doubled = cl.compute_fisher(
        model,
        np.concatenate([features, features]),
        np.concatenate([labels, labels]),
        batch_size=5,
    )
    assert np.allclose(doubled, fisher, rtol=1e-12, atol=1e-15)


def test_fisher_rejects_empty_data():
    model = small_model()
    with pytest.raises(UsageError):
        cl.compute_fisher(model, np.zeros((0, 3, 2)), np.zeros(0, dtype=int))


FISHER_SPECS = [
    ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8),
    ArchitectureSpec(kind="mlp", n_feature_layers=3, hidden_dim=8),
    ArchitectureSpec(kind="cnn1d", n_feature_layers=2, hidden_dim=64, kernel_size=1),
    ArchitectureSpec(kind="cnn1d", n_feature_layers=2, hidden_dim=64, kernel_size=3),
    ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=8),
    ArchitectureSpec(kind="lstm", n_feature_layers=2, hidden_dim=8),
    ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=8, bidirectional=True),
]


def _spec_id(spec):
    extra = f"-k{spec.kernel_size}" if spec.kind == "cnn1d" else ""
    extra += "-bi" if spec.bidirectional else ""
    return f"{spec.kind}{spec.n_feature_layers}{extra}"


@pytest.mark.parametrize("spec", FISHER_SPECS, ids=_spec_id)
def test_fisher_is_bit_identical_to_single_row_backwards(spec):
    # 37 rows: chunks of 5 and 16 leave an uneven last chunk, 64 is one
    # short chunk, 1 is the single-row case.
    model = build_model(spec, input_dims=(7, 3), seed=21)
    model.params.values += 0.1 * np.random.default_rng(22).normal(
        size=model.params.values.size)
    features, labels = toy_task(37, seed=23, t=7, d=3)
    for batch_size in (1, 5, 16, 64):
        want = legacy_compute_fisher(model, features, labels, batch_size)
        got = cl.compute_fisher(model, features, labels, batch_size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), batch_size


@pytest.mark.parametrize("spec", FISHER_SPECS, ids=_spec_id)
def test_row_gradients_sum_to_the_batch_gradient(spec):
    model = build_model(spec, input_dims=(7, 3), seed=24)
    features, labels = toy_task(9, seed=25, t=7, d=3)
    x = model.prepare_batch(features)
    graph = model.graph
    for n in (1, 9):
        graph.forward(model.params, x[:n])
        _, dlogits = graph.loss(labels[:n], (1.0, 2.0))
        rows = graph.row_gradients(dlogits)
        total = graph.backward_from_dlogits(dlogits)
        assert rows.shape == (n, model.params.values.size)
        if n == 1:
            assert np.array_equal(rows[0].view(np.int64), total.view(np.int64))
        else:
            assert np.max(np.abs(rows.sum(axis=0) - total)) <= 1e-12


@pytest.mark.parametrize("n_features,labels", [
    (10, [0, 1] * 4),
    (10, [0, 1] * 6),
    (4, [0, 1, 2, 0]),
    (4, [0, 1, 0.5, 0]),
    (4, [[0], [1], [0], [1]]),
], ids=["fewer-labels", "more-labels", "label-2", "label-half", "2d-labels"])
def test_fisher_rejects_inconsistent_inputs(n_features, labels):
    model = small_model()
    features, _ = toy_task(n_features, seed=3)
    with pytest.raises(DataError):
        cl.compute_fisher(model, features, np.asarray(labels))


@pytest.mark.parametrize("kind", ["ewc", "online_ewc"])
@pytest.mark.parametrize("size", [0, -1, 2.5, True, "64"])
def test_fisher_batch_size_checked_at_construction(kind, size):
    with pytest.raises(ConfigurationError, match="fisher_batch_size"):
        cl.build_strategy(kind, {"fisher_batch_size": size})
    assert cl.build_strategy(kind, {"fisher_batch_size": 1}).fisher_batch_size == 1


# ---------------------------------------------------------------------------
# Online EWC


def test_online_merge_cases():
    fresh = np.array([4.0])
    assert np.array_equal(cl.online_ewc_merge(None, fresh, 0.9), fresh)
    assert np.array_equal(cl.online_ewc_merge(np.array([7.0]), fresh, 0.0), fresh)
    assert np.array_equal(
        cl.online_ewc_merge(np.array([2.0]), fresh, 0.5), np.array([5.0])
    )


def test_online_penalty_zero_at_anchor_gradient_matches_fd(fishers):
    rng = np.random.default_rng(4)
    s = cl.OnlineEwc(ewc_lambda=2.2, decay_factor=0.8)
    anchor = rng.normal(size=5)
    fishers.append(rng.random(5))
    s.after_task(at_params(anchor), 0, None, None, None)
    assert anchor_penalty([s.anchor], anchor) == 0.0
    theta = rng.normal(size=5)
    analytic = s.penalty_gradient(theta)
    fd = fd_gradient(lambda t: anchor_penalty([s.anchor], t), theta)
    assert np.max(np.abs(analytic - fd)) < 1e-6


# ---------------------------------------------------------------------------
# SI


def test_si_observe_hand_values():
    omega = np.zeros(1)
    cl.si_observe(omega, np.array([2.0]), np.array([0.0]))
    assert omega[0] == 0.0
    cl.si_observe(omega, np.array([2.0]), np.array([-0.1]))
    assert omega[0] == pytest.approx(0.2, abs=1e-15)


def test_si_observe_descent_contribution_is_nonnegative():
    omega = np.zeros(8)
    rng = np.random.default_rng(0)
    g = rng.normal(size=8)
    cl.si_observe(omega, g, -0.05 * g)
    assert np.all(omega >= 0.0)


def test_si_consolidate_hand_value_and_reset():
    s = cl.Si(si_lambda=1.0, damping=1e-3)
    s.before_task(at_params([0.1]), 0, None, None, None)
    s.per_step_observe(np.array([2.0]), np.array([-0.1]))
    s.after_task(at_params([0.0]), 0, None, None, None)
    assert s.importance[0] == pytest.approx(0.2 / 0.011, rel=1e-12)
    assert s.anchor.centre[0] == 0.0
    assert s.anchor.kappa[0] == 2.0 * s.importance[0]
    # the next task starts a fresh path integral; a zero one leaves the
    # consolidated importance unchanged
    before = s.importance.copy()
    s.before_task(at_params([0.0]), 1, None, None, None)
    assert s.omega[0] == 0.0
    s.after_task(at_params([0.0]), 1, None, None, None)
    assert np.array_equal(s.importance, before)


def test_si_consolidate_survives_zero_drift():
    assert np.all(np.isfinite(cl.si_consolidate(np.ones(3), np.zeros(3), 1e-3)))


def test_si_penalty_no_half_and_gradient_matches_fd():
    rng = np.random.default_rng(5)
    s = cl.Si(si_lambda=0.7)
    anchor = rng.normal(size=4)
    s.before_task(at_params(anchor), 0, None, None, None)
    s.omega += rng.random(4) * s.damping  # zero drift: Omega = omega / xi
    s.after_task(at_params(anchor), 0, None, None, None)
    theta = rng.normal(size=4)
    diff = theta - anchor
    expected = 0.7 * float(np.sum(s.importance * diff * diff))
    assert anchor_penalty([s.anchor], theta) == pytest.approx(expected, rel=1e-14)
    assert anchor_penalty([s.anchor], anchor) == 0.0
    analytic = s.penalty_gradient(theta)
    fd = fd_gradient(lambda t: anchor_penalty([s.anchor], t), theta)
    assert np.max(np.abs(analytic - fd)) < 1e-6


# ---------------------------------------------------------------------------
# anchors against the per-strategy formulas they replaced


def legacy_ewc_gradient(theta, lam, centres, fishers):
    grad = np.zeros_like(theta)
    for centre, fisher in zip(centres, fishers):
        grad += lam * fisher * (theta - centre)
    return grad


def legacy_online_ewc_gradient(theta, lam, running_fisher, centre):
    return lam * running_fisher * (theta - centre)


def legacy_si_gradient(theta, strength, omega, centre):
    return 2.0 * strength * omega * (theta - centre)


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def negative_zeros(array):
    return int(np.sum((array == 0.0) & np.signbit(array)))


@pytest.mark.parametrize("n_tasks", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ewc", "online_ewc", "si"])
def test_anchor_gradients_equal_the_legacy_formulas_bit_for_bit(kind, n_tasks):
    rng = np.random.default_rng(90 + n_tasks)
    s = cl.build_strategy(kind, {"si_lambda": 0.7} if kind == "si" else {"ewc_lambda": 0.7})
    model = small_model(seed=n_tasks)
    model.params.get("L0.dense.b")[0] = -100.0  # a dead ReLU unit: Fisher exactly 0
    size = model.params.values.size
    centres, fishers, running, omega = [], [], None, None
    for task in range(n_tasks):
        f, y = toy_task(9, seed=20 + task)
        s.before_task(model, task, f, y, None)
        start = model.params.values.copy()
        task_omega = np.zeros(size)
        for _ in range(4):
            # a step that is not the descent direction leaves some omega < 0
            g, delta = rng.normal(size=size), 0.01 * rng.normal(size=size)
            model.params.values += delta
            s.per_step_observe(g, delta)
            task_omega += (-g) * delta
        fisher = cl.compute_fisher(model, f, y, 64)
        s.after_task(model, task, f, y, None)
        centres.append(model.params.values.copy())
        fishers.append(fisher)
        running = fisher.copy() if running is None else 0.9 * running + fisher
        drift = model.params.values - start
        omega = np.zeros(size) if omega is None else omega
        omega += task_omega / (drift * drift + cl.SI_DAMPING)
    assert np.any(fishers[-1] == 0.0) and np.any(omega < 0.0)

    # theta equals the last centre on a third of the coordinates and sits
    # below it elsewhere, so kappa * (theta - centre) holds signed zeros
    step = -0.05 * rng.random(size)
    step[::3] = 0.0
    theta = centres[-1] + step
    if kind == "ewc":
        want = legacy_ewc_gradient(theta, 0.7, centres, fishers)
        assert negative_zeros(0.7 * fishers[-1] * (theta - centres[-1])) > 0
    elif kind == "online_ewc":
        want = legacy_online_ewc_gradient(theta, 0.7, running, centres[-1])
        assert negative_zeros(want) > 0
    else:
        want = legacy_si_gradient(theta, 0.7, omega, centres[-1])
        assert negative_zeros(want) > 0
    assert np.array_equal(bits(s.penalty_gradient(theta)), bits(want))


# ---------------------------------------------------------------------------
# LwF


def test_lwf_identical_teacher_gives_plain_ce():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(5, 2))
    value, dlogits = cl.distillation_with_grad(logits, logits.copy(), alpha=3.0, temperature=2.0)
    assert value == 0.0
    assert np.array_equal(dlogits, np.zeros_like(logits))


def test_lwf_alpha_zero_is_plain_ce():
    rng = np.random.default_rng(7)
    student = rng.normal(size=(4, 2))
    teacher = rng.normal(size=(4, 2))
    value, dlogits = cl.distillation_with_grad(student, teacher, 0.0, 1.0)
    assert value == 0.0
    assert np.array_equal(dlogits, np.zeros_like(student))
    # the strategy keeps no teacher at all, so the trainer adds nothing to CE
    s = cl.Lwf(alpha=0.0, temperature=1.0)
    model = small_model(seed=3)
    f, y = toy_task(4, seed=4)
    s.before_task(model, 1, f, y, None)
    assert s.batch_loss(model, model.prepare_batch(f), student, y, (1.0, 1.0)) == (0.0, None)


def test_lwf_distillation_matches_in_test_kl_oracle():
    # One sample, T=1: teacher logits (1, 0) against student logits (0, 1).
    # The softmax gap makes the KL exactly sigma(1) - sigma(-1) = (e-1)/(e+1).
    teacher = np.array([[1.0, 0.0]])
    student = np.array([[0.0, 1.0]])
    labels = np.array([1])
    pt = softmax_oracle(teacher[0])
    ps = softmax_oracle(student[0])
    kl = kl_oracle(pt, ps)
    assert kl == pytest.approx((np.e - 1) / (np.e + 1), rel=1e-12)
    ce, _ = ad.weighted_ce_with_grad(student, labels, (1.0, 1.0))
    alpha = 0.9
    value, _ = cl.distillation_with_grad(student, teacher, alpha=alpha, temperature=1.0)
    assert ce + value == pytest.approx(ce + alpha * kl, rel=1e-12)


def test_lwf_temperature_scales_squared():
    rng = np.random.default_rng(8)
    student = rng.normal(size=(3, 2))
    teacher = rng.normal(size=(3, 2))
    labels = np.array([1, 0, 1])
    t = 2.5
    ce, _ = ad.weighted_ce_with_grad(student, labels, (1.0, 1.0))
    manual = 0.0
    for s_row, t_row in zip(student, teacher):
        manual += kl_oracle(softmax_oracle(t_row / t), softmax_oracle(s_row / t))
    manual /= 3.0
    value, _ = cl.distillation_with_grad(student, teacher, alpha=1.3, temperature=t)
    assert ce + value == pytest.approx(ce + 1.3 * t * t * manual, rel=1e-12)


def test_lwf_gradient_matches_fd():
    # the LwF objective: weighted CE plus the distillation term, as the
    # trainer adds their dlogits
    rng = np.random.default_rng(9)
    student = rng.normal(size=(4, 2))
    teacher = rng.normal(size=(4, 2))
    labels = np.array([0, 1, 1, 0])
    weights = (0.7, 1.6)
    _, ce_dlogits = ad.weighted_ce_with_grad(student, labels, weights)
    _, kd_dlogits = cl.distillation_with_grad(student, teacher, 1.1, 2.0)
    dlogits = ce_dlogits + kd_dlogits
    eps = 1e-6
    for n in (0, 3):
        for j in (0, 1):
            values = []
            for step in (eps, -eps):
                moved = student.copy()
                moved[n, j] += step
                ce, _ = ad.weighted_ce_with_grad(moved, labels, weights)
                kd, _ = cl.distillation_with_grad(moved, teacher, 1.1, 2.0)
                values.append(ce + kd)
            fd = (values[0] - values[1]) / (2 * eps)
            assert abs(dlogits[n, j] - fd) < 1e-8


def test_lwf_rejects_non_positive_temperature():
    for temperature in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            cl.build_strategy("lwf", {"temperature": temperature})


# ---------------------------------------------------------------------------
# replay buffer and GDumb policy


def test_replay_store_under_budget_keeps_everything():
    buffer = cl.ReplayBuffer()
    features, labels = toy_task(100, seed=10)
    cl.replay_store(buffer, features, labels, np.random.default_rng(0), budget=256)
    assert buffer.counts() == [100]
    stored_f, stored_y = buffer.tasks[0]
    assert np.array_equal(stored_f, features)
    assert np.array_equal(stored_y, labels)


def test_replay_store_draws_exact_budget_without_replacement():
    buffer = cl.ReplayBuffer()
    features = np.arange(1000, dtype=np.float64).reshape(1000, 1, 1)
    labels = np.zeros(1000, dtype=np.int64)
    cl.replay_store(buffer, features, labels, np.random.default_rng(1), budget=256)
    stored = buffer.tasks[0][0].ravel()
    assert stored.shape == (256,)
    assert len(np.unique(stored)) == 256
    # original stream order is preserved
    assert np.all(np.diff(stored) > 0)


def test_replay_store_same_seed_same_selection():
    picks = []
    for _ in range(2):
        buffer = cl.ReplayBuffer()
        features, labels = toy_task(500, seed=11)
        cl.replay_store(buffer, features, labels, np.random.default_rng(7), budget=64)
        picks.append(buffer.tasks[0][0])
    assert np.array_equal(picks[0], picks[1])


def test_replay_store_unlimited_is_rng_silent():
    buffer = cl.ReplayBuffer()
    features, labels = toy_task(50, seed=12)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    cl.replay_store(buffer, features, labels, rng, budget=None)
    assert rng.bit_generator.state == before
    assert buffer.counts() == [50]


def test_gdumb_quota_cases():
    assert cl.gdumb_quotas(256, 4) == [64, 64, 64, 64]
    assert cl.gdumb_quotas(6, 4) == [1, 1, 2, 2]
    assert cl.gdumb_quotas(6, 1) == [6]
    assert cl.gdumb_quotas(6, 7) == [0, 1, 1, 1, 1, 1, 1]
    with pytest.raises(UsageError):
        cl.gdumb_quotas(6, 0)


def test_gdumb_rebalance_keeps_most_recent_samples():
    # five tasks arriving one by one under budget 6; identities encode
    # (task, position) so sample-for-sample checks are direct
    budget = 6
    buffer = cl.ReplayBuffer()
    stream = []
    expected_quotas = {
        1: [6],
        2: [3, 3],
        3: [2, 2, 2],
        4: [1, 1, 2, 2],
        5: [1, 1, 1, 1, 2],
    }
    for t in range(1, 6):
        n = 10 + t
        features = (100.0 * t + np.arange(n, dtype=np.float64)).reshape(n, 1, 1)
        labels = np.full(n, t, dtype=np.int64)
        stream = list(buffer.tasks) + [(features, labels)]
        cl.gdumb_rebalance(buffer, stream, budget)
        assert buffer.counts() == expected_quotas[t]
        assert sum(buffer.counts()) <= budget
        for k, (stored_f, _) in enumerate(buffer.tasks):
            task_id = k + 1
            n_k = 10 + task_id
            quota = expected_quotas[t][k]
            want = 100.0 * task_id + np.arange(n_k - quota, n_k)
            assert np.array_equal(stored_f.ravel(), want)


def test_gdumb_quota_shrinks_monotonically():
    for budget in (5, 6, 7, 11, 13, 256):
        previous = None
        for n in range(1, 12):
            quotas = cl.gdumb_quotas(budget, n)
            assert sum(quotas) == min(budget, sum(quotas)) <= budget
            if previous is not None:
                for k in range(n - 1):
                    assert quotas[k] <= previous[k]
            previous = quotas


# ---------------------------------------------------------------------------
# projections


def test_gem_project_feasible_returns_verbatim():
    g = np.array([1.0, 2.0])
    refs = np.array([[1.0, 0.0]])
    out = cl.gem_project(g, refs, margin=0.5)
    assert out is g


def test_gem_project_hand_halfspaces():
    z = cl.gem_project(np.array([0.0, -1.0]), np.array([[0.0, 1.0]]), 0.0)
    assert np.allclose(z, [0.0, 0.0], atol=1e-9)
    z = cl.gem_project(np.array([1.0, -1.0]), np.array([[0.0, 1.0]]), 0.0)
    assert np.allclose(z, [1.0, 0.0], atol=1e-9)


def test_gem_project_against_active_set_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        dim = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(4, dim) + 1))
        g = rng.normal(size=dim)
        refs = rng.normal(size=(k, dim))
        margin = float(rng.random())
        z = cl.gem_project(g, refs, margin)
        assert np.all(refs @ z >= margin - 1e-6)
        oracle = project_oracle(g, refs, margin)
        assert oracle is not None
        assert abs(np.linalg.norm(z - g) - np.linalg.norm(oracle - g)) < 1e-5


def test_agem_hand_cases():
    g = np.array([1.0, 0.0])
    assert cl.agem_project(g, np.array([1.0, 0.0])) is g
    assert np.allclose(cl.agem_project(g, np.array([-1.0, 0.0])), [0.0, 0.0])
    assert np.allclose(
        cl.agem_project(np.array([1.0, -1.0]), np.array([0.0, 1.0])), [1.0, 0.0]
    )


def test_agem_zero_reference_is_identity():
    g = np.array([1.0, 2.0])
    assert cl.agem_project(g, np.zeros(2)) is g


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_agem_output_never_opposes_reference(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=6)
    ref = rng.normal(size=6)
    out = cl.agem_project(g, ref)
    assert float(out @ ref) >= -1e-12


def test_dual_qp_trivial_and_closed_form():
    v = cl.solve_dual_qp(np.eye(2), np.array([0.5, 1.0]))
    assert np.array_equal(v, [0.0, 0.0])
    v = cl.solve_dual_qp(np.eye(1), np.array([-1.0]))
    assert np.allclose(v, [1.0], atol=1e-9)


def test_dual_qp_matches_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(3):
        a = rng.normal(scale=0.5, size=(3, 3))
        h = a @ a.T + np.eye(3)
        v_true = np.where(rng.random(3) < 0.4, 0.0, rng.random(3) * 2.5)
        slack = np.where(v_true == 0.0, rng.random(3), 0.0)
        b = -h @ v_true + slack
        v = cl.solve_dual_qp(h, b)
        assert np.max(np.abs(v - v_true)) < 1e-8
        v_grid = qp_grid_oracle(h, b)
        assert np.max(np.abs(v - v_grid)) < 0.02


def test_dual_qp_nonconvergence_carries_residual():
    # zero diagonal with a negative linear term: unbounded below, the
    # coordinate can never move, so the KKT residual stays at 1
    with pytest.raises(QpNonConvergenceError) as err:
        cl.solve_dual_qp(np.zeros((1, 1)), np.array([-1.0]), iters=10)
    assert err.value.residual == pytest.approx(1.0)
    assert err.value.iterations == 10


def test_dual_qp_shape_validation():
    with pytest.raises(UsageError):
        cl.solve_dual_qp(np.eye(3), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# strategy plugins driven directly


def test_naive_hooks_are_inert():
    s = cl.Naive()
    theta = np.ones(4)
    g = np.ones(4)
    assert s.penalty_gradient(theta) is None
    assert s.transform_gradient(g, None, (1.0, 1.0), None) is g
    f, y = toy_task(5, seed=0)
    assert s.training_data(f, y, 0) == (f, y)


def test_replay_strategy_concatenates_oldest_first():
    s = cl.Replay(patterns_per_exp=4)
    model = small_model()
    rng = np.random.default_rng(0)
    f0, y0 = toy_task(4, seed=1)
    f1, y1 = toy_task(3, seed=2)
    s.after_task(model, 0, f0, y0, rng)
    merged_f, merged_y = s.training_data(f1, y1, 1)
    assert merged_f.shape[0] == 7
    assert np.array_equal(merged_f[:4], f0)
    assert np.array_equal(merged_f[4:], f1)
    assert np.array_equal(merged_y, np.concatenate([y0, y1]))


def test_cumulative_stores_everything_without_rng():
    s = cl.Cumulative()
    model = small_model()
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    for t in range(3):
        f, y = toy_task(20 + t, seed=t)
        s.after_task(model, t, f, y, rng)
    assert s.buffer.counts() == [20, 21, 22]
    assert rng.bit_generator.state == state_before


def test_replay_budget_respected_across_tasks():
    s = cl.Replay(patterns_per_exp=16)
    model = small_model()
    rng = np.random.default_rng(0)
    for t in range(4):
        f, y = toy_task(100, seed=t)
        s.after_task(model, t, f, y, rng)
        assert max(s.buffer.counts()) <= 16
    assert sum(s.buffer.counts()) == 64


def test_gdumb_strategy_rebalances_before_training():
    s = cl.Gdumb(mem_size=6)
    model = small_model()
    rng = np.random.default_rng(0)
    for t in range(4):
        f, y = toy_task(10, seed=t)
        s.before_task(model, t, f, y, rng)
    assert s.buffer.counts() == [1, 1, 2, 2]
    assert s.wants_scratch_model(3)
    f, y = toy_task(10, seed=9)
    merged_f, merged_y = s.training_data(f, y, 3)
    assert merged_y.shape[0] == 6


def test_gdumb_zero_budget_is_inert():
    s = cl.Gdumb(mem_size=0)
    model = small_model()
    rng = np.random.default_rng(0)
    f, y = toy_task(10, seed=0)
    s.before_task(model, 0, f, y, rng)
    assert s.buffer.tasks == []
    assert not s.wants_scratch_model(0)
    assert s.training_data(f, y, 0) == (f, y)


def test_gem_strategy_without_memories_is_identity():
    s = cl.Gem()
    g = np.ones(3)
    assert s.transform_gradient(g, None, (1.0, 1.0), None) is g


def test_gem_strategy_projects_against_stored_tasks():
    model = small_model(seed=3)
    s = cl.Gem(memory_strength=0.0, patterns_per_exp=8)
    rng = np.random.default_rng(0)
    f0, y0 = toy_task(8, seed=4)
    s.after_task(model, 0, f0, y0, rng)
    weights = (1.0, 1.0)
    ref = cl._memory_gradient(model, *s.buffer.tasks[0], weights)
    g = -ref  # maximally violating direction
    out = s.transform_gradient(g, model, weights, rng)
    assert float(out @ ref) >= -1e-6


def test_agem_strategy_samples_only_when_needed():
    model = small_model(seed=5)
    s = cl.Agem(patterns_per_exp=8, sample_size=16)
    rng = np.random.default_rng(0)
    f0, y0 = toy_task(8, seed=6)
    s.after_task(model, 0, f0, y0, rng)
    state_before = rng.bit_generator.state
    s.transform_gradient(np.zeros(model.params.values.size), model, (1.0, 1.0), rng)
    # 8 stored <= sample_size: no draw happened
    assert rng.bit_generator.state == state_before


def test_lwf_strategy_no_teacher_on_first_task():
    s = cl.Lwf(alpha=1.0, temperature=2.0)
    model = small_model(seed=7)
    f, y = toy_task(4, seed=8)
    s.before_task(model, 0, f, y, None)
    assert s.teacher_params is None
    value, dlogits = s.batch_loss(model, None, np.zeros((2, 2)), np.array([0, 1]), (1.0, 1.0))
    assert value == 0.0 and dlogits is None


def test_lwf_strategy_distills_from_task_start_copy():
    s = cl.Lwf(alpha=0.5, temperature=1.0)
    model = small_model(seed=9)
    f, y = toy_task(6, seed=10)
    s.before_task(model, 1, f, y, None)
    x = model.prepare_batch(f)
    logits = model.graph.forward(model.params, x)
    value, dlogits = s.batch_loss(model, x, logits, y, (1.0, 1.0))
    # teacher is the task-start copy of an unmoved model: zero distillation
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(dlogits, 0.0, atol=1e-15)
    # once the student moves, the pull is back toward the teacher
    model.params.values += 0.05
    logits = model.graph.forward(model.params, x)
    value, dlogits = s.batch_loss(model, x, logits, y, (1.0, 1.0))
    assert value > 0.0


def test_lwf_strategy_term_is_the_distillation_part_of_lwf_loss():
    s = cl.Lwf(alpha=0.7, temperature=1.5)
    model = small_model(seed=15)
    f, y = toy_task(7, seed=16)
    s.before_task(model, 1, f, y, None)
    teacher = model.params.copy()
    model.params.values += 0.1
    x = model.prepare_batch(f)
    teacher_logits = model.graph.forward(teacher, x).copy()
    logits = model.graph.forward(model.params, x)
    value, dlogits = s.batch_loss(model, x, logits, y, (0.8, 1.6))
    want_value, want_dlogits = cl.distillation_with_grad(logits, teacher_logits, 0.7, 1.5)
    assert value == want_value
    assert np.array_equal(dlogits, want_dlogits)


@pytest.mark.parametrize("spec", [
    ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=4),
    ArchitectureSpec(kind="cnn1d", n_feature_layers=1, hidden_dim=4, kernel_size=2),
    ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=4),
], ids=lambda spec: spec.kind)
def test_lwf_teacher_pass_leaves_student_gradient_alone(spec):
    s = cl.Lwf(alpha=0.5, temperature=2.0)
    model = build_model(spec, input_dims=(3, 2), seed=17)
    f, y = toy_task(6, seed=18)
    s.before_task(model, 1, f, y, None)
    model.params.values += 0.05
    x = model.prepare_batch(f)
    graph = model.graph
    graph.forward(model.params, x)
    want = graph.backward_from_dlogits(graph.loss(y, (1.0, 1.0))[1])
    logits = graph.forward(model.params, x)
    _, dlogits = graph.loss(y, (1.0, 1.0))
    s.batch_loss(model, x, logits, y, (1.0, 1.0))
    assert np.array_equal(graph.backward_from_dlogits(dlogits), want)


def test_si_strategy_full_task_cycle():
    s = cl.Si(si_lambda=0.3)
    model = small_model(seed=11)
    f, y = toy_task(4, seed=12)
    s.before_task(model, 0, f, y, None)
    g = np.ones(model.params.values.size)
    s.per_step_observe(g, -0.01 * g)
    model.params.values -= 0.01
    s.after_task(model, 0, f, y, None)
    theta = model.params.values
    assert np.array_equal(s.anchor.centre, theta)
    assert anchor_penalty([s.anchor], theta) == 0.0  # at the new anchor
    assert anchor_penalty([s.anchor], theta + 0.1) > 0.0
    assert np.array_equal(s.penalty_gradient(theta), np.zeros_like(theta))


# ---------------------------------------------------------------------------
# factory


def test_build_strategy_all_kinds():
    for kind in cl.STRATEGIES:
        s = cl.build_strategy(kind)
        assert s.kind == kind


def test_build_strategy_rejects_unknown_name_and_keys():
    with pytest.raises(ConfigurationError):
        cl.build_strategy("pnn")
    with pytest.raises(ConfigurationError):
        cl.build_strategy("naive", {"ewc_lambda": 1.0})
    with pytest.raises(ConfigurationError):
        cl.build_strategy("ewc", {"mem_size": 256})


def test_build_strategy_lambda_e_alias():
    s = cl.build_strategy("lwf", {"lambda_e": 0.25, "temperature": 2.0})
    assert s.alpha == 0.25
    with pytest.raises(ConfigurationError):
        cl.build_strategy("lwf", {"lambda_e": 0.25, "alpha": 0.5})


def test_build_strategy_grid_vocabulary():
    s = cl.build_strategy("gem", {"memory_strength": 0.4, "patterns_per_exp": 128})
    assert s.margin == 0.4
    s = cl.build_strategy("agem", {"sample_size": 512})
    assert s.sample_size == 512
    s = cl.build_strategy("gdumb", {"mem_size": 64})
    assert s.mem_size == 64


# wrong type, bool for a number, float for an int, out of range
_BAD_VALUES = {
    rules.NON_NEGATIVE: ["abc", "1.0", None, True, -1.0, float("nan"), float("inf"), 10**400],
    rules.POSITIVE: ["2", None, False, 0.0, -1, float("nan"), float("inf")],
    rules.UNIT_INTERVAL: ["0.5", None, True, -0.1, 1.5, float("nan")],
    rules.COUNT: ["x", None, True, 2.7, 3.0, 0, -1],
    rules.SIZE: ["x", None, True, 2.5, -5],
    rules.SIZE_OR_NULL: ["x", True, 2.5, -5],
    rules.FLAG: ["no", None, 0, 1],
}
_BAD_CASES = [
    (kind, key, value)
    for kind, cls in cl.STRATEGIES.items()
    for key, rule in cls.hyperparams.items()
    for value in _BAD_VALUES[rule]
]


@pytest.mark.parametrize("kind,key,value", _BAD_CASES,
                         ids=[f"{k}-{key}-{v!r:.12}" for k, key, v in _BAD_CASES])
def test_every_declared_key_rejects_bad_values(kind, key, value):
    with pytest.raises(ConfigurationError, match=key):
        cl.build_strategy(kind, {key: value})


def test_rules_normalise_like_the_old_casts():
    gem = cl.build_strategy("gem", {"memory_strength": 1, "qp_iters": np.int64(7),
                                    "qp_tol": 1, "patterns_per_exp": None})
    assert type(gem.margin) is float and type(gem.qp_tol) is float
    assert type(gem.qp_iters) is int and gem.qp_iters == 7
    assert gem.patterns_per_exp is None
    lwf = cl.build_strategy("lwf", {"lambda_e": 0, "temperature": np.float64(3.0)})
    assert type(lwf.alpha) is float and lwf.alpha == 0.0
    assert type(lwf.temperature) is float
    si = cl.build_strategy("si", {"si_lambda": 2})
    assert type(si.strength) is float and si.damping == cl.SI_DAMPING
    gdumb = cl.build_strategy("gdumb", {"mem_size": 0, "gdumb_scratch_retrain": False})
    assert gdumb.mem_size == 0 and gdumb.scratch_retrain is False


def test_constructor_defaults_pass_their_rules_unchanged():
    for cls in cl.STRATEGIES.values():
        params = inspect.signature(cls).parameters
        for key, rule in cls.hyperparams.items():
            if key != "lambda_e":
                default = params[key].default
                assert rule(key, default) == default, (cls.kind, key)


def _readme_strategy_rows():
    """(strategy, key cell, accepted values, default) rows of the README's
    strategy table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("| strategy | key | accepted values | default |")
    rows = []
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_strategy_table_matches_declarations():
    documented = {}
    for strategy, key, accepted, default in _readme_strategy_rows():
        kind = strategy.strip("`")
        keys = documented.setdefault(kind, set())
        if not key.startswith("`"):
            continue  # "none"
        key = key.strip("`")
        keys.add(key)
        cls = cl.STRATEGIES[kind]
        assert accepted == cls.hyperparams[key].what, (kind, key)
        if default == "`buffer_budget`":
            assert key == cls.budget_key, (kind, key)
        elif key != "lambda_e":
            want = inspect.signature(cls).parameters[key].default
            assert json.loads(default.strip("`")) == want, (kind, key)
    assert documented == {
        kind: set(cls.hyperparams) for kind, cls in cl.STRATEGIES.items()
    }
