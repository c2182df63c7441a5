"""Engine-level checks: exact hand arithmetic first, finite differences second.

The finite-difference oracle here is independent of the engine: it only calls
``Graph.forward`` and reads the loss value, never ``backward_from_dlogits``.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcl import autodiff as ad
from seqcl.errors import ConfigurationError, DataError, UsageError

RNG = np.random.default_rng


def fd_gradient(graph, params, batch, labels, weights=(1.0, 1.0), eps=1e-5):
    """Central differences over every coordinate, engine-independent."""
    theta = params.values
    out = np.zeros(theta.size)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + eps
        graph.forward(params, batch)
        up, _ = graph.loss(labels, weights)
        theta[i] = saved - eps
        graph.forward(params, batch)
        down, _ = graph.loss(labels, weights)
        theta[i] = saved
        out[i] = (up - down) / (2 * eps)
    return out


def analytic_gradient(graph, params, batch, labels, weights=(1.0, 1.0)):
    graph.forward(params, batch)
    _, dlogits = graph.loss(labels, weights)
    return graph.backward_from_dlogits(dlogits)


def max_rel_err(a, b):
    return max(
        abs(x - y) / max(abs(x), abs(y), 1e-6) for x, y in zip(a, b)
    )


def dense_graph(in_dim, out_chain):
    layers = []
    d = in_dim
    for out in out_chain:
        layers.append(ad.Dense(d, out))
        d = out
    return ad.Graph(layers, ("flat", in_dim))


# ---------------------------------------------------------------- parameters


def test_parameter_vector_roundtrip_is_bitwise():
    pv = ad.ParameterVector.zeros([("a.W", (3, 2)), ("a.b", (2,)), ("z", (4,))])
    rng = RNG(0)
    pv.values[...] = rng.normal(size=pv.values.size)
    flat_before = pv.values.copy()
    for name, _, _ in pv.layout:
        pv.get(name)[...] = pv.get(name).copy()
    assert np.array_equal(pv.values, flat_before)


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6))
def test_parameter_views_cover_vector_exactly(shapes):
    named = [(f"p{i}", s) for i, s in enumerate(shapes)]
    pv = ad.ParameterVector.zeros(named)
    total = sum(a * b for a, b in shapes)
    assert pv.values.size == total
    seen = 0
    for name, _ in named:
        view = pv.get(name)
        view[...] = seen  # writes must land in the flat vector
        seen += view.size
    # every region was writable and distinct
    assert len(set(pv.values.tolist())) <= len(shapes) + 1


def test_parameter_vector_rejects_gaps_and_duplicates():
    with pytest.raises(UsageError):
        ad.ParameterVector(np.zeros(5), [("a", 0, (2,)), ("b", 3, (2,))])
    with pytest.raises(UsageError):
        ad.ParameterVector(np.zeros(4), [("a", 0, (2,)), ("a", 2, (2,))])
    pv = ad.ParameterVector.zeros([("a", (2,))])
    with pytest.raises(UsageError):
        pv.get("missing")


# ------------------------------------------------------------------- forward


def test_identity_dense_layer_returns_input():
    g = dense_graph(2, [2])
    p = g.new_params()
    p.get("L0.dense.W")[...] = np.eye(2)
    x = np.array([[0.3, -1.2], [2.0, 0.0], [-0.5, 0.5]])
    logits = g.forward(p, x)
    assert np.array_equal(logits, x)


def test_zero_parameters_give_zero_logits():
    g = dense_graph(4, [3, 2])
    # hidden layer graph with activation between
    g = ad.Graph([ad.Dense(4, 3), ad.Activation("tanh"), ad.Dense(3, 2)], ("flat", 4))
    p = g.new_params()
    logits = g.forward(p, RNG(1).normal(size=(5, 4)))
    assert np.array_equal(logits, np.zeros((5, 2)))


def test_two_layer_mlp_matches_hand_matrix_arithmetic():
    g = ad.Graph([ad.Dense(3, 2), ad.Activation("relu"), ad.Dense(2, 2)], ("flat", 3))
    p = g.new_params()
    w1 = np.array([[0.5, -1.0], [2.0, 0.25], [-0.5, 1.5]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b2 = np.array([0.0, 0.3])
    p.get("L0.dense.W")[...] = w1
    p.get("L0.dense.b")[...] = b1
    p.get("L2.dense.W")[...] = w2
    p.get("L2.dense.b")[...] = b2
    x = np.array([[1.0, -1.0, 2.0], [0.0, 0.5, -0.5]])
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(g.forward(p, x), expected, rtol=0, atol=0)


def test_forward_is_deterministic():
    g = ad.Graph([ad.LSTM(3, 4), ad.LastStep(), ad.Dense(4, 2)], ("seq", 5, 3))
    p = g.new_params()
    p.values[...] = RNG(7).normal(size=p.values.size)
    x = RNG(8).normal(size=(4, 5, 3))
    a = g.forward(p, x).copy()
    b = g.forward(p, x)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "make_layers,signature",
    [
        (lambda: [ad.Dense(5, 6), ad.Activation("relu"), ad.Dense(6, 2)], ("flat", 5)),
        (lambda: [ad.Conv1D(3, 4, 3), ad.Activation("tanh"), ad.MeanPoolTime(), ad.Dense(4, 2)],
         ("seq", 8, 3)),
        (lambda: [ad.LSTM(2, 3), ad.LSTM(3, 3), ad.LastStep(), ad.Dense(3, 2)], ("seq", 5, 2)),
        (lambda: [ad.BiLSTM(3, 3), ad.BiLastStep(3), ad.Dense(6, 2)], ("seq", 6, 3)),
    ],
)
def test_infer_matches_forward_and_leaves_backward_state_alone(make_layers, signature):
    g = ad.Graph(make_layers(), signature)
    p = g.new_params()
    rng = RNG(11)
    p.values[...] = rng.normal(scale=0.6, size=p.values.size)
    x = rng.normal(size=(6, *signature[1:]))
    other = rng.normal(size=(9, *signature[1:]))
    labels = np.arange(6) % 2
    logits = g.forward(p, x).copy()
    value, dlogits = g.loss(labels, (0.7, 1.6))
    expected = g.backward_from_dlogits(dlogits)
    assert np.array_equal(g.infer(p, x), logits)
    g.infer(p, other)
    # loss and backward still see x's logits and intermediates
    assert g.loss(labels, (0.7, 1.6))[0] == value
    assert np.array_equal(g.backward_from_dlogits(dlogits), expected)


def test_shape_mismatch_names_offending_layer():
    g = ad.Graph([ad.Dense(4, 2)], ("flat", 4))
    with pytest.raises(ConfigurationError, match="flat input"):
        g.forward(g.new_params(), np.zeros((3, 5)))
    with pytest.raises(ConfigurationError, match="L1.dense"):
        ad.Graph([ad.Dense(4, 3), ad.Dense(4, 2)], ("flat", 4))


def test_graph_must_end_in_two_logits():
    with pytest.raises(ConfigurationError, match="2 logits"):
        ad.Graph([ad.Dense(4, 3)], ("flat", 4))


# ------------------------------------------------------------------ backward


def test_backward_before_forward_is_usage_error():
    g = dense_graph(2, [2])
    with pytest.raises(UsageError):
        g.loss(np.array([0]), (1.0, 1.0))
    with pytest.raises(UsageError):
        g.backward_from_dlogits(np.zeros((1, 2)))


def test_backward_matches_hand_derivative_on_one_parameter_path():
    # One weight theta on a 1 -> 2 dense layer, label 0, unit weights:
    #   loss = -log softmax([0, theta])[0] = log(1 + e^theta)
    #   d loss / d theta = sigmoid(theta)
    g = dense_graph(1, [2])
    p = g.new_params()
    theta = 3.0
    p.get("L0.dense.W")[...] = np.array([[0.0, theta]])
    x = np.array([[1.0]])
    grad = analytic_gradient(g, p, x, np.array([0]))
    hand = 1.0 / (1.0 + math.exp(-theta))  # sigmoid, written out independently
    w_grad = grad[1]  # layout: W[0,0], W[0,1], b0, b1
    assert w_grad == pytest.approx(hand, abs=1e-12)


def test_backward_returns_a_fresh_gradient_vector_every_call():
    g = dense_graph(3, [4, 2])
    p = g.new_params()
    p.values[...] = RNG(5).normal(size=p.values.size)
    x = RNG(6).normal(size=(4, 3))
    first = analytic_gradient(g, p, x, np.array([0, 1, 1, 0]))
    kept = first.copy()
    second = analytic_gradient(g, p, x, np.array([0, 1, 1, 0]))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and np.array_equal(second, kept)


def test_unreachable_parameter_gradient_is_exactly_zero():
    g = ad.Graph([ad.Dense(2, 2), ad.Activation("relu"), ad.Dense(2, 2)], ("flat", 2))
    p = g.new_params()
    rng = RNG(3)
    p.values[...] = rng.normal(size=p.values.size)
    w2 = p.get("L2.dense.W")
    w2[1, :] = 0.0  # hidden unit 1 has no outgoing weights
    # force unit 1's relu inactive gradient path irrelevant: zero its output use
    x = rng.normal(size=(6, 2))
    grad = analytic_gradient(g, p, x, np.arange(6) % 2)
    gpv = ad.ParameterVector(grad, p.layout)
    assert np.array_equal(gpv.get("L0.dense.W")[:, 1], np.zeros(2))
    assert gpv.get("L0.dense.b")[1] == 0.0


# ------------------------------------------------- finite-difference fidelity


@pytest.mark.parametrize(
    "name,layers,signature",
    [
        ("dense", [ad.Dense(5, 2)], ("flat", 5)),
        ("dense_tanh_stack", [ad.Dense(5, 6), ad.Activation("tanh"), ad.Dense(6, 2)], ("flat", 5)),
        ("bilstm", [ad.BiLSTM(3, 3), ad.BiLastStep(3), ad.Dense(6, 2)], ("seq", 6, 3)),
        ("conv1d", [ad.Conv1D(3, 4, 3), ad.Activation("tanh"), ad.MeanPoolTime(), ad.Dense(4, 2)], ("seq", 8, 3)),
        ("meanpool", [ad.Conv1D(2, 3, 2), ad.MeanPoolTime(), ad.Dense(3, 2)], ("seq", 6, 2)),
        ("lstm", [ad.LSTM(3, 5), ad.LastStep(), ad.Dense(5, 2)], ("seq", 7, 3)),
        ("lstm_stacked", [ad.LSTM(2, 3), ad.LSTM(3, 3), ad.LastStep(), ad.Dense(3, 2)], ("seq", 5, 2)),
    ],
)
def test_every_kernel_matches_central_differences(name, layers, signature):
    g = ad.Graph(layers, signature)
    p = g.new_params()
    rng = RNG(zlib.crc32(name.encode()))
    p.values[...] = rng.normal(scale=0.6, size=p.values.size)
    n = 6
    if signature[0] == "flat":
        x = rng.normal(size=(n, signature[1]))
    else:
        x = rng.normal(size=(n, signature[1], signature[2]))
    labels = np.arange(n) % 2
    analytic = analytic_gradient(g, p, x, labels, weights=(0.7, 1.6))
    coords = rng.choice(p.values.size, size=min(100, p.values.size), replace=False)
    fd = fd_gradient(g, p, x, labels, weights=(0.7, 1.6))
    err = max_rel_err(analytic[coords], fd[coords])
    assert err < 1e-4, f"{name}: max rel err {err:.3e}"


def test_relu_kernel_fd_away_from_kinks():
    # resample until every relu pre-activation is safely away from 0
    g = ad.Graph([ad.Conv1D(2, 3, 3), ad.Activation("relu"), ad.MeanPoolTime(), ad.Dense(3, 2)], ("seq", 7, 2))
    rng = RNG(42)
    for _ in range(50):
        p = g.new_params()
        p.values[...] = rng.normal(scale=0.8, size=p.values.size)
        x = rng.normal(size=(5, 7, 2))
        pre = g.layers[0].forward(p, x)
        if np.abs(pre).min() > 1e-3:
            break
    else:
        pytest.fail("could not sample a kink-free configuration")
    labels = np.arange(5) % 2
    analytic = analytic_gradient(g, p, x, labels)
    fd = fd_gradient(g, p, x, labels)
    assert max_rel_err(analytic, fd) < 1e-4


def test_grad_check_linear_model_is_tight():
    g = dense_graph(4, [2])
    p = g.new_params()
    p.values[...] = RNG(11).normal(size=p.values.size)
    x = RNG(12).normal(size=(8, 4))
    labels = np.arange(8) % 2
    analytic = analytic_gradient(g, p, x, labels)
    assert max_rel_err(analytic, fd_gradient(g, p, x, labels)) < 1e-8


def test_grad_check_mlp_tanh():
    g = ad.Graph([ad.Dense(6, 8), ad.Activation("tanh"), ad.Dense(8, 2)], ("flat", 6))
    p = g.new_params()
    p.values[...] = RNG(13).normal(scale=0.5, size=p.values.size)
    x = RNG(14).normal(size=(10, 6))
    labels = np.arange(10) % 2
    analytic = analytic_gradient(g, p, x, labels)
    assert max_rel_err(analytic, fd_gradient(g, p, x, labels)) < 1e-4


# ------------------------------------------------------------- loss examples


def test_uniform_logits_loss_is_log_two():
    loss, _ = ad.weighted_ce_with_grad(np.array([[0.0, 0.0]]), np.array([1]), (1.0, 1.0))
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_weighted_loss_hand_value():
    # logits (1, 0), true class 0, weight 2: loss = -2 log sigmoid(1)
    hand = -2.0 * math.log(1.0 / (1.0 + math.exp(-1.0)))
    loss, _ = ad.weighted_ce_with_grad(np.array([[1.0, 0.0]]), np.array([0]), (2.0, 1.0))
    assert loss == pytest.approx(hand, abs=1e-12)


def test_confident_correct_logits_drive_loss_to_zero():
    logits = np.array([[40.0, -40.0]])
    loss, _ = ad.weighted_ce_with_grad(logits, np.array([0]), (1.0, 1.0))
    assert 0.0 <= loss < 1e-12
    # and stays finite when confidently wrong
    wrong, _ = ad.weighted_ce_with_grad(logits, np.array([1]), (1.0, 1.0))
    assert np.isfinite(wrong)


def test_unit_weights_match_unweighted_gradient():
    rng = RNG(21)
    logits = rng.normal(size=(9, 2))
    labels = rng.integers(0, 2, size=9)
    _, g1 = ad.weighted_ce_with_grad(logits, labels, (1.0, 1.0))
    p = ad.softmax(logits)
    onehot = np.zeros_like(p)
    onehot[np.arange(9), labels] = 1.0
    assert np.allclose(g1, (p - onehot) / 9, atol=1e-15)


def test_loss_rejects_bad_labels_and_weights():
    logits = np.zeros((2, 2))
    with pytest.raises(DataError):
        ad.weighted_ce_with_grad(logits, np.array([0, 2]), (1.0, 1.0))
    with pytest.raises(DataError):
        ad.weighted_ce_with_grad(logits, np.array([0.5, 0.0]), (1.0, 1.0))
    with pytest.raises(ConfigurationError):
        ad.weighted_ce_with_grad(logits, np.array([0, 1]), (1.0, 0.0))
    with pytest.raises(DataError):
        ad.weighted_ce_with_grad(np.zeros((0, 2)), np.array([]), (1.0, 1.0))


@settings(max_examples=30)
@given(
    st.integers(1, 12),
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.integers(0, 2**31 - 1),
)
def test_loss_is_mean_of_per_sample_terms(n, w0, w1, seed):
    rng = RNG(seed)
    logits = rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    total, _ = ad.weighted_ce_with_grad(logits, labels, (w0, w1))
    per = [
        ad.weighted_ce_with_grad(logits[i : i + 1], labels[i : i + 1], (w0, w1))[0]
        for i in range(n)
    ]
    assert total == pytest.approx(float(np.mean(per)), rel=1e-12)
