"""The graph workspace, chunked inference and the skipped first input gradient.

Inside a graph, kernels write into reused buffers and ``infer`` runs in row
chunks; none of that may change a bit of any result or let two results share
memory. The references here are one-shot inference (a graph built with an
unbounded chunk budget), standalone layers (which allocate every array) and
a full reverse loop that also computes the first layer's input gradient.

OpenBLAS rounds a 2-column product (the logit layer) with another kernel
past 100**3 multiply-adds, so one-shot inference of more rows than that is
not a bitwise reference; every one-shot batch here stays below it.
"""

import numpy as np
import pytest

from seqcl import autodiff as ad
from seqcl import models as m

RNG = np.random.default_rng
DIMS = (12, 3)

VARIANTS = {
    "mlp-tanh": m.ArchitectureSpec("mlp", 2, 16, "tanh"),
    "mlp-relu": m.ArchitectureSpec("mlp", 2, 16, "relu"),
    "lstm": m.ArchitectureSpec("lstm", 2, 16, "tanh"),
    "bilstm": m.ArchitectureSpec("lstm", 1, 16, "relu", bidirectional=True),
    "cnn-tanh-k3": m.ArchitectureSpec("cnn1d", 2, 8, "tanh", kernel_size=3),
    "cnn-relu-k5": m.ArchitectureSpec("cnn1d", 2, 8, "relu", kernel_size=5),
}


def batch(n, seed):
    return RNG(seed).normal(size=(n, *DIMS))


def labels(n):
    return np.arange(n) % 2


def full_reverse(graph, params, sink, dlogits):
    """Every layer's backward, the first one's input gradient included."""
    dx = dlogits
    for layer in reversed(graph.layers):
        dx = layer.backward(params, sink, dx)
    return sink


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_workspace_memoizes_views_and_grows_its_buffers():
    ws = ad.Workspace()
    small = ws.view("a", (2, 3))
    assert ws.view("a", (2, 3)) is small
    assert np.shares_memory(ws.view("a", (3, 2)), small)
    assert not np.shares_memory(ws.view("b", (2, 3)), small)
    big = ws.view("a", (4, 5))
    assert big.flags.c_contiguous and big.shape == (4, 5)
    assert ws.view("a", (2, 3)) is not small  # views of the old buffer dropped
    assert np.shares_memory(ws.view("a", (2, 3)), big)


@pytest.mark.parametrize("variant", VARIANTS)
def test_chunked_predict_equals_one_shot_inference(variant, monkeypatch):
    spec = VARIANTS[variant]
    model = m.build_model(spec, DIMS, seed=5)
    chunk = model.graph.chunk_rows
    assert chunk % 16 == 0
    monkeypatch.setattr(ad, "INFER_CHUNK_BYTES", 2**62)
    one_shot = m.build_model(spec, DIMS, seed=5)
    x = batch(2 * chunk + 1, 6)
    assert one_shot.graph.chunk_rows > x.shape[0]
    head = one_shot.graph.layers[-1].in_dim
    assert x.shape[0] * head * 2 <= 100**3
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        expected = ad.softmax(one_shot.graph.infer(one_shot.params, one_shot.prepare_batch(x[:n])))
        assert same_bits(m.predict(model, x[:n]), expected), n


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_between_forward_and_backward_changes_no_gradient(variant):
    # LwF's order: the teacher's inference runs between the student's
    # forward and its backward
    model = m.build_model(VARIANTS[variant], DIMS, seed=7)
    teacher = model.params.copy()
    teacher.values += 0.25
    graph, x = model.graph, model.prepare_batch(batch(64, 8))
    graph.forward(model.params, x)
    _, dlogits = graph.loss(labels(64), (0.7, 1.4))
    expected = graph.backward_from_dlogits(dlogits)
    expected_rows = graph.row_gradients(dlogits)
    for other in (batch(64, 9), batch(300, 10), batch(5, 11)):
        graph.forward(model.params, x)
        graph.infer(teacher, model.prepare_batch(other))
        assert same_bits(graph.backward_from_dlogits(dlogits), expected)
        graph.infer(teacher, model.prepare_batch(other))
        assert same_bits(graph.row_gradients(dlogits), expected_rows)


def tanh_logits_model():
    """A graph whose last layer is a workspace kernel."""
    graph = ad.Graph([ad.Dense(DIMS[0] * DIMS[1], 2), ad.Activation("tanh")],
                     ("flat", DIMS[0] * DIMS[1]))
    params = graph.new_params()
    params.values[...] = RNG(0).normal(size=params.values.size)
    return m.Model(VARIANTS["mlp-tanh"], DIMS, graph, params)


@pytest.mark.parametrize("variant", [*VARIANTS, "tanh-logits"])
def test_graph_results_never_share_memory_with_later_results(variant):
    if variant == "tanh-logits":
        model = tanh_logits_model()
    else:
        model = m.build_model(VARIANTS[variant], DIMS, seed=3)
    graph, params = model.graph, model.params
    results = []
    for seed, n in ((1, 64), (2, 64), (3, 9)):
        x = model.prepare_batch(batch(n, seed))
        results.append(graph.forward(params, x))
        _, dlogits = graph.loss(labels(n), (1.0, 1.0))
        results.append(graph.infer(params, x))
        results.append(m.predict(model, batch(n, seed + 10)))
        results.append(graph.backward_from_dlogits(dlogits))
        results.append(graph.row_gradients(dlogits))
    copies = [r.copy() for r in results]
    for i, earlier in enumerate(results):
        assert same_bits(earlier, copies[i])
        for later in results[i + 1 :]:
            assert not np.shares_memory(earlier, later)


def standalone_cnn(graph, d, h, k, nonlinearity):
    """The layers of ``models.build_graph``'s two-layer CNN, outside a graph."""
    layers = [ad.Conv1D(d, h, k), ad.Activation(nonlinearity), ad.Conv1D(h, h, k),
              ad.Activation(nonlinearity), ad.MeanPoolTime(), ad.Dense(h, h // 2),
              ad.Activation(nonlinearity), ad.Dense(h // 2, 2)]
    for layer, bound in zip(layers, graph.layers):
        layer.name = bound.name
    return layers


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_cnn_graph_matches_standalone_layers_across_batch_sizes(nonlinearity):
    spec = m.ArchitectureSpec("cnn1d", 2, 16, nonlinearity, kernel_size=3)
    model = m.build_model(spec, DIMS, seed=2)
    graph, params = model.graph, model.params
    layers = standalone_cnn(graph, DIMS[1], 16, 3, nonlinearity)
    for n in (64, 256, 7, 64):
        x = batch(n, n)
        logits = graph.forward(params, x)
        _, dlogits = graph.loss(labels(n), (0.8, 1.3))
        grad = graph.backward_from_dlogits(dlogits)
        ref = x
        for layer in layers:
            ref = layer.forward(params, ref)
        sink = graph.new_params()
        dx = dlogits
        for layer in reversed(layers):
            dx = layer.backward(params, sink, dx)
        assert same_bits(logits, ref)
        assert same_bits(grad, sink.values)


@pytest.mark.parametrize("variant", VARIANTS)
def test_skipping_the_first_input_gradient_changes_no_gradient(variant):
    model = m.build_model(VARIANTS[variant], DIMS, seed=4)
    graph, params = model.graph, model.params
    x = model.prepare_batch(batch(40, 12))
    graph.forward(params, x)
    _, dlogits = graph.loss(labels(40), (0.6, 1.5))
    grad = graph.backward_from_dlogits(dlogits)
    rows = graph.row_gradients(dlogits)
    assert same_bits(grad, full_reverse(graph, params, graph.new_params(), dlogits).values)
    sink = ad.RowGradients(params, 40)
    assert same_bits(rows, full_reverse(graph, params, sink, dlogits).values)


def test_layers_before_the_first_parameter_layer_are_skipped():
    graph = ad.Graph([ad.Activation("tanh"), ad.Dense(4, 3), ad.Activation("relu"),
                      ad.Dense(3, 2)], ("flat", 4))
    params = graph.new_params()
    params.values[...] = RNG(1).normal(size=params.values.size)
    graph.forward(params, RNG(2).normal(size=(6, 4)))
    _, dlogits = graph.loss(labels(6), (1.0, 1.0))
    expected = full_reverse(graph, params, graph.new_params(), dlogits).values
    assert same_bits(graph.backward_from_dlogits(dlogits), expected)
