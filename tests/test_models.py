"""Architecture construction, initialization, prediction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqcl import autodiff as ad
from seqcl import models as m
from seqcl.errors import ConfigurationError, DataError


def mlp_param_count(t, d, n_layers, h):
    """Closed-form oracle, written independently of build_graph."""
    head_h = max(1, h // 2)
    count = (t * d) * h + h
    count += (n_layers - 1) * (h * h + h)
    count += h * head_h + head_h
    count += head_h * 2 + 2
    return count


def lstm_param_count(d, n_layers, h, bidirectional=False):
    def one(direction_in):
        return 4 * (h * (direction_in + h) + h)

    count = 0
    feat_in = d
    for _ in range(n_layers):
        if bidirectional:
            count += 2 * one(feat_in)
            feat_in = 2 * h
        else:
            count += one(feat_in)
            feat_in = h
    head_h = max(1, h // 2)
    count += feat_in * head_h + head_h + head_h * 2 + 2
    return count


def cnn_param_count(d, n_layers, h, k):
    count = k * d * h + h
    count += (n_layers - 1) * (k * h * h + h)
    head_h = max(1, h // 2)
    count += h * head_h + head_h + head_h * 2 + 2
    return count


def test_mlp_first_layer_fan_in_is_flattened_input():
    spec = m.ArchitectureSpec(kind="mlp", n_feature_layers=2, hidden_dim=16)
    model = m.build_model(spec, (48, 10), seed=0)
    assert model.params.get("L0.dense.W").shape == (480, 16)
    assert model.graph.input_signature == ("flat", 480)


def test_lstm_parameter_count_matches_closed_form():
    spec = m.ArchitectureSpec(kind="lstm", n_feature_layers=2, hidden_dim=64)
    assert m.build_graph(spec, (48, 10)).new_params().values.size == lstm_param_count(10, 2, 64)


def test_bidirectional_lstm_parameter_count():
    spec = m.ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=8, bidirectional=True)
    assert m.build_graph(spec, (12, 5)).new_params().values.size == lstm_param_count(5, 1, 8, bidirectional=True)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["mlp", "cnn1d", "lstm"]),
    st.integers(1, 4),
    st.sampled_from([4, 8, 16]),
    st.integers(8, 20),
    st.integers(2, 6),
)
def test_parameter_count_matches_oracle_for_random_specs(kind, layers, h, t, d):
    spec = m.ArchitectureSpec(kind=kind, n_feature_layers=layers, hidden_dim=h)
    if kind == "cnn1d":
        assume(t >= layers * (spec.kernel_size - 1) + 1)
    if kind == "mlp":
        expect = mlp_param_count(t, d, layers, h)
    elif kind == "lstm":
        expect = lstm_param_count(d, layers, h)
    else:
        expect = cnn_param_count(d, layers, h, spec.kernel_size)
    assert m.build_graph(spec, (t, d)).new_params().values.size == expect


def test_same_seed_gives_identical_parameters():
    spec = m.ArchitectureSpec(kind="cnn1d", n_feature_layers=2, hidden_dim=6)
    a = m.build_model(spec, (10, 3), seed=99)
    b = m.build_model(spec, (10, 3), seed=99)
    assert np.array_equal(a.params.values, b.params.values)
    c = m.build_model(spec, (10, 3), seed=100)
    assert not np.array_equal(a.params.values, c.params.values)


def test_init_bounds_and_special_biases():
    spec = m.ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=8)
    model = m.build_model(spec, (6, 4), seed=5)
    wx = model.params.get("L0.lstm.Wx")
    assert np.abs(wx).max() <= math.sqrt(1.0 / 4)
    b = model.params.get("L0.lstm.b")
    assert np.array_equal(b[8:16], np.ones(8))  # forget gate
    assert np.array_equal(b[:8], np.zeros(8))
    dense_b = model.params.get(f"L{1 + 1}.dense.b")
    assert np.array_equal(dense_b, np.zeros_like(dense_b))


def test_no_dropout_or_batchnorm_nodes_exist():
    allowed = {
        ad.Dense, ad.Activation, ad.Conv1D, ad.LSTM, ad.BiLSTM,
        ad.MeanPoolTime, ad.LastStep, ad.BiLastStep,
    }
    for kind in m.MODEL_KINDS:
        spec = m.ArchitectureSpec(kind=kind, n_feature_layers=2, hidden_dim=8)
        graph = m.build_graph(spec, (12, 4))
        for layer in graph.layers:
            assert type(layer) in allowed
            assert "dropout" not in layer.tag and "norm" not in layer.tag


def test_predict_rows_sum_to_one_and_zero_model_is_uniform():
    spec = m.ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=4)
    model = m.build_model(spec, (5, 2), seed=1)
    x = np.random.default_rng(2).normal(size=(7, 5, 2))
    probs = m.predict(model, x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    model.params.values[...] = 0.0
    assert np.array_equal(m.predict(model, x), np.full((7, 2), 0.5))


def test_predict_matches_hand_sigmoid_on_one_unit_model():
    spec = m.ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=1)
    model = m.build_model(spec, (1, 1), seed=0)
    # graph: dense(1->1), relu, dense(1->1)? head narrows to max(1, 0)=... h=1 -> head_h=1
    model.params.values[...] = 0.0
    model.params.get("L0.dense.W")[...] = np.array([[1.0]])
    model.params.get("L2.dense.W")[...] = np.array([[1.0]])
    model.params.get("L4.dense.W")[...] = np.array([[2.0, -1.0]])
    x = np.full((1, 1, 1), 1.5)
    # feature = relu(1.5) = 1.5, head hidden = 1.5, logits = (3.0, -1.5)
    probs = m.predict(model, x)
    z = np.array([3.0, -1.5])
    hand = np.exp(z - z.max())
    hand = hand / hand.sum()
    assert np.allclose(probs[0], hand, atol=1e-15)


def test_predict_is_pure():
    spec = m.ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=4)
    model = m.build_model(spec, (6, 3), seed=3)
    x = np.random.default_rng(4).normal(size=(5, 6, 3))
    assert np.array_equal(m.predict(model, x), m.predict(model, x))


def test_repeat_and_concat_statics():
    tv = np.arange(12, dtype=float).reshape(2, 3, 2)
    st_feats = np.array([[10.0], [20.0]])
    out = m.repeat_and_concat_statics(tv, st_feats)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out[0, :, 2], np.full(3, 10.0))
    assert np.array_equal(out[1, :, 2], np.full(3, 20.0))
    assert np.array_equal(out[:, :, :2], tv)
    # zero static features: identity on the time-varying block
    same = m.repeat_and_concat_statics(tv, np.zeros((2, 0)))
    assert np.array_equal(same, tv)
    # single time step still concatenates
    one = m.repeat_and_concat_statics(tv[:, :1, :], st_feats)
    assert one.shape == (2, 1, 3)
    with pytest.raises(DataError):
        m.repeat_and_concat_statics(tv, np.zeros((3, 1)))


def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        m.ArchitectureSpec(kind="transformer").validate()
    with pytest.raises(ConfigurationError):
        m.ArchitectureSpec(kind="mlp", n_feature_layers=5).validate()
    with pytest.raises(ConfigurationError):
        m.ArchitectureSpec(kind="mlp", nonlinearity="gelu").validate()
    with pytest.raises(ConfigurationError):
        m.ArchitectureSpec(kind="mlp", bidirectional=True).validate()
    with pytest.raises(ConfigurationError):
        m.build_graph(m.ArchitectureSpec(kind="cnn1d", n_feature_layers=4, kernel_size=3), (5, 2))


@pytest.mark.parametrize("field,value", [
    ("n_feature_layers", 2.0), ("n_feature_layers", True), ("hidden_dim", "8"),
    ("kernel_size", None), ("bidirectional", 1), ("bidirectional", "no"),
])
def test_spec_rejects_wrong_types(field, value):
    with pytest.raises(ConfigurationError, match=field):
        m.ArchitectureSpec(kind="lstm", **{field: value}).validate()
    m.ArchitectureSpec(kind="lstm", n_feature_layers=np.int64(2)).validate()


def test_prepare_batch_flattens_only_for_mlp():
    mlp = m.build_model(m.ArchitectureSpec(kind="mlp", hidden_dim=4), (3, 2), seed=0)
    seq = m.build_model(m.ArchitectureSpec(kind="lstm", hidden_dim=4, n_feature_layers=1), (3, 2), seed=0)
    x = np.random.default_rng(0).normal(size=(5, 3, 2))
    assert mlp.prepare_batch(x).shape == (5, 6)
    assert seq.prepare_batch(x).shape == (5, 3, 2)
    with pytest.raises(DataError):
        mlp.prepare_batch(x[:, :2, :])
