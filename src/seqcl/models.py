"""Benchmark architectures over the closed kernel set.

Every model is a stack of 1 to 4 feature layers followed by a two-layer dense
head. The head narrows to max(1, hidden_dim // 2) hidden units before the 2
output logits; the hidden width is a documented choice, the source material
only fixes the layer count. No dropout and no batch normalisation exist
anywhere (there is no such kernel to insert).

Feature stacks per kind:
  mlp    dense layers on flattened [N, T*D] input
  cnn1d  valid-padding stride-1 convolutions over time, then a global mean
         pool over the remaining steps
  lstm   stacked LSTM layers, readout = final hidden state (for the
         bidirectional variant, the forward-final and reverse-first states)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DataError
from .rules import COUNT, FLAG, int_range, one_of, read

MODEL_KINDS = ("mlp", "cnn1d", "lstm")

# ArchitectureSpec field -> rule
ARCHITECTURE_RULES = {
    "kind": one_of(MODEL_KINDS), "n_feature_layers": int_range(1, 4), "hidden_dim": COUNT,
    "nonlinearity": one_of(ad.Activation.KINDS), "bidirectional": FLAG, "kernel_size": COUNT,
}


@dataclass(frozen=True)
class ArchitectureSpec:
    kind: str
    n_feature_layers: int = 2
    hidden_dim: int = 64
    nonlinearity: str = "relu"
    bidirectional: bool = False
    kernel_size: int = 3

    def validate(self) -> "ArchitectureSpec":
        read(ARCHITECTURE_RULES, vars(self), "architecture")
        if self.bidirectional and self.kind != "lstm":
            raise ConfigurationError("bidirectional is only meaningful for lstm models")
        return self


@dataclass
class Model:
    """An architecture bound to a graph instance and a parameter vector."""

    spec: ArchitectureSpec
    input_dims: tuple  # (T, D) of the model-ready feature tensor
    graph: ad.Graph
    params: ad.ParameterVector

    def prepare_batch(self, batch) -> np.ndarray:
        """Map a [N, T, D] feature batch onto the graph's input signature."""
        batch = np.asarray(batch, dtype=np.float64)
        t, d = self.input_dims
        if batch.ndim != 3 or batch.shape[1:] != (t, d):
            raise DataError(
                f"batch must be [N, {t}, {d}], got {tuple(batch.shape)}"
            )
        if self.graph.input_signature[0] == "flat":
            return batch.reshape(batch.shape[0], t * d)
        return batch


def build_graph(spec: ArchitectureSpec, input_dims) -> ad.Graph:
    spec = spec.validate()
    t, d = (int(x) for x in input_dims)
    if t < 1 or d < 1:
        raise ConfigurationError(f"input dims must be positive, got {(t, d)}")
    h = spec.hidden_dim
    nl = spec.nonlinearity
    layers = []
    if spec.kind == "mlp":
        in_dim = t * d
        for _ in range(spec.n_feature_layers):
            layers.append(ad.Dense(in_dim, h))
            layers.append(ad.Activation(nl))
            in_dim = h
        signature = ("flat", t * d)
        feat_dim = h
    elif spec.kind == "cnn1d":
        needed = spec.n_feature_layers * (spec.kernel_size - 1) + 1
        if t < needed:
            raise ConfigurationError(
                f"sequence length {t} too short for {spec.n_feature_layers} conv "
                f"layers of kernel size {spec.kernel_size} (needs >= {needed})"
            )
        ch = d
        for _ in range(spec.n_feature_layers):
            layers.append(ad.Conv1D(ch, h, spec.kernel_size))
            layers.append(ad.Activation(nl))
            ch = h
        layers.append(ad.MeanPoolTime())
        signature = ("seq", t, d)
        feat_dim = h
    else:  # lstm
        in_dim = d
        for _ in range(spec.n_feature_layers):
            if spec.bidirectional:
                layers.append(ad.BiLSTM(in_dim, h))
                in_dim = 2 * h
            else:
                layers.append(ad.LSTM(in_dim, h))
                in_dim = h
        layers.append(ad.BiLastStep(h) if spec.bidirectional else ad.LastStep())
        signature = ("seq", t, d)
        feat_dim = in_dim
    head_hidden = max(1, h // 2)
    layers.append(ad.Dense(feat_dim, head_hidden))
    layers.append(ad.Activation(nl))
    layers.append(ad.Dense(head_hidden, 2))
    return ad.Graph(layers, signature)


def build_model(spec: ArchitectureSpec, input_dims, seed: int) -> Model:
    """Deterministic construction: same spec and seed give identical params.

    Dense and conv weights are uniform on +-sqrt(1/fan_in); LSTM kernels use
    the same simple uniform rule per matrix; biases start at zero except the
    LSTM forget gate, which starts at 1.0.
    """
    graph = build_graph(spec, input_dims)
    params = graph.new_params()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1A17)))
    for name, kind, fan_in in graph.init_specs():
        target = params.get(name)
        if kind == "weight":
            bound = float(np.sqrt(1.0 / fan_in))
            target[...] = rng.uniform(-bound, bound, size=target.shape)
        elif kind == "bias":
            target[...] = 0.0
        elif kind == "lstm_bias":
            target[...] = 0.0
            h = target.shape[0] // 4
            target[h : 2 * h] = 1.0  # forget gate opens; stabilises early BPTT
        else:
            raise ConfigurationError(f"unknown init kind {kind!r}")
    return Model(spec=spec, input_dims=(int(input_dims[0]), int(input_dims[1])),
                 graph=graph, params=params)


def predict(model: Model, batch) -> np.ndarray:
    """Softmax probabilities [N, 2]; rows sum to 1 within 1e-12."""
    x = model.prepare_batch(batch)
    return ad.softmax(model.graph.infer(model.params, x))


def repeat_and_concat_statics(timevarying, statics) -> np.ndarray:
    """Tile static features across time: [N,T,Dt] + [N,Ds] -> [N,T,Dt+Ds]."""
    tv = np.asarray(timevarying, dtype=np.float64)
    st = np.asarray(statics, dtype=np.float64)
    if tv.ndim != 3:
        raise DataError(f"timevarying must be [N, T, D], got {tuple(tv.shape)}")
    if st.ndim != 2:
        raise DataError(f"statics must be [N, D], got {tuple(st.shape)}")
    if tv.shape[0] != st.shape[0]:
        raise DataError(
            f"sample counts differ: {tv.shape[0]} timevarying vs {st.shape[0]} static"
        )
    if st.shape[1] == 0:
        return tv.copy()
    tiled = np.repeat(st[:, None, :], tv.shape[1], axis=1)
    return np.concatenate([tv, tiled], axis=2)
