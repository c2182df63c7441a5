"""Reverse-mode differentiation over dense float64 arrays.

The kernel set is deliberately closed: dense affine maps, 1-d convolution
(valid padding, stride 1), LSTM cells unrolled over time, elementwise
relu/tanh/sigmoid, global mean-pooling over the time axis, and a fused
softmax + weighted cross-entropy head. Everything is float64; there is no
dropout, no batch normalisation, and no other stochastic node, so a forward
pass is a pure function of (parameters, batch).

A ``Graph`` is a sequential pipeline of kernels ending in [N, 2] logits.
Parameters live outside the graph in a ``ParameterVector`` (one flat vector
plus a named layout), which keeps strategy code that manipulates whole
parameter states (anchors, Fisher diagonals, projections) trivial.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError, UsageError

Array = np.ndarray

# Probabilities are clipped to this range inside loss values so confident
# predictions stay finite. Gradients use the unclipped softmax.
PROB_EPS = 1e-12


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class ParameterVector:
    """All trainable weights as one flat float64 vector plus a named layout.

    The layout is a list of (name, offset, shape) triples covering the vector
    contiguously. ``get`` returns reshaped views sharing memory with
    ``values``, so in-place SGD updates are cheap and flatten/unflatten is a
    bitwise round trip by construction.
    """

    __slots__ = ("values", "layout", "_index")

    def __init__(self, values: Array, layout):
        values = _f64(values)
        if values.ndim != 1:
            raise UsageError("parameter vector must be one-dimensional")
        self.values = values
        self.layout = [(str(n), int(o), tuple(int(d) for d in s)) for n, o, s in layout]
        self._index = {}
        cursor = 0
        for name, offset, shape in self.layout:
            if offset != cursor:
                raise UsageError(f"layout entry {name!r} not contiguous at offset {offset}")
            if name in self._index:
                raise UsageError(f"duplicate parameter name {name!r}")
            size = int(np.prod(shape)) if shape else 1
            if any(d <= 0 for d in shape):
                raise UsageError(f"layout entry {name!r} has non-positive extent {shape}")
            self._index[name] = (offset, shape, size)
            cursor += size
        if cursor != values.size:
            raise UsageError(
                f"layout covers {cursor} values but vector has {values.size}"
            )

    @classmethod
    def zeros(cls, named_shapes) -> "ParameterVector":
        layout, offset = [], 0
        for name, shape in named_shapes:
            layout.append((name, offset, tuple(shape)))
            offset += int(np.prod(shape))
        return cls(np.zeros(offset, dtype=np.float64), layout)

    def get(self, name: str) -> Array:
        try:
            offset, shape, size = self._index[name]
        except KeyError:
            raise UsageError(f"unknown parameter {name!r}") from None
        return self.values[offset : offset + size].reshape(shape)

    def set(self, name: str, value) -> None:
        target = self.get(name)
        value = _f64(value)
        if value.shape != target.shape:
            raise UsageError(
                f"parameter {name!r} expects shape {target.shape}, got {value.shape}"
            )
        target[...] = value

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layout)

    def zeros_like(self) -> Array:
        return np.zeros_like(self.values)

    def zeros_same_layout(self) -> "ParameterVector":
        """A fresh all-zero vector sharing this vector's validated layout.

        Skips the layout check of the constructor; the backward pass builds
        one of these per call.
        """
        twin = ParameterVector.__new__(ParameterVector)
        twin.values = np.zeros_like(self.values)
        twin.layout = self.layout
        twin._index = self._index
        return twin

    def names(self):
        return [name for name, _, _ in self.layout]

    @property
    def size(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


class Layer:
    """One kernel in a sequential graph. Subclasses cache what backward needs.

    ``forward(params, x, record=False)`` computes the same output but keeps
    no intermediates and leaves the cache of the last recorded forward as
    it was; inference runs that way.
    """

    tag = "layer"

    def __init__(self):
        self.name = self.tag  # graph assigns a unique name at build time
        self._cache = None

    def param_shapes(self):
        """(local name, shape) pairs, empty for parameter-free kernels."""
        return []

    def init_specs(self):
        """(local name, kind, fan_in) for the initializer; kinds are
        'weight', 'bias', or 'lstm_bias'."""
        return []

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, params: ParameterVector, x: Array, record: bool = True) -> Array:
        raise NotImplementedError

    def backward(self, params: ParameterVector, grads: ParameterVector, dy: Array) -> Array:
        raise NotImplementedError

    def _p(self, local: str) -> str:
        return f"{self.name}.{local}"

    def _shape_error(self, got) -> ConfigurationError:
        return ConfigurationError(
            f"layer {self.name!r} ({self.tag}) got incompatible input shape {tuple(got)}"
        )


class Dense(Layer):
    tag = "dense"

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def param_shapes(self):
        return [("W", (self.in_dim, self.out_dim)), ("b", (self.out_dim,))]

    def init_specs(self):
        return [("W", "weight", self.in_dim), ("b", "bias", self.in_dim)]

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_dim:
            raise self._shape_error(in_shape)
        return (self.out_dim,)

    def forward(self, params, x, record=True):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise self._shape_error(x.shape)
        if record:
            self._cache = x
        return x @ params.get(self._p("W")) + params.get(self._p("b"))

    def backward(self, params, grads, dy):
        x = self._cache
        grads.get(self._p("W"))[...] += x.T @ dy
        grads.get(self._p("b"))[...] += dy.sum(axis=0)
        return dy @ params.get(self._p("W")).T


class Activation(Layer):
    """Elementwise relu / tanh / sigmoid. The relu subgradient at 0 is 0."""

    tag = "activation"
    KINDS = ("relu", "tanh", "sigmoid")

    def __init__(self, kind: str):
        super().__init__()
        if kind not in self.KINDS:
            raise ConfigurationError(f"unknown nonlinearity {kind!r}")
        self.kind = kind
        self.tag = kind

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, params, x, record=True):
        if self.kind == "relu":
            if record:
                self._cache = x
            return np.maximum(x, 0.0)
        if self.kind == "tanh":
            y = np.tanh(x)
        else:
            y = _sigmoid(x)
        if record:
            self._cache = y
        return y

    def backward(self, params, grads, dy):
        c = self._cache
        if self.kind == "relu":
            return dy * (c > 0.0)
        if self.kind == "tanh":
            return dy * (1.0 - c * c)
        return dy * c * (1.0 - c)


class Conv1D(Layer):
    """1-d convolution over the time axis, valid padding, stride 1.

    Input [N, T, C_in] -> output [N, T - k + 1, C_out].
    """

    tag = "conv1d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int):
        super().__init__()
        if kernel_size < 1:
            raise ConfigurationError("conv1d kernel size must be >= 1")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)

    def param_shapes(self):
        k, ci, co = self.kernel_size, self.in_channels, self.out_channels
        return [("W", (k, ci, co)), ("b", (co,))]

    def init_specs(self):
        fan_in = self.kernel_size * self.in_channels
        return [("W", "weight", fan_in), ("b", "bias", fan_in)]

    def out_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_channels:
            raise self._shape_error(in_shape)
        t_out = in_shape[0] - self.kernel_size + 1
        if t_out < 1:
            raise ConfigurationError(
                f"layer {self.name!r}: sequence length {in_shape[0]} shorter than "
                f"kernel size {self.kernel_size}"
            )
        return (t_out, self.out_channels)

    def _windows(self, x):
        # [N, T_out, k, C_in] gather; a copy keeps backward simple.
        n, t, _ = x.shape
        t_out = t - self.kernel_size + 1
        idx = np.arange(t_out)[:, None] + np.arange(self.kernel_size)[None, :]
        return x[:, idx, :]

    def forward(self, params, x, record=True):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise self._shape_error(x.shape)
        self.out_shape(x.shape[1:])
        win = self._windows(x)  # [N, T_out, k, C_in]
        if record:
            self._cache = (win, x.shape)
        w = params.get(self._p("W")).reshape(self.kernel_size * self.in_channels, self.out_channels)
        n, t_out = win.shape[0], win.shape[1]
        y = win.reshape(n, t_out, -1) @ w + params.get(self._p("b"))
        return y

    def backward(self, params, grads, dy):
        win, x_shape = self._cache
        n, t_out = win.shape[0], win.shape[1]
        flat = win.reshape(n * t_out, -1)
        dyf = dy.reshape(n * t_out, self.out_channels)
        dw = flat.T @ dyf
        grads.get(self._p("W"))[...] += dw.reshape(self.kernel_size, self.in_channels, self.out_channels)
        grads.get(self._p("b"))[...] += dyf.sum(axis=0)
        w = params.get(self._p("W"))
        dx = np.zeros(x_shape, dtype=np.float64)
        for j in range(self.kernel_size):
            dx[:, j : j + t_out, :] += dy @ w[j].T
        return dx


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class LSTM(Layer):
    """Single LSTM layer unrolled over time with full BPTT.

    Gate order in the packed 4H axis is (input, forget, candidate, output).
    One bias vector per layer; h_0 = c_0 = 0 and are not trained. Emits the
    full hidden sequence [N, T, H]; ``reverse=True`` processes the sequence
    backwards and re-aligns the output to input time order.
    """

    tag = "lstm"

    def __init__(self, in_dim: int, hidden_dim: int, reverse: bool = False):
        super().__init__()
        self.in_dim = int(in_dim)
        self.hidden_dim = int(hidden_dim)
        self.reverse = bool(reverse)

    def param_shapes(self):
        d, h = self.in_dim, self.hidden_dim
        return [("Wx", (d, 4 * h)), ("Wh", (h, 4 * h)), ("b", (4 * h,))]

    def init_specs(self):
        return [
            ("Wx", "weight", self.in_dim),
            ("Wh", "weight", self.hidden_dim),
            ("b", "lstm_bias", self.in_dim),
        ]

    def out_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_dim:
            raise self._shape_error(in_shape)
        return (in_shape[0], self.hidden_dim)

    def forward(self, params, x, record=True):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise self._shape_error(x.shape)
        if self.reverse:
            x = x[:, ::-1, :]
        n, t, _ = x.shape
        h_dim = self.hidden_dim
        wx = params.get(self._p("Wx"))
        wh = params.get(self._p("Wh"))
        b = params.get(self._p("b"))
        h_prev = np.zeros((n, h_dim))
        c_prev = np.zeros((n, h_dim))
        steps = []
        out = np.empty((n, t, h_dim))
        for ti in range(t):
            z = x[:, ti, :] @ wx + h_prev @ wh + b
            i = _sigmoid(z[:, :h_dim])
            f = _sigmoid(z[:, h_dim : 2 * h_dim])
            g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
            o = _sigmoid(z[:, 3 * h_dim :])
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            if record:
                steps.append((x[:, ti, :], h_prev, c_prev, i, f, g, o, tc))
            out[:, ti, :] = h
            h_prev, c_prev = h, c
        if record:
            self._cache = steps
        if self.reverse:
            return out[:, ::-1, :]
        return out

    def backward(self, params, grads, dy):
        if self.reverse:
            dy = dy[:, ::-1, :]
        steps = self._cache
        t = len(steps)
        h_dim = self.hidden_dim
        wx = params.get(self._p("Wx"))
        wh = params.get(self._p("Wh"))
        d_wx = grads.get(self._p("Wx"))
        d_wh = grads.get(self._p("Wh"))
        d_b = grads.get(self._p("b"))
        n = dy.shape[0]
        dx = np.empty((n, t, self.in_dim))
        dh_next = np.zeros((n, h_dim))
        dc_next = np.zeros((n, h_dim))
        for ti in range(t - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tc = steps[ti]
            dh = dy[:, ti, :] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            d_wx[...] += x_t.T @ dz
            d_wh[...] += h_prev.T @ dz
            d_b[...] += dz.sum(axis=0)
            dx[:, ti, :] = dz @ wx.T
            dh_next = dz @ wh.T
            dc_next = dc * f
        if self.reverse:
            return dx[:, ::-1, :]
        return dx


class BiLSTM(Layer):
    """Two LSTM passes (forward and time-reversed) concatenated per step."""

    tag = "bilstm"

    def __init__(self, in_dim: int, hidden_dim: int):
        self.fw = LSTM(in_dim, hidden_dim, reverse=False)
        self.bw = LSTM(in_dim, hidden_dim, reverse=True)
        super().__init__()
        self.in_dim = int(in_dim)
        self.hidden_dim = int(hidden_dim)

    @property
    def name(self):
        return self._name

    @name.setter
    def name(self, value):
        self._name = value
        self.fw.name = f"{value}.fw"
        self.bw.name = f"{value}.bw"

    def param_shapes(self):
        return [(f"fw.{n}", s) for n, s in self.fw.param_shapes()] + [
            (f"bw.{n}", s) for n, s in self.bw.param_shapes()
        ]

    def init_specs(self):
        return [(f"fw.{n}", k, f) for n, k, f in self.fw.init_specs()] + [
            (f"bw.{n}", k, f) for n, k, f in self.bw.init_specs()
        ]

    def out_shape(self, in_shape):
        t, _ = self.fw.out_shape(in_shape)
        return (t, 2 * self.hidden_dim)

    def forward(self, params, x, record=True):
        fw = self.fw.forward(params, x, record=record)
        bw = self.bw.forward(params, x, record=record)
        return np.concatenate([fw, bw], axis=2)

    def backward(self, params, grads, dy):
        h = self.hidden_dim
        return self.fw.backward(params, grads, dy[:, :, :h]) + self.bw.backward(
            params, grads, dy[:, :, h:]
        )


class MeanPoolTime(Layer):
    """Global mean over the time axis: [N, T, C] -> [N, C]."""

    tag = "meanpool"

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise self._shape_error(in_shape)
        return (in_shape[1],)

    def forward(self, params, x, record=True):
        if x.ndim != 3:
            raise self._shape_error(x.shape)
        if record:
            self._cache = x.shape[1]
        return x.mean(axis=1)

    def backward(self, params, grads, dy):
        t = self._cache
        return np.repeat(dy[:, None, :] / t, t, axis=1)


class LastStep(Layer):
    """Sequence readout: the final hidden state, [N, T, H] -> [N, H]."""

    tag = "laststep"

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise self._shape_error(in_shape)
        return (in_shape[1],)

    def forward(self, params, x, record=True):
        if record:
            self._cache = x.shape
        return x[:, -1, :].copy()

    def backward(self, params, grads, dy):
        dx = np.zeros(self._cache)
        dx[:, -1, :] = dy
        return dx


class BiLastStep(Layer):
    """Readout for aligned bidirectional sequences: the forward half at the
    final step and the reverse half at the first step, [N, T, 2H] -> [N, 2H]."""

    tag = "bilaststep"

    def __init__(self, hidden_dim: int):
        super().__init__()
        self.hidden_dim = int(hidden_dim)

    def out_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != 2 * self.hidden_dim:
            raise self._shape_error(in_shape)
        return (in_shape[1],)

    def forward(self, params, x, record=True):
        if record:
            self._cache = x.shape
        h = self.hidden_dim
        return np.concatenate([x[:, -1, :h], x[:, 0, h:]], axis=1)

    def backward(self, params, grads, dy):
        dx = np.zeros(self._cache)
        h = self.hidden_dim
        dx[:, -1, :h] = dy[:, :h]
        dx[:, 0, h:] = dy[:, h:]
        return dx


class LossValue:
    """Scalar loss node produced by ``Graph.loss``; feeds ``backward``."""

    __slots__ = ("value", "dlogits", "_graph", "_token")

    def __init__(self, value, dlogits, graph, token):
        self.value = float(value)
        self.dlogits = dlogits
        self._graph = graph
        self._token = token

    def __float__(self):
        return self.value


class Graph:
    """A sequential pipeline over the closed kernel set ending in [N, 2] logits.

    ``input_signature`` is ("flat", D) for flattened input or ("seq", T, D)
    for sequence input. Forward records per-layer intermediates; backward over
    those intermediates accumulates gradients into a flat vector aligned with
    the parameter layout. ``infer`` runs the same arithmetic without recording
    anything, so it neither holds intermediates nor disturbs the state of the
    last forward. Single-threaded by design: one graph instance owns one
    forward-state at a time.
    """

    def __init__(self, layers, input_signature):
        if input_signature[0] not in ("flat", "seq"):
            raise ConfigurationError(f"unknown input signature {input_signature!r}")
        self.layers = list(layers)
        self.input_signature = tuple(input_signature)
        names = set()
        shapes = []
        shape = tuple(input_signature[1:])
        for idx, layer in enumerate(self.layers):
            layer.name = f"L{idx}.{layer.tag}"
            if layer.name in names:
                raise ConfigurationError(f"duplicate layer name {layer.name!r}")
            names.add(layer.name)
            shape = layer.out_shape(shape)
            for local, pshape in layer.param_shapes():
                shapes.append((f"{layer.name}.{local}", pshape))
        if shape != (2,):
            raise ConfigurationError(
                f"graph must end in 2 logits per sample, got feature shape {shape}"
            )
        self._param_shapes = shapes
        self._grad_template = ParameterVector.zeros(shapes)
        self._token = 0
        self._logits = None

    def param_shapes(self):
        return list(self._param_shapes)

    def init_specs(self):
        out = []
        for layer in self.layers:
            for local, kind, fan_in in layer.init_specs():
                out.append((f"{layer.name}.{local}", kind, fan_in))
        return out

    def new_params(self) -> ParameterVector:
        return ParameterVector.zeros(self._param_shapes)

    def _check_input(self, batch: Array):
        sig = self.input_signature
        if sig[0] == "flat":
            if batch.ndim != 2 or batch.shape[1] != sig[1]:
                raise ConfigurationError(
                    f"graph expects flat input [N, {sig[1]}], got {tuple(batch.shape)}"
                )
        else:
            if batch.ndim != 3 or batch.shape[1:] != sig[1:]:
                raise ConfigurationError(
                    f"graph expects sequence input [N, {sig[1]}, {sig[2]}], "
                    f"got {tuple(batch.shape)}"
                )

    def _run(self, params: ParameterVector, batch, record: bool) -> Array:
        x = _f64(batch)
        self._check_input(x)
        for layer in self.layers:
            x = layer.forward(params, x, record=record)
        return x

    def forward(self, params: ParameterVector, batch) -> Array:
        x = self._run(params, batch, record=True)
        self._token += 1
        self._logits = x
        self._params_used = params
        return x

    def infer(self, params: ParameterVector, batch) -> Array:
        """Logits of ``batch`` with no backward state kept or overwritten."""
        return self._run(params, batch, record=False)

    def loss(self, labels, class_weights) -> LossValue:
        if self._logits is None:
            raise UsageError("loss() called before forward()")
        value, dlogits = weighted_ce_with_grad(self._logits, labels, class_weights)
        return LossValue(value, dlogits, self, self._token)

    def backward_from_dlogits(self, dlogits: Array) -> Array:
        if self._logits is None:
            raise UsageError("backward called before forward()")
        if dlogits.shape != self._logits.shape:
            raise UsageError(
                f"dlogits shape {dlogits.shape} does not match logits {self._logits.shape}"
            )
        # fresh every call: GEM and A-GEM keep the gradients they are handed
        grads = self._grad_template.zeros_same_layout()
        dx = dlogits
        for layer in reversed(self.layers):
            dx = layer.backward(self._params_used, grads, dx)
        return grads.values


def forward(graph: Graph, params: ParameterVector, batch) -> Array:
    """Run the graph on a batch, returning [N, 2] logits."""
    return graph.forward(params, batch)


def backward(graph: Graph, loss: LossValue) -> Array:
    """Gradient of a loss node w.r.t. every parameter, as a flat vector.

    The loss must come from ``graph.loss`` after the most recent forward on
    this same graph; anything else is a usage error. Parameters the loss does
    not reach get exactly 0.
    """
    if not isinstance(loss, LossValue):
        raise UsageError("backward expects the LossValue returned by graph.loss")
    if loss._graph is not graph:
        raise UsageError("loss node belongs to a different graph")
    if loss._token != graph._token:
        raise UsageError("graph was re-run after this loss was computed")
    return graph.backward_from_dlogits(loss.dlogits)


def _check_labels(labels, n):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DataError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(np.isin(labels, (0, 1))):
            raise DataError("labels must be binary 0/1")
        labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        raise DataError("labels must be binary 0/1")
    return labels.astype(np.int64)


def log_softmax(logits: Array) -> Array:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits: Array) -> Array:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def weighted_cross_entropy(logits, labels, class_weights) -> float:
    """Mean over samples of -w[y_n] * log softmax(logits_n)[y_n].

    Probabilities are clipped to [1e-12, 1 - 1e-12] so the value stays finite
    for arbitrarily confident logits. With class_weights (1, 1) this is plain
    cross-entropy.
    """
    value, _ = weighted_ce_with_grad(logits, labels, class_weights)
    return value


def weighted_ce_with_grad(logits, labels, class_weights):
    """Fused loss head: returns (loss value, d loss / d logits)."""
    logits = _f64(logits)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise DataError(f"logits must be [N, 2], got {tuple(logits.shape)}")
    n = logits.shape[0]
    if n == 0:
        raise DataError("empty batch")
    labels = _check_labels(labels, n)
    w = _f64(class_weights)
    if w.shape != (2,):
        raise ConfigurationError(f"class_weights must have 2 entries, got shape {w.shape}")
    if np.any(w <= 0):
        raise ConfigurationError("class weights must be strictly positive")
    logp = log_softmax(logits)
    p = np.exp(logp)
    p_clipped = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    rows = np.arange(n)
    wy = w[labels]
    value = float(np.mean(-wy * np.log(p_clipped[rows, labels])))
    dlogits = p.copy()
    dlogits[rows, labels] -= 1.0
    dlogits *= (wy / n)[:, None]
    return value, dlogits


def grad_check(
    graph: Graph,
    params: ParameterVector,
    batch,
    eps: float = 1e-5,
    labels=None,
    class_weights=(1.0, 1.0),
    coords=None,
    rng=None,
) -> float:
    """Worst relative error between backward() and central finite differences.

    The scalar under test is the fused weighted cross-entropy on ``batch``
    against ``labels`` (default: alternating 0/1). ``coords`` restricts the
    check to specific flat parameter indices; ``rng`` with ``coords`` as an
    int samples that many coordinates without replacement. Relative error is
    |a - fd| / max(|a|, |fd|, 1e-6), the floor absorbing finite-difference
    noise on coordinates whose true gradient is ~0.
    """
    if not (0.0 < eps <= 1e-2):
        raise UsageError(f"eps must be in (0, 1e-2], got {eps}")
    batch = _f64(batch)
    n = batch.shape[0]
    if labels is None:
        labels = np.arange(n, dtype=np.int64) % 2
    graph.forward(params, batch)
    loss = graph.loss(labels, class_weights)
    analytic = backward(graph, loss)

    if coords is None:
        idx = np.arange(params.size)
    elif isinstance(coords, (int, np.integer)):
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.choice(params.size, size=min(int(coords), params.size), replace=False)
    else:
        idx = np.asarray(coords, dtype=np.int64)

    theta = params.values
    worst = 0.0
    for i in idx:
        saved = theta[i]
        theta[i] = saved + eps
        graph.forward(params, batch)
        up = graph.loss(labels, class_weights).value
        theta[i] = saved - eps
        graph.forward(params, batch)
        down = graph.loss(labels, class_weights).value
        theta[i] = saved
        fd = (up - down) / (2.0 * eps)
        a = analytic[i]
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
        if rel > worst:
            worst = rel
    return worst
