"""Reverse-mode differentiation over dense float64 arrays.

The kernel set is deliberately closed: dense affine maps, 1-d convolution
(valid padding, stride 1), LSTM cells unrolled over time, elementwise
relu/tanh, global mean-pooling over the time axis, and a fused
softmax + weighted cross-entropy head. Everything is float64; there is no
dropout, no batch normalisation, and no other stochastic node, so a forward
pass is a pure function of (parameters, batch).

A ``Graph`` is a sequential pipeline of kernels ending in [N, 2] logits.
Parameters live outside the graph in a ``ParameterVector`` (one flat vector
plus a named layout), which keeps strategy code that manipulates whole
parameter states (anchors, Fisher diagonals, projections) trivial.

Every ``Layer.backward`` hands its parameter gradients to a sink through
two calls, ``add_outer`` (example-summed outer products) and ``add_sum``
(example-summed biases). A ``ParameterVector`` sink sums over the examples
of the batch; a ``RowGradients`` sink keeps one gradient per example. Both
run the same reverse loop.
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

    def add_outer(self, name: str, x: Array, dy: Array) -> None:
        """Gradient sink: add ``x^T dy`` summed over every example to ``name``.

        Operands are [N, a] and [N, b], or [N, T, a] and [N, T, b] with the
        example axis first, summed over N and T.
        """
        g = self.get(name)
        if x.ndim == 2:
            g += x.T @ dy
        else:
            g += (_rows(x).T @ _rows(dy)).reshape(g.shape)

    def add_sum(self, name: str, dy: Array) -> None:
        """Gradient sink: add ``dy`` summed over every example (and step)."""
        g = self.get(name)
        g += _rows(dy).sum(axis=0)


def _rows(a: Array) -> Array:
    """[N, T, b] folded to [N*T, b]; 2-d operands pass through untouched."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


class RowGradients:
    """Gradient sink that keeps one gradient per example: ``values`` is
    [N, P] in the parameter layout.

    Row n equals the batch gradient with every other row's dlogits set to
    zero, bit for bit up to the sign of zeros. For [N, a] operands that
    zero-padded sum has a single non-zero term, so the per-row outer
    product is exact. For [N, T, a] operands each example sums T terms, and
    BLAS blocks that sum by the batch's N*T rows; so each example's term is
    formed with the batch-sized GEMM, the other examples' rows zeroed.
    """

    __slots__ = ("values", "_index")

    def __init__(self, layout: ParameterVector, n: int):
        self.values = np.zeros((n, layout.values.size))
        self._index = layout._index

    def _block(self, name: str) -> Array:
        offset, _, size = self._index[name]
        return self.values[:, offset : offset + size]

    def add_outer(self, name: str, x: Array, dy: Array) -> None:
        block = self._block(name)
        if x.ndim == 2:
            block += (x[:, :, None] * dy[:, None, :]).reshape(block.shape)
            return
        flat = _rows(x)
        masked = np.zeros(dy.shape)  # C order, so masked_rows is a view of it
        masked_rows = _rows(masked)
        for r in range(dy.shape[0]):
            masked[r] = dy[r]
            block[r] += (flat.T @ masked_rows).ravel()
            masked[r] = 0.0

    def add_sum(self, name: str, dy: Array) -> None:
        self._block(name)[...] += dy if dy.ndim == 2 else dy.sum(axis=1)


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

    def backward(self, params: ParameterVector, grads, dy: Array) -> Array:
        """d loss / d input; parameter gradients go to the sink ``grads``
        (a ``ParameterVector`` or a ``RowGradients``)."""
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
        grads.add_outer(self._p("W"), x, dy)
        grads.add_sum(self._p("b"), dy)
        return dy @ params.get(self._p("W")).T


class Activation(Layer):
    """Elementwise relu / tanh. The relu subgradient at 0 is 0."""

    tag = "activation"
    KINDS = ("relu", "tanh")

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
        y = np.tanh(x)
        if record:
            self._cache = y
        return y

    def backward(self, params, grads, dy):
        c = self._cache
        if self.kind == "relu":
            return dy * (c > 0.0)
        return dy * (1.0 - c * c)


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
        grads.add_outer(self._p("W"), win.reshape(n, t_out, -1), dy)
        grads.add_sum(self._p("b"), dy)
        w = params.get(self._p("W"))
        dx = np.zeros(x_shape, dtype=np.float64)
        for j in range(self.kernel_size):
            dx[:, j : j + t_out, :] += dy @ w[j].T
        return dx


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without masks:
    with e = e^-|x| both branches are a numerator over 1 + e, so the bits
    equal the two-branch form on every finite input."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
        name_wx, name_wh, name_b = self._p("Wx"), self._p("Wh"), self._p("b")
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
            grads.add_outer(name_wx, x_t, dz)
            grads.add_outer(name_wh, h_prev, dz)
            grads.add_sum(name_b, dz)
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


class Graph:
    """A sequential pipeline over the closed kernel set ending in [N, 2] logits.

    ``input_signature`` is ("flat", D) for flattened input or ("seq", T, D)
    for sequence input. A training step is ``forward`` (records per-layer
    intermediates), ``loss`` (value and d loss / d logits of those logits),
    then ``backward_from_dlogits``, which accumulates gradients over the
    recorded intermediates into a flat vector aligned with the parameter
    layout; callers may add their own terms to the dlogits first.
    ``row_gradients`` runs the same reverse loop into a ``RowGradients``
    sink and returns one gradient per example instead of their sum. ``infer``
    runs the same arithmetic without recording anything, so it neither holds
    intermediates nor disturbs the state of the last forward.
    Single-threaded by design: one graph instance owns one forward-state at
    a time.
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
        self._logits = None

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
        self._logits = x
        self._params_used = params
        return x

    def infer(self, params: ParameterVector, batch) -> Array:
        """Logits of ``batch`` with no backward state kept or overwritten."""
        return self._run(params, batch, record=False)

    def loss(self, labels, class_weights):
        """(weighted CE, d loss / d logits) of the last recorded forward."""
        if self._logits is None:
            raise UsageError("loss() called before forward()")
        return weighted_ce_with_grad(self._logits, labels, class_weights)

    def backward_from_dlogits(self, dlogits: Array) -> Array:
        """Gradient w.r.t. every parameter of the last recorded forward, as a
        flat vector. Parameters the logits do not reach get exactly 0."""
        # fresh every call: GEM and A-GEM keep the gradients they are handed
        return self._reverse(self._grad_template.zeros_same_layout(), dlogits).values

    def row_gradients(self, dlogits: Array) -> Array:
        """Per-example gradients of the last recorded forward, [N, P].

        Row n is bit for bit what ``backward_from_dlogits`` returns when
        every row of ``dlogits`` but row n is zero (zeros may differ in
        sign), from one reverse pass. Holds N*P float64 values.
        """
        sink = RowGradients(self._grad_template, dlogits.shape[0])
        return self._reverse(sink, dlogits).values

    def _reverse(self, grads, dlogits: Array):
        """The one reverse loop: every layer's backward, gradients into ``grads``."""
        if self._logits is None:
            raise UsageError("backward called before forward()")
        if dlogits.shape != self._logits.shape:
            raise UsageError(
                f"dlogits shape {dlogits.shape} does not match logits {self._logits.shape}"
            )
        dx = dlogits
        for layer in reversed(self.layers):
            dx = layer.backward(self._params_used, grads, dx)
        return grads


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


def weighted_ce_with_grad(logits, labels, class_weights):
    """Fused loss head: returns (loss value, d loss / d logits).

    The value is the mean over samples of -w[y_n] * log softmax(logits_n)[y_n],
    with probabilities clipped to [1e-12, 1 - 1e-12] so it stays finite for
    arbitrarily confident logits. With class_weights (1, 1) this is plain
    cross-entropy.
    """
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
