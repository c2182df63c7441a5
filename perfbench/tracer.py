"""Outside-in span tracer for the seqcl package.

The tracer wraps public functions and methods of the package's modules from
outside: every module-level name bound to a wrapped function is rebound to
the wrapper, so calls made through ``from .x import f`` copies are seen too.
Nothing under ``src/`` is edited. Each call records one span
(name, start, end, parent span); self time is a span's duration minus the
part covered by its child spans. Spans stay in memory until ``write``.

The tracer draws no random numbers and passes every argument and result
through unchanged, so a traced run must produce the same records as an
untraced one.
"""

import functools
import gzip
import json
import sys
import time

import numpy as np

# the package modules whose calls are traced; span names start with these
LAYERS = ("datagen", "blobio", "harness", "training", "models", "metrics",
          "strategies", "autodiff")

# (module, attribute) -> span name, for module-level functions
FUNCTIONS = {
    ("datagen", "generate_cohort"): "datagen.generate_cohort",
    ("datagen", "split_tasks"): "datagen.split_tasks",
    ("datagen", "partition_task"): "datagen.partition_task",
    ("datagen", "write_dataset"): "datagen.write_dataset",
    ("datagen", "load_dataset"): "datagen.load_dataset",
    ("blobio", "write_bundle"): "blobio.write_bundle",
    ("blobio", "read_bundle"): "blobio.read_bundle",
    ("harness", "load_partitions"): "harness.load_partitions",
    ("harness", "tune"): "harness.tune",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("harness", "report"): "harness.report",
    ("training", "run_single"): "training.run_single",
    ("training", "evaluate_seen_tasks"): "training.evaluate_seen_tasks",
    ("models", "build_model"): "models.build_model",
    ("models", "predict"): "models.predict",
    ("metrics", "summarize_classification"): "metrics.summarize_classification",
    ("metrics", "auroc"): "metrics.auroc",
    ("metrics", "auprc"): "metrics.auprc",
    ("metrics", "bootstrap_ci"): "metrics.bootstrap_ci",
    ("strategies", "compute_fisher"): "strategies.compute_fisher",
    ("strategies", "gem_project"): "strategies.gem_project",
    ("strategies", "solve_dual_qp"): "strategies.solve_dual_qp",
    ("strategies", "agem_project"): "strategies.agem_project",
    ("strategies", "replay_store"): "strategies.replay_store",
}

# (module, class, method) -> span name
METHODS = {
    ("training", "TaskStream", "get"): "training.TaskStream.get",
    ("autodiff", "Dense", "forward"): "autodiff.Dense.forward",
    ("autodiff", "Dense", "backward"): "autodiff.Dense.backward",
    ("autodiff", "Conv1D", "forward"): "autodiff.Conv1D.forward",
    ("autodiff", "Conv1D", "backward"): "autodiff.Conv1D.backward",
    ("autodiff", "LSTM", "forward"): "autodiff.LSTM.forward",
    ("autodiff", "LSTM", "backward"): "autodiff.LSTM.backward",
    ("autodiff", "BiLSTM", "forward"): "autodiff.BiLSTM.forward",
    ("autodiff", "BiLSTM", "backward"): "autodiff.BiLSTM.backward",
    ("autodiff", "Activation", "forward"): "autodiff.Activation.forward",
    ("autodiff", "Activation", "backward"): "autodiff.Activation.backward",
    ("autodiff", "Graph", "loss"): "autodiff.Graph.loss",
    ("autodiff", "Graph", "backward_from_dlogits"): "autodiff.Graph.backward_from_dlogits",
    ("autodiff", "ParameterVector", "zeros"): "autodiff.ParameterVector.zeros",
    ("strategies", "Gem", "transform_gradient"): "strategies.Gem.transform_gradient",
    ("strategies", "Agem", "transform_gradient"): "strategies.Agem.transform_gradient",
    ("strategies", "Lwf", "batch_loss"): "strategies.Lwf.batch_loss",
    ("strategies", "Si", "per_step_observe"): "strategies.Si.per_step_observe",
    ("strategies", "Ewc", "penalty_gradient"): "strategies.penalty_gradient",
    ("strategies", "OnlineEwc", "penalty_gradient"): "strategies.penalty_gradient",
    ("strategies", "Si", "penalty_gradient"): "strategies.penalty_gradient",
}


# Computed GEMM flops per call (elementwise work is not counted). Each
# function gets the wrapped call's positional arguments, self first.
def _dense_fwd(layer, params, x):
    return 2 * x.shape[0] * layer.in_dim * layer.out_dim


def _dense_bwd(layer, params, grads, dy):
    return 4 * dy.shape[0] * layer.in_dim * layer.out_dim  # dW and dx


def _conv_fwd(layer, params, x):
    t_out = x.shape[1] - layer.kernel_size + 1
    return (2 * x.shape[0] * t_out * layer.kernel_size
            * layer.in_channels * layer.out_channels)


def _conv_bwd(layer, params, grads, dy):
    return (4 * dy.shape[0] * dy.shape[1] * layer.kernel_size
            * layer.in_channels * layer.out_channels)


def _lstm_fwd(layer, params, x):
    return 2 * x.shape[0] * x.shape[1] * (layer.in_dim + layer.hidden_dim) * 4 * layer.hidden_dim


def _lstm_bwd(layer, params, grads, dy):
    return 4 * dy.shape[0] * dy.shape[1] * (layer.in_dim + layer.hidden_dim) * 4 * layer.hidden_dim


FLOPS = {
    "autodiff.Dense.forward": _dense_fwd,
    "autodiff.Dense.backward": _dense_bwd,
    "autodiff.Conv1D.forward": _conv_fwd,
    "autodiff.Conv1D.backward": _conv_bwd,
    "autodiff.LSTM.forward": _lstm_fwd,
    "autodiff.LSTM.backward": _lstm_bwd,
}

# counters that look at a call's arguments and result
ROWS = {
    "models.predict": lambda args, result: args[1].shape[0],
    "strategies.compute_fisher": lambda args, result: len(args[2]),
}
PROJECTIONS = ("strategies.gem_project", "strategies.agem_project")


class Tracer:
    """Records spans and counters for one traced workload process."""

    def __init__(self, workload):
        self.workload = workload
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index]
        self._stack = []
        self.flops = {}
        self.rows = {}
        self.changed = {}
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        flops, rows = FLOPS.get(name), ROWS.get(name)
        projection = name in PROJECTIONS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if flops is not None:
                self.flops[name] = self.flops.get(name, 0) + flops(*args)
            if rows is not None:
                self.rows[name] = self.rows.get(name, 0) + rows(args, result)
            if projection:
                self.changed[name] = self.changed.get(name, 0) + (result is not args[0])
            return result

        return traced

    def install(self):
        """Wrap every listed function and method of the imported package."""
        modules = {name: sys.modules[f"seqcl.{name}"] for name in LAYERS}
        package = [m for key, m in sys.modules.items()
                   if key == "seqcl" or key.startswith("seqcl.")]
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(original, name)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name))
            else:
                wrapper = self._wrap(original, name)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self):
        """Per span name: (self seconds, inclusive seconds, calls)."""
        if not self.spans:
            return {}
        table = np.array([s[:3] for s in self.spans], dtype=np.float64)
        parents = np.array([s[3] for s in self.spans], dtype=np.int64)
        nid = table[:, 0].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=len(duration))
        self_time = duration - covered
        n = len(self.names)
        # No traced name calls itself, so summing durations per name gives
        # inclusive time without counting any interval twice.
        return {
            name: (float(s), float(inc), int(c))
            for name, s, inc, c in zip(
                self.names,
                np.bincount(nid, weights=self_time, minlength=n),
                np.bincount(nid, weights=duration, minlength=n),
                np.bincount(nid, minlength=n),
            )
        }

    def write(self, path):
        """Write every span (name, start, end, parent span, workload)."""
        payload = {
            "workload": self.workload,
            "clock": "time.perf_counter seconds",
            "fields": ["name", "start", "end", "parent"],
            "names": self.names,
            "spans": [[self.names[n], s, e, p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
