"""Exception taxonomy shared across the package.

Configuration problems (bad specs, bad config files, shape mismatches) are
distinct from data problems (bad labels, malformed on-disk bundles), API
misuse (calling backward before forward), metric edge cases, and strategy
failures (QP non-convergence). The CLI maps these onto exit codes.
"""

import copyreg


class SeqclError(Exception):
    """Base class for everything raised deliberately by this package."""

    def __reduce__(self):
        # rebuilt from args and attributes without calling __init__, whose
        # signature a subclass may change, so every error survives pickling
        # (a forked worker's error reaches its caller pickled)
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigurationError(SeqclError):
    """A spec, config file, or shape contract was violated."""


class DataError(SeqclError):
    """Input data values are invalid (non-binary labels, bad dims...)."""


class DataFormatError(SeqclError):
    """An on-disk manifest/blob bundle is malformed or truncated."""


class UsageError(SeqclError):
    """An API was called out of order or with inconsistent objects."""


class UndefinedMetricError(SeqclError):
    """A metric has no defined value on this input (e.g. a missing class)."""


class StrategyError(SeqclError):
    """A continual-learning strategy failed irrecoverably mid-run."""


class QpNonConvergenceError(StrategyError):
    """The dual QP solver ran out of iterations. Carries the residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"dual QP failed to reach tolerance after {iterations} iterations "
            f"(KKT residual {residual:.3e})"
        )


class ReportError(SeqclError):
    """Results on disk cannot be aggregated into a report."""
