"""Value rules for configuration keys.

A ``Rule`` checks one value of one key: ``rule(key, value)`` raises
ConfigurationError naming the key, or returns the value normalised for a
constructor. Each owner declares one table, key -> rule: the architecture in
``models``, the trainer in ``training``, each strategy in its ``hyperparams``
and the experiment-level keys in ``harness``. Every config check, grid and
``--hyperparams`` values included, is a lookup in those tables.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError


@dataclass(frozen=True)
class Rule:
    what: str
    accepts: Callable
    normalise: Callable = lambda value: value

    def __call__(self, key, value):
        if not self.accepts(value):
            raise ConfigurationError(f"{key} must be {self.what}, got {value!r}")
        return self.normalise(value)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real that converts to a finite float (an int past float range does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def one_of(choices) -> Rule:
    return Rule("one of " + ", ".join(choices),
                lambda v: isinstance(v, str) and v in choices)


def int_range(low, high) -> Rule:
    return Rule(f"an int in {low}..{high}", lambda v: _is_int(v) and low <= v <= high, int)


NON_NEGATIVE = Rule("a finite number >= 0", lambda v: _is_number(v) and v >= 0, float)
POSITIVE = Rule("a finite number > 0", lambda v: _is_number(v) and v > 0, float)
UNIT_INTERVAL = Rule("a number in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1, float)
HALF_OPEN_UNIT = Rule("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1, float)
COUNT = Rule("an int >= 1", lambda v: _is_int(v) and v >= 1, int)
SIZE = Rule("an int >= 0", lambda v: _is_int(v) and v >= 0, int)
SIZE_OR_NULL = Rule("an int >= 0 or null", lambda v: v is None or SIZE.accepts(v),
                    lambda v: None if v is None else int(v))
FLAG = Rule("true or false", lambda v: isinstance(v, bool), bool)


def check(rules, values) -> None:
    """Check every key of ``values`` that ``rules`` names, in table order."""
    for key, rule in rules.items():
        if key in values:
            rule(key, values[key])
