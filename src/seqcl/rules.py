"""Value rules for configuration keys, the one reader of mappings and the
one decoder of JSON files.

A ``Rule`` checks one value of one key: ``rule(key, value)`` raises
ConfigurationError (or the caller's error class) naming the key, or returns
the value normalised for a constructor. Each owner declares one table, key ->
rule: the architecture in ``models``, the trainer in ``training``, each
strategy in its ``hyperparams``, the config and its ``data`` in ``harness``,
a cohort profile and its domain entries in ``datagen``, a dataset manifest in
``blobio``. ``read`` checks a mapping against its table (type, unknown keys,
missing keys, then each value); every mapping read from outside, and every
``validate``, goes through it. ``load_json`` decodes every JSON file the
package reads, and ``decoding`` covers run files read line by line; each
raises the caller's error class naming the file: ConfigurationError for
inputs, DataFormatError for manifests and ReportError for results.
"""

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

from .errors import ConfigurationError


@dataclass(frozen=True)
class Rule:
    what: str
    accepts: Callable
    normalise: Callable = lambda value: value

    def __call__(self, key, value, error=ConfigurationError):
        if not self.accepts(value):
            raise error(f"{key} must be {self.what}, got {value!r}")
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
OPEN_UNIT = Rule("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1, float)
COUNT = Rule("an int >= 1", lambda v: _is_int(v) and v >= 1, int)
SIZE = Rule("an int >= 0", lambda v: _is_int(v) and v >= 0, int)
SIZE_OR_NULL = Rule("an int >= 0 or null", lambda v: v is None or SIZE.accepts(v),
                    lambda v: None if v is None else int(v))
FLAG = Rule("true or false", lambda v: isinstance(v, bool), bool)
TEXT = Rule("a string", lambda v: isinstance(v, str))
MAPPING = Rule("a mapping", lambda v: isinstance(v, dict))
NONEMPTY_LIST = Rule("a nonempty list", lambda v: isinstance(v, (list, tuple)) and len(v) > 0)
VECTOR = Rule("a list of finite numbers", lambda v: (
    isinstance(v, (list, tuple)) or getattr(v, "ndim", None) == 1) and all(map(_is_number, v)))
VECTOR_OR_NULL = Rule("a list of finite numbers or null",
                      lambda v: v is None or VECTOR.accepts(v))


def required_fields(cls) -> tuple:
    """The fields of dataclass ``cls`` that have no default."""
    return tuple(f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING)


def read(rules, raw, where, required=(), error=ConfigurationError) -> dict:
    """{key: normalised value} of ``raw``, a dict with no key outside ``rules``
    and every key of ``required``, whose values pass their rules (which name
    them ``where.key``); anything else raises ``error``."""
    if not isinstance(raw, dict):
        raise error(f"{where} must be a mapping, got {raw!r}")
    unknown = [key for key in raw if key not in rules]
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    return {key: rule(f"{where}.{key}", raw[key], error)
            for key, rule in rules.items() if key in raw}


@contextmanager
def decoding(path, error):
    """Within it, a failure to read file ``path`` or to decode its text or
    JSON raises ``error`` naming the path."""
    try:
        yield
    except OSError as err:
        raise error(f"cannot read {path}: {err.strerror or err}") from err
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise error(f"{path} is not valid JSON: {err}") from err


def load_json(path, error=ConfigurationError):
    """The JSON value in file ``path``; see ``decoding`` for what raises ``error``."""
    with decoding(path, error):
        return json.loads(Path(path).read_text())
