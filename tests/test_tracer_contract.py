"""The benchmark tracer's view of the package.

``perfbench/tracer.py`` wraps package functions by module attribute and
methods through their class's own ``__dict__``. A rename or a moved method
breaks the traced benchmark; this check catches it in the unit suite. The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    missing = [
        f"{mod}.{attr}" for mod, attr in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"seqcl.{mod}"), attr, None))
    ]
    assert not missing, f"traced functions missing from the package: {missing}"


def test_every_traced_method_is_defined_in_its_own_class(tracer):
    missing = []
    for mod, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"seqcl.{mod}"), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing, f"traced methods not in their class bodies: {missing}"

