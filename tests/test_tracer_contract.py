"""The benchmark tracer's patch targets exist in framesum.

``perfbench/spans.py`` wraps framesum functions and methods by name.  A
refactor that renames or moves one of them should fail here, not later in a
traced benchmark run.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # compiled from source, not imported, so no bytecode is written next to it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module,cls,method", [(m, c, a) for m, c, a, _ in spans.METHODS])
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls, None)
    assert isinstance(owner, type), f"{module}.{cls}"
    # the tracer reads the method from the class's own namespace
    assert callable(vars(owner).get(method)), f"{module}.{cls}.{method}"
