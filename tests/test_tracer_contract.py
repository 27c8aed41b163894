"""Every name the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` lists the traced layer functions by dotted name;
``perfbench/run.py --trace 1`` stops with "no binding" when one of them is
renamed or removed. This check keeps that contract in the fast test suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

import shortcut_forge.cli  # noqa: F401  (loads every package module)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import tracer
finally:
    sys.path.pop(0)


@pytest.mark.parametrize("name", tracer.SPANS + tracer.COUNTERS)
def test_traced_name_resolves(name):
    module, attr = name.split(".", 1)
    obj = importlib.import_module(f"shortcut_forge.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
