"""The names the benchmark tracer wraps all exist in griglab.

``bench/tracer.py`` wraps functions and methods by name when a run asks for
``--trace 1``; a renamed or deleted target would fail only there.  Its
source is executed here, not imported, so no bytecode is written beside it.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    mod = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def module(name):
    return importlib.import_module(f"griglab.{name}")


def test_span_functions_exist(tracer):
    for mod, names in tracer.SPAN_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module(mod), name, None)), f"{mod}.{name}"


def test_span_methods_and_hot_muls_are_defined_on_their_classes(tracer):
    for span, (mod, cls, meth) in tracer.SPAN_METHODS.items():
        assert meth in vars(getattr(module(mod), cls)), span
    for name, (mod, cls) in tracer.HOT_MULS.items():
        assert "mul" in vars(getattr(module(mod), cls)), name


def test_pool_size_exists():
    assert callable(module("wreath").pool_size)
