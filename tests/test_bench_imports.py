"""The benchmark under `bench/` imports package functions by name: the
tracer wraps a fixed list of them, and the workloads call a few more. A
rename in the package would break the benchmark only when it runs, so
check here, without running it, that every name it relies on still exists."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(autouse=True)
def bench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_workloads_import():
    importlib.import_module("workloads")


def test_traced_functions_are_module_attributes():
    tracing = importlib.import_module("tracing")
    traced = [*tracing.SPANNED, *tracing.COUNTED, *tracing.YIELDING]
    assert traced
    for fn in traced:
        module = importlib.import_module(fn.__module__)
        assert getattr(module, fn.__name__, None) is fn, tracing.layer_name(fn)
