"""The benchmark's per-layer metrics name pinset functions by span, and its
tracer wraps the public functions and methods of pinset's modules; a span
whose function was renamed or removed would only read zero, with no error.
So every span in ``perfbench/harness.py``'s ``LAYER_TIMES`` and
``LAYER_COUNTS`` must name a function or method that the tracer wraps."""

import importlib
import sys
from pathlib import Path

import pytest

from pinset import blocks, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``harness`` and ``tracer`` modules, imported from the
    benchmark's directory without writing bytecode there."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("harness"), importlib.import_module("tracer")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write


def unwrapped_spans(harness, tracer) -> list[str]:
    """The spans that the harness lists and the tracer would not wrap."""
    wrapped = {
        name
        for short in tracer.TRACED_MODULES
        for _, _, name, _ in tracer._targets(importlib.import_module(f"pinset.{short}"), short)
    }
    listed = [span for span, _ in harness.LAYER_TIMES]
    listed += [span for spans in harness.LAYER_COUNTS.values() for span in spans]
    return [span for span in listed if span not in wrapped]


def test_every_benchmarked_span_is_wrapped(perfbench):
    assert unwrapped_spans(*perfbench) == []


@pytest.mark.parametrize(
    "owner, attribute, span",
    [(train, "evaluate", "train.evaluate"), (blocks.Mlp, "forward", "blocks.Mlp.forward")],
)
def test_a_removed_function_is_reported(perfbench, monkeypatch, owner, attribute, span):
    monkeypatch.delattr(owner, attribute)
    assert unwrapped_spans(*perfbench) == [span]
