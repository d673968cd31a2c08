"""The benchmark's traced functions exist, so a deletion fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, name", _targets(), ids=lambda part: part)
def test_benchmark_trace_target_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), \
        f"{module}.{name} is traced by the benchmark but does not exist"
