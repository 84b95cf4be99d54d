"""The benchmark's tracer patches rsgame functions by name at the bindings
their callers use; each listed binding must exist under that name."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_bindings() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.BINDINGS.items() for name in names]


BINDINGS = traced_bindings()


@pytest.mark.parametrize("module, name", BINDINGS, ids=[f"{m}.{n}" for m, n in BINDINGS])
def test_traced_binding_is_a_module_attribute(module, name):
    assert getattr(importlib.import_module(module), name).__name__ == name
