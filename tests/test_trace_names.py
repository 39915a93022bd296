"""The benchmark's tracer sizes spans by qualified name; a name that no longer
resolves records no sizes and zeroes its per-layer metrics without an error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_STAGE = Path(__file__).resolve().parents[1] / "pipebench" / "trace_stage.py"


def _sized_names():
    spec = importlib.util.spec_from_file_location("trace_stage", TRACE_STAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.SIZES)


@pytest.mark.parametrize("name", _sized_names())
def test_sized_trace_name_resolves(name):
    module_name, *attrs = name.split(".")
    obj = importlib.import_module(f"evcoref.{module_name}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{name}: evcoref.{module_name} has no {'.'.join(attrs)}"
        obj = getattr(obj, attr)
    assert callable(obj)
