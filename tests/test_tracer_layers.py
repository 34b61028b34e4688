"""The benchmark tracer's LAYERS name functions that exist, so a rename fails here
instead of ending a traced benchmark run in a KeyError."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_layers():
    """perfbench/tracer.py's LAYERS, read without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = traced_layers()


@pytest.mark.parametrize("name, module_name, attr_path", LAYERS, ids=[layer[0] for layer in LAYERS])
def test_traced_layer_resolves(name, module_name, attr_path):
    # resolved as `Tracer.install` does: through getattr to the owner, then its own namespace
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert inspect.isfunction(vars(owner)[attr]), f"{name}: {attr_path} is not a plain function"
