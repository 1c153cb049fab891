"""Every entry point a traced ``swbench`` run patches still resolves.

``swbench/tracing.py`` wraps each layer's public callables by module and
attribute name; a rename under ``src/`` would otherwise surface only when a
traced benchmark run fails to install its tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "swbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("swbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "layer, where, attr",
    tracing.LAYER_ENTRY_POINTS,
    ids=[f"{where}.{attr}" for _, where, attr in tracing.LAYER_ENTRY_POINTS],
)
def test_entry_point_resolves(layer, where, attr):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        # The tracer patches the class's own attribute, not an inherited one.
        assert attr in vars(getattr(owner, class_name)), layer
    else:
        assert callable(getattr(owner, attr, None)), layer
