"""The benchmark traces evcorner by wrapping entry points by name; a
refactor that renames or removes one must fail here, not turn a per-layer
metric into ``missing``."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "evbench" / "spans.py"


def _entry_points():
    # parse rather than import: the benchmark's code is not run here
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS in {SPANS}")


@pytest.mark.parametrize("layer,module,attr", _entry_points())
def test_benchmark_entry_point_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name, None)
        assert owner is not None, f"{module}.{attr} is gone ({layer} layer)"
    assert callable(owner)
