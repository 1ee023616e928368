"""The benchmark's span tracer wraps betaorbit functions by name; a rename
must not leave one of its targets pointing at nothing."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets() -> dict:
    """TARGETS from perfbench/spans.py, read from its syntax tree (the file
    is parsed, not imported, so nothing in it runs)."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_every_span_target_names_a_betaorbit_attribute():
    targets = _span_targets()
    assert "orbit.TransitionMatrix.to_csv" in targets
    for name, (module, path) in targets.items():
        obj = importlib.import_module(f"betaorbit.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"span target {name}: betaorbit.{module}.{path} is missing"
            obj = getattr(obj, part)
        assert callable(obj), name
