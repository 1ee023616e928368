"""The benchmark's span tracer wraps betaorbit functions by name; a rename
must not leave one of its targets pointing at nothing, and a counted
function must still be the one every caller reaches."""

import ast
import importlib
import sys
from fractions import Fraction
from pathlib import Path

from betaorbit import dynamics, polys, spectral
from betaorbit.field import IntPolynomial, NumberField
from betaorbit.orbit import TransitionMatrix

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


def test_every_bisection_goes_through_the_counted_bisect_step(monkeypatch):
    # perfbench counts polys.bisect_step; each root the package bisects
    # reaches it, from the caller named in each check below
    callers = []
    step = polys.bisect_step

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return step(*args)

    monkeypatch.setattr(polys, "bisect_step", counting)

    def reached(run) -> set:
        callers.clear()
        run()
        return set(callers)

    golden = IntPolynomial((-1, -1, 1))  # isolated in (0, 2], settled against 1
    assert reached(lambda: NumberField(golden)) == {"__init__"}
    field = NumberField(golden)
    assert reached(field.refine_beta) == {"refine_beta"}
    assert "_power_table" in reached(lambda: dynamics.ExpansionParams(NumberField(golden), 1))
    tetra = NumberField(IntPolynomial((-1, -1, -1, -1, 1)))  # a real conjugate near -0.77
    assert "_refine_conjugate" in reached(tetra.is_pisot)
    matrix = TransitionMatrix.from_rows([[1, 1], [1, 0]])  # primitive
    assert reached(lambda: spectral._perron_root(matrix, Fraction(1, 10 ** 6))) == {"_halve"}
