"""The result and working records: construction by position and keyword,
defaults, and the value semantics of the two immutable ones."""

from fractions import Fraction

import pytest

from betaorbit.dynamics import ExpansionRun
from betaorbit.errors import DegreeZero
from betaorbit.field import IntPolynomial, PisotCertificate
from betaorbit.orbit import OrbitGraph, TransitionMatrix
from betaorbit.spacing import GapStats, SeparationReport, SpectrumLevel
from betaorbit.spectral import (DimensionResult, DominanceReport, PerronResult, _Block,
                                _halve, _PerronRoot, _Structure)

# record -> its fields in order, and the defaults of the trailing ones
RECORDS = {
    PisotCertificate: ("status beta_lower beta_upper max_conjugate_modulus_upper budget", {}),
    DominanceReport: ("status strongly_connected cycle_gcd", {}),
    PerronResult: ("alpha eigenvector char_poly", {}),
    DimensionResult: ("dim status", {}),
    _Structure: ("comps blocks acyclic", {}),
    GapStats: ("min_gap max_gap gap_histogram min_gap_element max_gap_element",
               {"min_gap_element": None, "max_gap_element": None}),
    SeparationReport: ("m n_max level_counts min_gaps min_gap_enclosures stabilized "
                       "delta_upper_bound pisot", {}),
    SpectrumLevel: ("n values keys slack", {}),
    OrbitGraph: ("params states edges discovery_depth", {}),
    _Block: ("states period matrix classes", {}),
    ExpansionRun: ("digits preperiod_length period_length states_visited",
                   {"states_visited": []}),
    TransitionMatrix: ("succ", {}),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_a_record_takes_its_fields_by_position_and_by_keyword(record):
    names, defaults = RECORDS[record]
    names = names.split()
    values = [object() for _ in names]
    for built in (record(*values), record(**dict(zip(names, values)))):
        assert [getattr(built, n) for n in names] == values
    required = [n for n in names if n not in defaults]
    built = record(*values[:len(required)])
    assert {n: getattr(built, n) for n in defaults} == defaults


def test_named_tuple_records_compare_equal_to_their_fields():
    report = DominanceReport(status="s", strongly_connected=True, cycle_gcd=1)
    assert report == ("s", True, 1) and hash(report) == hash(("s", True, 1))
    with pytest.raises(AttributeError):
        report.status = "t"


def test_a_default_list_is_not_shared():
    a, b = ExpansionRun((), 0, None), ExpansionRun((), 0, None)
    a.states_visited.append(1)
    assert b.states_visited == []


def test_a_perron_root_defaults_to_period_one_and_halves_by_placement():
    # sqrt(2) as the root of z^2 - 2 at period 1 and of z - 2 at period 2
    for root in (_PerronRoot((-2, 0, 1), [Fraction(1), Fraction(2)]),
                 _PerronRoot((-2, 1), [Fraction(1), Fraction(3)], 2)):
        assert root.w[3] == -1  # g < 0 at the left end of alpha^p's interval
        # 4/3 < sqrt(2) < 3/2: halving [1, 5/3] at 4/3 keeps the right half,
        # halving [1, 2] at 3/2 the left one; a midpoint x <= 0 lies below
        assert _halve(root, 3, 5, 3) == (8, 10, 6) and _halve(root, 1, 2, 1) == (2, 3, 2)
        assert _halve(root, -2, 2, 1) == (0, 4, 2)
    assert _PerronRoot((-2, 0, 1), [Fraction(1), Fraction(2)]).p == 1
    assert vars(root).keys() == {"g", "w", "p"}


@pytest.mark.parametrize("coeffs, error, message", [
    ((-1, Fraction(1, 2), 1), ValueError, "coefficient 1/2 is not an integer"),
    ((-1, 1.5, 1), ValueError, "coefficient 1.5 is not an integer"),
    ((-1, -1, 2), ValueError, "defining polynomial must be monic"),
    ((1,), DegreeZero, "defining polynomial must have degree >= 1"),
    ((), DegreeZero, "defining polynomial must have degree >= 1"),
])
def test_int_polynomial_validates_its_coefficients(coeffs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        IntPolynomial(coeffs)


def test_int_polynomial_reads_integral_coefficients_as_ints():
    p = IntPolynomial([Fraction(-1), -1.0, True])
    assert p.coeffs == (-1, -1, 1) and all(type(c) is int for c in p.coeffs)
    assert p == IntPolynomial(coeffs=(-1, -1, 1))


@pytest.mark.parametrize("make, other", [
    (lambda: IntPolynomial((-1, -1, 1)), IntPolynomial((-2, 0, 1))),
    (lambda: TransitionMatrix((((0, 1), (1, 1)), ((0, 1),))), TransitionMatrix((((0, 2),),))),
], ids=["IntPolynomial", "TransitionMatrix"])
def test_immutable_records_are_values(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and a != object() and {a: 1}[b] == 1
    field = "coeffs" if isinstance(a, IntPolynomial) else "succ"
    before = getattr(a, field)
    for change in (lambda: setattr(a, field, ()), lambda: setattr(a, "extra", 1),
                   lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(a, field) == before and a == b
    assert repr(a) == f"{type(a).__name__}({field}={before!r})"


def test_a_transition_matrix_memo_does_not_change_its_value():
    from betaorbit.spectral import check_dominance
    a = TransitionMatrix((((0, 1), (1, 1)), ((0, 1),)))
    b = TransitionMatrix.from_rows([[1, 1], [1, 0]])
    check_dominance(a)  # keeps the SCC structure in a's __dict__
    assert "_spectral_structure" in vars(a) and a == b and hash(a) == hash(b)
