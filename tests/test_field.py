import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from betaorbit import IntPolynomial, NumberField, polys, sort_elements
from betaorbit.errors import (
    DegreeZero,
    DivisionByZero,
    NoRealRootAboveOne,
    NotSquarefree,
    RefinementBudgetExceeded,
)
from rational_oracles import evaluate, inverse as oracle_inverse, normalize

F = Fraction


# === construction ===

def test_golden_enclosure(golden):
    lo, hi = golden.beta.approx(F(1, 10 ** 6))
    assert F(16180, 10000) <= lo and hi <= F(16181, 10000)


def test_linear_field_is_exact(base2):
    assert base2.degree == 1
    assert base2.beta == 2
    assert base2.beta_interval() == (F(2), F(2))


def test_quintic_beta_value(quintic):
    # reported value 1.53416 is the 5-decimal rounding of 1.5341577...
    lo, hi = quintic.beta.approx(F(1, 10 ** 6))
    assert abs((lo + hi) / 2 - F(153416, 100000)) <= F(1, 10 ** 5)


def test_rejects_degree_zero():
    with pytest.raises(DegreeZero):
        IntPolynomial((1,))


def test_rejects_non_monic():
    with pytest.raises(ValueError):
        IntPolynomial((-1, 2))


def test_rejects_non_integer_coefficients():
    for coeffs in ((-2.5, 0, 1), (F(-3, 2), -1, 1)):
        with pytest.raises(ValueError, match="not an integer"):
            IntPolynomial(coeffs)
    with pytest.raises(ValueError):
        NumberField([-2.5, 0, 1])
    assert IntPolynomial((-2.0, F(0), 1)).coeffs == (-2, 0, 1)
    assert str(IntPolynomial((F(-1), -1, 1.0))) == "z^2 - z - 1"


def test_rejects_non_squarefree():
    with pytest.raises(NotSquarefree, match="shares a root with its derivative"):
        NumberField(IntPolynomial((1, -2, 1)))  # (z-1)^2


@pytest.mark.parametrize("coeffs", [(-1, -1, 1), (-1, -1, -1, -1, 0, 1)], ids=["golden", "quintic"])
def test_construction_builds_one_sturm_chain(coeffs, monkeypatch):
    # isolation checks squarefreeness on the chain it builds anyway; with no
    # integer root to deflate, that is the only chain
    calls = []
    chain = polys.sturm_chain_int
    monkeypatch.setattr(polys, "sturm_chain_int", lambda p: calls.append(tuple(p)) or chain(p))
    NumberField(IntPolynomial(coeffs))
    assert calls == [coeffs]


def test_rejects_no_root_above_one():
    with pytest.raises(NoRealRootAboveOne):
        NumberField(IntPolynomial((1, 1)))  # root -1
    with pytest.raises(NoRealRootAboveOne):
        NumberField(IntPolynomial((-1, -1, 1)), root_rank=1)  # second root ~ -0.618
    with pytest.raises(NoRealRootAboveOne):
        NumberField(IntPolynomial((-1, -1, 1)), root_rank=5)


def test_root_rank_selects_smaller_root():
    # z^2 - 5z + 6 = (z-2)(z-3): rank 0 -> 3, rank 1 -> 2; the generator
    # stays the class of z, so the rank shows up in the enclosure and in
    # evaluation, not in the coefficient vector
    f0 = NumberField(IntPolynomial((6, -5, 1)), root_rank=0)
    f1 = NumberField(IntPolynomial((6, -5, 1)), root_rank=1)
    assert f0.beta_interval() == (F(3), F(3))
    assert f1.beta_interval() == (F(2), F(2))
    assert f0.evaluates_to_zero(f0.beta - 3)
    assert f1.evaluates_to_zero(f1.beta - 2)


# === arithmetic ===

def test_golden_identities(golden):
    b = golden.beta
    assert b * b == b + 1
    assert b + (-b) == golden.zero
    assert b.inverse() == b - 1
    assert golden.one.inverse() == golden.one


def test_quintic_reduction(quintic):
    b = quintic.beta
    assert b ** 2 * b ** 3 == b ** 3 + b ** 2 + b + 1


def test_quintic_inverse_roundtrip(quintic):
    b = quintic.beta
    x = (b * b - 1).inverse()
    assert (b * b - 1) * x == quintic.one


def test_inverse_of_zero_raises(golden):
    with pytest.raises(DivisionByZero):
        golden.zero.inverse()


def test_division_and_pow(golden):
    b = golden.beta
    assert (b / b) == golden.one
    assert b ** -2 == (b * b).inverse()
    assert b ** 0 == golden.one


def test_reflected_subtraction_and_division(golden):
    b = golden.beta
    assert 3 - b == golden.from_rational(3) - b == 2 - (b - 1)
    assert 3 / b == 3 * (b - 1)  # 1/b = b - 1
    assert F(1, 2) / b == (b - 1) / 2


def test_non_strict_order(golden):
    b = golden.beta
    assert b <= b and b >= b
    assert b - 1 <= 1 <= b and b >= 1 >= b - 1
    assert not b <= 1 and not b - 1 >= 1


def test_a_string_operand_is_refused(golden):
    b = golden.beta
    with pytest.raises(TypeError, match="cannot compare FieldElement with str"):
        b.compare("a")
    with pytest.raises(TypeError):
        b + "a"


def test_approx_needs_a_positive_width_and_takes_a_float(golden):
    b = golden.beta
    with pytest.raises(ValueError, match="eps must be positive"):
        b.approx(0)
    lo, hi = b.approx(0.001)
    assert lo < b < hi and hi - lo <= F(0.001)


def test_cross_field_operations_rejected(golden, base2):
    with pytest.raises(ValueError):
        golden.beta + base2.beta


# === ordering and approximation ===

def test_compare_examples(golden, quintic):
    assert golden.beta.compare(F(3, 2)) > 0
    assert (golden.beta ** 2).compare(golden.beta + 1) == 0
    assert quintic.beta.compare(F(14, 9)) < 0


def test_approx_examples(golden, quintic):
    lo, hi = golden.zero.approx(F(1, 10))
    assert (lo, hi) == (F(0), F(0))
    b = quintic.beta
    x = (b * b - 1).inverse()
    lo, hi = x.approx(F(1, 10 ** 3))
    # exact value 0.7387488... (equals 1/(1.53416^2 - 1) from the bisected base)
    assert lo <= F(73875, 100000) <= hi
    assert hi - lo <= F(1, 10 ** 3)


def test_compare_consistent_with_approx(golden):
    b = golden.beta
    pairs = [(golden.one, b), (golden.zero, b - 1), (b - 1, golden.one)]
    for small, big in pairs:
        assert small.compare(big) < 0
        slo, shi = small.approx(F(1, 10 ** 9))
        blo, bhi = big.approx(F(1, 10 ** 9))
        assert shi < blo


def test_float_conversion(golden):
    assert abs(float(golden.beta) - 1.6180339887) < 1e-9


def test_sort_elements(golden):
    b = golden.beta
    elems = [b, golden.zero, b - 1, golden.one, b + 1]
    ordered = sort_elements(elems)
    assert ordered == [golden.zero, b - 1, golden.one, b, b + 1]


def test_reducible_modulus_equal_at_root_raises():
    # (z-2)(z+1) = z^2 - z - 2: z and 2 differ as vectors but agree at the root
    field = NumberField(IntPolynomial((-2, -1, 1)))
    z = field.beta
    two = field.from_rational(2)
    assert z != two
    assert field.evaluates_to_zero(z - two)
    with pytest.raises(RefinementBudgetExceeded):
        z.compare(two)


# === randomized exact identities (spec-level sample counts) ===

def _random_element(field, rng):
    return field.element([F(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(field.degree)])


@pytest.mark.parametrize("minpoly", [(-1, -1, 1), (-1, -1, -1, -1, 0, 1), (-2, 1)])
def test_field_axioms_random(minpoly):
    field = NumberField(IntPolynomial(minpoly))
    rng = random.Random(20240817)
    for _ in range(1000):
        a = _random_element(field, rng)
        b = _random_element(field, rng)
        c = _random_element(field, rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == field.zero


@pytest.mark.parametrize("minpoly", [(-1, -1, 1), (-1, -1, -1, -1, 0, 1)])
def test_inverse_roundtrip_random(minpoly):
    field = NumberField(IntPolynomial(minpoly))
    rng = random.Random(7)
    done = 0
    while done < 1000:
        a = _random_element(field, rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == field.one
        done += 1


def test_total_order_random(golden):
    rng = random.Random(99)
    for _ in range(1000):
        a = _random_element(golden, rng)
        b = _random_element(golden, rng)
        c = _random_element(golden, rng)
        sab, sba = a.compare(b), b.compare(a)
        assert sab == -sba
        assert (sab == 0) == (a == b)
        if a.compare(b) <= 0 and b.compare(c) <= 0:
            assert a.compare(c) <= 0


# === differential: integer representation vs a Fraction-vector reference ===

def _horner_ref(p, lo, hi):
    """Interval Horner in Fraction arithmetic."""
    alo = ahi = F(0)
    for c in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def _ref_mul(field, a, b):
    """Product of two Fraction coefficient vectors, reduced by the power rows."""
    d = field.degree
    conv = [F(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = conv[:d]
    for j in range(d, 2 * d - 1):
        for t in range(d):
            out[t] += conv[j] * field._power_rows[j - d][t]
    return tuple(out)


def _ladder(field):
    """The field's ladder as Fraction intervals, coarse to fine."""
    return [(F(a, e), F(b, e)) for a, b, e in field._rungs]


def _ref_compare(field, a, b):
    """Sign of a - b by the Fraction-coefficient route over the shared
    ladder, walked from the coarsest rung."""
    p = normalize([x - y for x, y in zip(a, b)])
    if not p:
        return 0
    for lo, hi in _ladder(field):
        vlo, vhi = _horner_ref(p, lo, hi)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1
    while True:
        lo, hi = field.refine_beta()
        vlo, vhi = _horner_ref(p, lo, hi)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1


def _ref_approx(field, a, eps):
    p = normalize(a)
    if not p:
        return F(0), F(0)
    for lo, hi in _ladder(field):
        vlo, vhi = _horner_ref(p, lo, hi)
        if vhi - vlo <= eps:
            return vlo, vhi
    while True:
        lo, hi = field.refine_beta()
        vlo, vhi = _horner_ref(p, lo, hi)
        if vhi - vlo <= eps:
            return vlo, vhi


_DIFF_FIELDS = [NumberField(IntPolynomial(p)) for p in
                ((-1, -1, 1), (-1, -1, -1, -1, 0, 1), (-2, 1), (-1, -1, 0, 1),
                 (-1, 0, -1, 1), (-1, -1, -1, -1, 1))]
_coeff = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=30))


@st.composite
def _vectors(draw):
    field = draw(st.sampled_from(_DIFF_FIELDS))
    vec = st.lists(_coeff, min_size=field.degree, max_size=field.degree)
    return field, tuple(map(F, draw(vec))), tuple(map(F, draw(vec)))


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert all(type(n) is int for n in x.nums)


@settings(max_examples=300, deadline=None)
@given(_vectors())
def test_field_ops_match_fraction_reference(case):
    field, a, b = case
    x, y = field.element(a), field.element(b)
    assert x.coeffs == a and y.coeffs == b
    for got, want in [(x + y, tuple(p + q for p, q in zip(a, b))),
                      (x - y, tuple(p - q for p, q in zip(a, b))),
                      (-x, tuple(-p for p in a)),
                      (x * y, _ref_mul(field, a, b))]:
        _assert_canonical(got)
        assert got.coeffs == want
        assert got == field.element(want) and hash(got) == hash(field.element(want))
    assert (x == y) == (a == b)
    assert x.compare(y) == _ref_compare(field, a, b)
    assert x.compare(b[0]) == _ref_compare(field, a, (b[0],) + (F(0),) * (field.degree - 1))
    if not x.is_zero():
        inv = x.inverse()
        _assert_canonical(inv)
        assert _ref_mul(field, inv.coeffs, a) == (F(1),) + (F(0),) * (field.degree - 1)
    for eps in (F(1, 10), F(1, 10 ** 7), F(1, 10 ** 30)):
        assert x.approx(eps) == _ref_approx(field, a, eps)


# the minimal polynomials of conftest: golden, quintic, base 2, plastic,
# cubic, tetranacci, and the non-Pisot sqrt2 and sqrt3
_CONFTEST_POLYS = ((-1, -1, 1), (-1, -1, -1, -1, 0, 1), (-2, 1), (-1, -1, 0, 1),
                   (-1, 0, -1, 1), (-1, -1, -1, -1, 1), (-2, 0, 1), (-3, 0, 1))
# widths from 1/2 down to about 1e-40
_eps = st.one_of(
    st.integers(1, 132).map(lambda k: F(1, 2 ** k)),
    st.integers(1, 40).map(lambda k: F(1, 10 ** k)),
    st.tuples(st.integers(1, 9), st.integers(1, 40)).map(lambda t: F(t[0], 2 * 10 ** t[1])),
)


@st.composite
def _approx_sessions(draw):
    """A field and a run of approx, refine_beta and compare calls on it; the
    approx calls share a few widths, so the rung hints carry over."""
    poly = draw(st.sampled_from(_CONFTEST_POLYS))
    d = len(poly) - 1
    vec = st.one_of(st.just((F(0),) * d),
                    _coeff.map(lambda c: (F(c),) + (F(0),) * (d - 1)),
                    st.lists(_coeff, min_size=d, max_size=d).map(lambda v: tuple(map(F, v))))
    widths = draw(st.lists(_eps, min_size=1, max_size=3))
    op = st.one_of(st.tuples(st.just("approx"), vec, st.sampled_from(widths)),
                   st.tuples(st.just("refine"), st.integers(1, 12)),
                   st.tuples(st.just("compare"), vec, vec))
    return poly, draw(st.lists(op, min_size=1, max_size=14))


@settings(max_examples=150, deadline=None)
@given(_approx_sessions())
def test_approx_first_fit_matches_the_ladder_walk(session):
    # approx and compare against the coarse-to-fine walks of _ref_approx
    # and _ref_compare on a twin field that sees the same calls: equal
    # intervals and signs, equal refine_beta calls, equal ladders after
    # every step
    poly, ops = session
    new, old = NumberField(IntPolynomial(poly)), NumberField(IntPolynomial(poly))
    refines = {new: 0, old: 0}
    for field in (new, old):
        def counting_refine(_field=field, _refine=field.refine_beta):
            refines[_field] += 1
            return _refine()
        field.refine_beta = counting_refine
    for op in ops:
        if op[0] == "approx":
            _, a, eps = op
            x = new.element(a)
            assert x.approx(eps) == _ref_approx(old, a, eps)
        elif op[0] == "refine":
            for _ in range(op[1]):
                assert new.refine_beta() == old.refine_beta()
        else:
            _, a, b = op
            assert new.element(a).compare(new.element(b)) == _ref_compare(old, a, b)
        assert refines[new] == refines[old]
        assert new._rungs == old._rungs
        _assert_ladder_shape(new)


def _assert_ladder_shape(field):
    """Bisection halves the width, so each rung is exactly 256 times
    narrower than the one before, and the current enclosure, always last,
    is a rung as soon as it is that narrow."""
    ladder = _ladder(field)
    assert ladder[-1] == field.beta_interval()
    n = field._ladder_len
    assert len(ladder) in (n, n + 1)
    widths = [hi - lo for lo, hi in ladder]
    assert all(widths[i - 1] == 256 * widths[i] for i in range(1, n))
    if len(ladder) > n:
        assert widths[n - 1] < 256 * widths[n]


def test_approx_builds_only_the_returned_pair(quintic, monkeypatch):
    b = quintic.beta
    elems = [b, b * b - 1, (b + F(2, 3)) * F(-5, 7), quintic.from_rational(F(4, 9))]
    eps = F(1, 10 ** 9)
    for x in elems:
        x.approx(eps / 1000)  # the ladder now fits eps without refining
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in elems:
        x.approx(eps)
    assert count[0] == 2 * len(elems)


def test_orbit_approx_makes_about_two_kernel_evaluations(monkeypatch, tmp_path, capsys):
    # quintic x = 1/3 (k = 1372): a search that starts at the rung the last
    # call with the same eps returned mostly evaluates that rung and the one
    # before it; walking the ladder from the coarsest rung made about 4.3
    # (the counter sits on approx_int, the integer core that both approx and
    # the orbit path call)
    from betaorbit.cli import main
    from betaorbit.field import FieldElement
    counts = {"approx": 0, "kernel": 0}
    depth = [0]
    approx, kernel = FieldElement.approx_int, polys.horner_interval_int

    def counting_approx(self, *args):
        counts["approx"] += 1
        depth[0] += 1
        try:
            return approx(self, *args)
        finally:
            depth[0] -= 1

    def counting_kernel(*args):
        if depth[0]:
            counts["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(FieldElement, "approx_int", counting_approx)
    monkeypatch.setattr(polys, "horner_interval_int", counting_kernel)
    argv = ["orbit", "--minpoly", "-1,-1,-1,-1,0,1", "-m", "1", "-x", "1/3",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("k = 1372\n")
    # one label midpoint per state, shared by the table and the DOT file,
    # and one for the right endpoint m/(beta-1); the digits read beta*x
    # from ExpansionParams' own table of powers of beta, not from approx_int
    assert counts["approx"] == 1372 + 1
    assert counts["kernel"] <= 2.2 * counts["approx"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=5, max_size=5), st.integers(1, 42))
@example([0, 0, 0, 0, 0], 1)
@example([-4, 5, 0, 0, 0], 7)
@example([6, -1, 0, -3, 0], 2)
def test_json_coefficients_match_fraction_str(quintic, nums, den):
    # zero coefficients, negative numerators and den = 1 (after reduction)
    # all print as str(Fraction) does
    coeffs = [Fraction(n, den) for n in nums]
    assert quintic.element(coeffs).to_json() == {"coeffs": [str(c) for c in coeffs]}


def test_reduced_form_is_unique(golden):
    x = golden.element([F(2, 4), F(6, 8)])
    y = golden.from_rational(F(1, 2)) + golden.element([0, F(3, 4)])
    assert (x.nums, x.den) == (y.nums, y.den) == ((2, 3), 4)
    assert x == y and hash(x) == hash(y)
    zero = golden.element([F(3, 5), 1]) - golden.element([F(3, 5), 1])
    assert (zero.nums, zero.den) == ((0, 0), 1) and zero == golden.zero == 0
    assert hash(zero) == hash(golden.zero)
    assert golden.from_rational(F(-6, 4)) == golden.element([F(-3, 2)]) == F(-3, 2)


def test_compare_builds_no_fraction_outside_the_kernel(golden, monkeypatch):
    # compare reads signs from the integer kernel's numerators and builds no
    # Fraction at all
    counts = {"fraction": 0, "kernel": 0}
    new, kernel = Fraction.__new__, polys.horner_interval_int

    def counting_new(cls, *args, **kwargs):
        counts["fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    b = golden.beta
    x, y, q = b * F(1, 3), (b + 1) * F(2, 7), F(5, 3)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(polys, "horner_interval_int", counting_kernel)
    assert [x.compare(y), y.compare(x), x.compare(x), x.compare(1), x.compare(q)] == [-1, 1, 0, -1, -1]
    assert counts["kernel"] > 0 and counts["fraction"] == 0


def test_reducible_modulus_zero_test_after_65_refinements():
    # (z^2 - z - 1)(z^2 + 1): b^2 and b + 1 differ as vectors but agree at
    # the golden root, which is irrational, so every refinement is real work
    field = NumberField(IntPolynomial((-1, -1, 0, -1, 1)))
    refines = [0]
    refine = field.refine_beta

    def counting_refine():
        refines[0] += 1
        return refine()

    field.refine_beta = counting_refine
    b = field.beta
    with pytest.raises(RefinementBudgetExceeded, match="reducible"):
        (b * b).compare(b + 1)
    assert refines[0] == 65


# === differential: the Bareiss inverse vs the rational Euclid oracle ===

# z^2 - z - 2 = (z - 2)(z + 1) and z^3 - 2z^2 - z + 2 = (z - 2)(z - 1)(z + 1),
# each presented at its root 2, with the proper factors whose multiples are
# the zero divisors of the quotient ring
_REDUCIBLE = [(NumberField(IntPolynomial((-2, -1, 1))), [(-2, 1), (1, 1)]),
              (NumberField(IntPolynomial((2, -1, -2, 1))),
               [(-2, 1), (-1, 1), (1, 1), (2, -3, 1), (-2, -1, 1), (-1, 0, 1)])]
_INVERSE_FIELDS = [NumberField(IntPolynomial(p)) for p in _CONFTEST_POLYS] \
    + [f for f, _ in _REDUCIBLE]


def _inverse_or_message(x, invert):
    try:
        y = invert(x)
    except DivisionByZero as exc:
        return str(exc)
    _assert_canonical(y)
    return y.nums, y.den


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_INVERSE_FIELDS).flatmap(lambda f: st.tuples(
    st.just(f), st.lists(_coeff, min_size=f.degree, max_size=f.degree))))
@example((_REDUCIBLE[0][0], [1, 1]))  # b + 1, a zero divisor
@example((_INVERSE_FIELDS[2], [F(-3, 4)]))  # degree 1
def test_inverse_matches_euclid_oracle(case):
    field, vec = case
    x = field.element(vec)
    if x.is_zero():
        with pytest.raises(DivisionByZero, match="inverse of zero"):
            x.inverse()
        return
    assert _inverse_or_message(x, type(x).inverse) == _inverse_or_message(x, oracle_inverse)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_REDUCIBLE).flatmap(lambda fr: st.tuples(
    st.just(fr[0]), st.sampled_from(fr[1]),
    st.lists(_coeff, min_size=fr[0].degree, max_size=fr[0].degree))))
def test_zero_divisors_raise_like_the_euclid_oracle(case):
    field, factor, vec = case
    x = field.element(factor) * field.element(vec)
    if x.is_zero():
        return
    message = _inverse_or_message(x, oracle_inverse)
    assert isinstance(message, str) and message.startswith("zero divisor")
    assert _inverse_or_message(x, type(x).inverse) == message



@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_INVERSE_FIELDS).flatmap(lambda f: st.tuples(
    st.just(f), _coeff.filter(bool), st.lists(_coeff, min_size=f.degree, max_size=f.degree))))
@example((_INVERSE_FIELDS[1], -3, [F(1, 2), 1, 0, 0, 0]))  # a negative rational on the quintic
def test_rational_inverse_matches_the_bareiss_path(case):
    # a rational r skips the elimination; r*y for y outside Q takes the
    # Bareiss path, and (r*y)^-1 * y = r^-1 (r*y is invertible exactly when y is)
    field, r, vec = case
    x, y = field.from_rational(r), field.element(vec)
    inv = x.inverse()
    _assert_canonical(inv)
    assert inv == field.from_rational(1 / F(r))
    assert _inverse_or_message(x, type(x).inverse) == _inverse_or_message(x, oracle_inverse)
    if any(y.nums[1:]):
        message = _inverse_or_message(y, type(y).inverse)
        if isinstance(message, str):  # y is a zero divisor of a reducible modulus, so is r*y
            assert _inverse_or_message(x * y, type(x).inverse) == message
        else:
            assert (x * y).inverse() * y == inv


# === random fields: construction succeeds and encloses the root ===

def test_random_small_fields_enclose_their_root():
    rng = random.Random(1311)
    from betaorbit import polys
    found = 0
    while found < 25:
        deg = rng.randint(1, 6)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(deg)) + (1,)
        try:
            field = NumberField(IntPolynomial(coeffs))
        except (NotSquarefree, NoRealRootAboveOne, DegreeZero):
            continue
        found += 1
        lo, hi = field.beta_interval()
        width = hi - lo
        mid = (lo + hi) / 2
        for _ in range(40):
            field.refine_beta()
        tlo, thi = field.beta_interval()
        assert tlo - width <= mid <= thi + width
        plo, phi = polys.evaluate_interval(field.min_poly.coeffs, tlo, thi)
        assert plo <= 0 <= phi


# === Pisot certification ===

def test_pisot_examples(golden, quintic, base2):
    assert golden.is_pisot().is_pisot
    assert quintic.is_pisot().is_pisot
    assert base2.is_pisot().is_pisot
    cert = golden.is_pisot()
    assert cert.beta_lower > 1
    assert cert.max_conjugate_modulus_upper < 1


def test_not_pisot_sqrt3():
    field = NumberField(IntPolynomial((-3, 0, 1)))
    cert = field.is_pisot()
    assert cert.status == "not_pisot"
    assert not cert.is_pisot


def test_pisot_unknown_on_salem_like():
    # z^4 - z^3 - z^2 - z + 1 has a conjugate pair exactly on the unit circle,
    # so no finite refinement can resolve the comparison with modulus 1
    field = NumberField(IntPolynomial((1, -1, -1, -1, 1)))
    cert = field.is_pisot(budget=12)
    assert cert.status == "unknown"


def test_pisot_budget_above_the_halving_bound_is_refused_before_refining(monkeypatch):
    field = NumberField(IntPolynomial((1, -1, -1, -1, 1)))
    monkeypatch.setattr(NumberField, "_refine_conjugate",
                        lambda self, i: pytest.fail("refined past the refusal"))
    for budget in (polys.MAX_HALVINGS + 1, 10 ** 9):
        with pytest.raises(ValueError, match=f"at most {polys.MAX_HALVINGS}"):
            field.is_pisot(budget=budget)


def _conjugate_boxes(field):
    """The boxes of the d-1 conjugates of beta: each upper-half-plane box
    the field keeps, followed by its mirror image when it is not real."""
    out = []
    for box in field._materialize_conjugates():
        out.append(box)
        re, (ilo, ihi) = box
        if ihi:
            out.append((re, (-ihi, -ilo)))
    return out


def test_conjugate_enclosures_structure(quintic):
    assert not hasattr(NumberField, "conjugate_enclosures")
    boxes = _conjugate_boxes(quintic)
    assert len(boxes) == 4  # two conjugate pairs
    uppers = [b for b in boxes if b[1][0] > 0]
    lowers = [b for b in boxes if b[1][1] < 0]
    assert len(uppers) == 2 and len(lowers) == 2


def test_a_conjugate_pair_proposed_on_the_axis_is_refused(monkeypatch):
    # floats that put one conjugate pair of the quintic on the real axis
    # leave an upper root without a proposal: no box set short of a pair
    # may come back, and no Pisot answer may skip two conjugates
    p = [-1, -1, -1, -1, 0, 1]
    aberth = polys._aberth_roots

    def flattened(q):
        zs = aberth(q)
        top = max(zs, key=lambda z: z.imag)
        return [complex(z.real) if z in (top, top.conjugate()) else z for z in zs]

    monkeypatch.setattr(polys, "_aberth_roots", flattened)
    assert sum(z.imag > 0 for z in flattened(p)) == 1
    with pytest.raises(RefinementBudgetExceeded):
        polys.propose_and_certify_complex_roots(p, 2)
    with pytest.raises(RefinementBudgetExceeded):
        NumberField(IntPolynomial(p)).is_pisot()


def test_conjugate_budgets_raise_typed_errors(monkeypatch):
    # an Aberth run with no sweeps never settles
    monkeypatch.setattr(polys, "_ABERTH_SWEEPS", 0)
    with pytest.raises(RefinementBudgetExceeded):
        NumberField(IntPolynomial((-1, -1, -1, -1, 0, 1))).is_pisot()


def test_a_coefficient_beyond_the_float_range_raises_a_typed_error():
    # z^3 - 10^400: its real root is exact work, but its conjugate pair is
    # proposed in floats; once an OverflowError from complex()
    field = NumberField(IntPolynomial((-10 ** 400, 0, 0, 1)))
    with pytest.raises(RefinementBudgetExceeded, match="float range"):
        field.is_pisot()


def test_repr_prints_an_outward_rounded_enclosure_of_beta():
    # the bounds are directed decimals, so they enclose the root even
    # beyond the float range, where float() raised or rounded both ends
    golden = NumberField(IntPolynomial((-1, -1, 1)))
    assert repr(golden) == "NumberField(z^2 - z - 1, root in [1.000000, 2.000000])"
    while golden.beta_interval()[1] - golden.beta_interval()[0] > F(1, 10 ** 9):
        golden.refine_beta()
    text = repr(golden)
    lo, hi = (F(x) for x in text[text.index("[") + 1:-2].split(", "))
    assert golden.beta.compare(lo) > 0 > golden.beta.compare(hi)
    assert text.endswith("[1.618033, 1.618034])")
    for coeffs, root in [((-10 ** 400, 1), 10 ** 400), ((-10 ** 400, 0, 1), 10 ** 200)]:
        text = repr(NumberField(IntPolynomial(coeffs)))
        assert text.endswith(f"root in [{root}.000000, {root}.000000])")


def test_repr_of_a_root_past_the_int_to_str_limit_encloses_it():
    # 10^5000 has more digits than Python converts to a string (4300 by
    # default): the polynomial and both bounds print in mantissa-exponent
    # form, rounded outward; z - 10^400 keeps its full decimal bytes
    for coeffs in [(-10 ** 5000, 1), (-10 ** 5000 - 1, 1), (-2 * 10 ** 1300, 0, 1)]:
        text = repr(NumberField(IntPolynomial(coeffs)))
        lo, hi = (F(x) for x in text[text.index("[") + 1:-2].split(", "))
        assert lo ** (len(coeffs) - 1) <= -coeffs[0] <= hi ** (len(coeffs) - 1)
    assert repr(NumberField(IntPolynomial((-10 ** 5000, 1)))) == \
        "NumberField(z - 1.000000e+5000, root in [1.000000e+5000, 1.000000e+5000])"
    big = 10 ** 400
    assert repr(NumberField(IntPolynomial((-big, 1)))) == \
        f"NumberField(z - {big}, root in [{big}.000000, {big}.000000])"


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str limit for the length of one test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)


def test_element_repr_past_the_int_to_str_limit_prints_mantissa_exponent_form(
        golden, default_digit_limit):
    # a coefficient whose numerator or denominator reaches 10^600 prints as
    # d.dddddde+-E rounded towards zero, so repr never meets the limit;
    # smaller ones keep their exact bytes
    tiny = golden.from_rational(F(1, 10 ** 5000))
    assert repr(tiny) == "<1.000000e-5000>"
    x = golden.element([F(-3, 7 * 10 ** 5000), F(10 ** 5000 + 1, 10 ** 5000)])
    assert repr(x) == "<-4.285714e-5001 + 1.000000e+0*b>"
    assert repr(golden.from_rational(-10 ** 700)) == "<-1.000000e+700>"
    assert repr(golden.element([F(3, 7), -2])) == "<3/7 - 2*b>"
    # to_json stays exact: it needs the limit lifted, as cli.main does
    sys.set_int_max_str_digits(0)
    assert tiny.to_json() == {"coeffs": ["1/1" + "0" * 5000, "0"]}


def test_pisot_certificate_matches_mpmath_oracle():
    # differential test against 50-digit roots from mpmath.polyroots
    mpmath = pytest.importorskip("mpmath")

    def mpq(q):
        return mpmath.mpf(q.numerator) / q.denominator

    rng = random.Random(2012)
    found = 0
    while found < 40:
        deg = rng.randint(2, 7)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(deg)) + (1,)
        try:
            field = NumberField(IntPolynomial(coeffs))
        except (NotSquarefree, NoRealRootAboveOne):
            continue
        found += 1
        cert = field.is_pisot()
        boxes = _conjugate_boxes(field)
        assert len(boxes) == deg - 1
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                # adjacent real isolating intervals may share an endpoint,
                # which is never a root
                meet = polys._box_intersect(a, b)
                assert meet is None or (meet[1] == (0, 0) and meet[0][0] == meet[0][1]
                                        and evaluate(coeffs, meet[0][0]) != 0)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=100)
            tol = mpmath.mpf(10) ** -40

            def inside(z, box):
                (rlo, rhi), (ilo, ihi) = box
                return (mpq(rlo) - tol <= z.real <= mpq(rhi) + tol
                        and mpq(ilo) - tol <= z.imag <= mpq(ihi) + tol)

            for box in boxes:
                assert sum(inside(mpmath.mpc(z), box) for z in roots) == 1, (coeffs, box)
            lo, hi = field.beta_interval()
            [beta] = [z for z in roots if not any(inside(mpmath.mpc(z), b) for b in boxes)]
            assert inside(mpmath.mpc(beta), ((lo, hi), (F(0), F(0))))
            moduli = [abs(z) for z in roots if z is not beta]
            assert mpq(cert.max_conjugate_modulus_upper) >= max(moduli) - tol, coeffs
            if all(abs(m - 1) >= mpmath.mpf("1e-9") for m in moduli):
                expected = "pisot" if max(moduli) < 1 else "not_pisot"
                assert cert.status == expected, coeffs


def test_degree_one_pisot_certificate(base2):
    cert = base2.is_pisot()
    assert cert.is_pisot
    assert cert.max_conjugate_modulus_upper == 0
    assert cert.beta_lower == 2 == cert.beta_upper


def test_random_fields_pisot_certification_robust():
    # stress the conjugate-box certification across arbitrary small fields;
    # every certificate must be internally consistent whatever the verdict
    rng = random.Random(60902)
    from betaorbit import polys
    found = 0
    while found < 15:
        deg = rng.randint(2, 6)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(deg)) + (1,)
        try:
            field = NumberField(IntPolynomial(coeffs))
        except (NotSquarefree, NoRealRootAboveOne, DegreeZero):
            continue
        found += 1
        cert = field.is_pisot(budget=48)
        assert cert.status in ("pisot", "not_pisot", "unknown")
        assert cert.beta_lower > 1
        boxes = _conjugate_boxes(field)
        assert len(boxes) == field.degree - 1
        if cert.is_pisot:
            assert cert.max_conjugate_modulus_upper < 1
            for box in boxes:
                assert polys.box_mod2_bounds(box)[0] < 1


# === concurrency: shared enclosure refinement stays consistent ===

def test_concurrent_compare_and_approx():
    import threading
    field = NumberField(IntPolynomial((-1, -1, -1, -1, 0, 1)))
    b = field.beta
    targets = [(b ** 2 - 1, F(13536, 10000)), (b, F(15341, 10000)),
               (b ** 3, F(361, 100))]
    errors = []

    def worker(elem, threshold):
        try:
            for _ in range(50):
                assert elem.compare(threshold) > 0
                lo, hi = elem.approx(F(1, 10 ** 9))
                assert lo <= hi and hi - lo <= F(1, 10 ** 9)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=t) for t in targets * 2]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# === serialization ===

def test_element_json_roundtrip(golden):
    import json
    from betaorbit import ExpansionParams
    b = golden.beta
    x = (b + 1) * F(3, 7)
    blob = x.to_json()
    assert blob == {"coeffs": ["3/7", "3/7"]}
    assert ExpansionParams(golden, 1).parse_point(json.dumps(blob)) == x


def test_intpolynomial_json_roundtrip():
    p = IntPolynomial((-1, -1, -1, -1, 0, 1))
    assert p.to_json() == {"coeffs": ["-1", "-1", "-1", "-1", "0", "1"]}
    assert str(p) == "z^5 - z^3 - z^2 - z - 1"


def test_format_element(quintic):
    from betaorbit import format_element
    assert format_element(quintic.element([F(1, 2), -1, 1])) == "1/2 - b + b^2"
    assert format_element(quintic.element([0, 0, 0, -3])) == "-3*b^3"
    assert format_element(quintic.zero) == "0"
