from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from betaorbit import polys
from betaorbit.errors import RefinementBudgetExceeded
from betaorbit.orbit import TransitionMatrix
from betaorbit.spectral import char_polynomial


F = Fraction


def test_evaluate_horner():
    p = polys.normalize([-1, -1, 1])  # z^2 - z - 1
    assert polys.evaluate(p, F(2)) == 1
    assert polys.evaluate(p, F(0)) == -1


def test_evaluate_interval_contains_point_values():
    p = polys.normalize([3, -2, 0, 1])
    lo, hi = F(-1), F(2)
    vlo, vhi = polys.evaluate_interval(p, lo, hi)
    for t in range(0, 13):
        x = lo + (hi - lo) * F(t, 12)
        assert vlo <= polys.evaluate(p, x) <= vhi


def _evaluate_interval_ref(p, lo, hi):
    """Interval Horner in Fraction arithmetic: the differential oracle."""
    alo = ahi = F(0)
    for c in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_polys = st.lists(st.one_of(_rationals, st.integers(-20, 20)), max_size=9)


@settings(max_examples=300, deadline=None)
@given(_polys, _rationals, _rationals)
def test_evaluate_interval_matches_fraction_horner(p, a, b):
    lo, hi = min(a, b), max(a, b)
    got = polys.evaluate_interval(p, lo, hi)
    assert got == _evaluate_interval_ref(p, lo, hi)
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=100, deadline=None)
@given(_polys, _rationals)
def test_evaluate_interval_point_is_exact(p, x):
    assert polys.evaluate_interval(p, x, x) == (polys.evaluate(p, x),) * 2


def test_evaluate_interval_edge_cases():
    assert polys.evaluate_interval((), F(-1), F(2)) == (0, 0)
    assert polys.evaluate_interval((0, 0, 0), F(-1, 3), F(1, 3)) == (0, 0)
    p = (F(1, 3), -2, F(5, 7), 0, F(-3, 2))
    for lo, hi in [(F(-3), F(-1, 2)), (F(-1, 2), F(1, 3)), (F(0), F(5, 4)),
                   (F(1, 8), F(1, 8)), (F(-7, 9), F(-7, 9))]:
        assert polys.evaluate_interval(p, lo, hi) == _evaluate_interval_ref(p, lo, hi)


def test_divmod_roundtrip():
    p = polys.normalize([1, 2, 0, 5, 1])
    q = polys.normalize([-1, 3, 1])
    quot, rem = polys.divmod_poly(p, q)
    assert polys.add(polys.mul(quot, q), rem) == p
    assert polys.degree(rem) < polys.degree(q)


def test_gcd_and_squarefree():
    # (z-1)^2 (z+2) is not squarefree; its squarefree part is (z-1)(z+2)
    sq = polys.mul(polys.mul((F(-1), F(1)), (F(-1), F(1))), (F(2), F(1)))
    assert not polys.is_squarefree(sq)
    part = polys.squarefree_part(sq)
    assert part == polys.monic(polys.mul((F(-1), F(1)), (F(2), F(1))))
    assert polys.is_squarefree(polys.normalize([-1, -1, 1]))


def test_isolate_real_roots_quadratic():
    roots = polys.isolate_real_roots(polys.normalize([-1, -1, 1]))
    assert len(roots) == 2
    (alo, ahi), (blo, bhi) = roots
    assert alo <= F(-618, 1000) <= ahi or alo <= F(-6181, 10000) <= ahi
    assert blo <= F(1618, 1000) <= bhi


def test_isolate_handles_exact_integer_roots():
    # (z-2)(z^2+z+1): one real root, exactly 2
    p = polys.mul((F(-2), F(1)), (F(1), F(1), F(1)))
    roots = polys.isolate_real_roots(p)
    assert roots == [(F(2), F(2))]


def test_isolate_mixed_exact_and_irrational():
    # (z-1)(z^2-2): roots -sqrt2, 1, sqrt2, pairwise isolated
    p = polys.mul((F(-1), F(1)), (F(-2), F(0), F(1)))
    roots = polys.isolate_real_roots(p)
    assert len(roots) == 3
    assert (F(1), F(1)) in roots
    for lo, hi in roots:
        if lo != hi:
            assert not (lo < 1 < hi)


def _assert_isolation(p):
    p = polys.normalize(p)
    for lo, hi in polys.isolate_real_roots(p):
        if lo == hi:
            assert polys.evaluate(p, lo) == 0
        else:
            assert polys.evaluate(p, lo) * polys.evaluate(p, hi) < 0
            assert polys.count_roots_in_interval(p, lo, hi) == 1


def test_isolate_endpoints_avoid_deflated_roots():
    # z^3 - z^2 - z = z (z^2 - z - 1): no interval may end at the exact root 0
    p = polys.normalize([0, -1, -1, 1])
    roots = polys.isolate_real_roots(p)
    assert len(roots) == 3 and (F(0), F(0)) in roots
    _assert_isolation(p)
    lo, hi = roots[-1]
    assert polys.bisect_step(p, lo, hi) != (lo, hi)
    assert polys.refine_to_width(p, lo, hi, F(1, 2 ** 20))[0] > F(1618, 1000)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_isolate_endpoints_are_sign_changes_on_char_polys(rows):
    chi = char_polynomial(TransitionMatrix.from_rows(rows))
    _assert_isolation(polys.squarefree_part_int(chi))


def test_count_roots_in_interval():
    p = polys.normalize([-2, 0, 1])  # z^2 - 2
    assert polys.count_roots_in_interval(p, F(0), F(2)) == 1
    assert polys.count_roots_in_interval(p, F(-2), F(2)) == 2
    assert polys.count_roots_in_interval(p, F(2), F(3)) == 0


def test_refine_to_width():
    p = polys.normalize([-2, 0, 1])
    lo, hi = polys.refine_to_width(p, F(1), F(2), F(1, 10 ** 6))
    assert hi - lo <= F(1, 10 ** 6)
    assert lo * lo < 2 < hi * hi


def test_sqrt_bounds():
    for v in (F(2), F(1, 3), F(10, 7), F(0)):
        lo, hi = polys.sqrt_bounds(v, iters=5)
        assert lo * lo <= v <= hi * hi
        if v:
            assert hi - lo < F(1, 10 ** 6)


def test_interval_division_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        polys.interval_div((F(1), F(2)), (F(-1), F(1)))


def test_complex_certification_quintic():
    # z^5 - z^3 - z^2 - z - 1 has one real root and two conjugate pairs
    p = [-1, -1, -1, -1, 0, 1]
    boxes = polys.propose_and_certify_complex_roots(p, 2)
    assert len(boxes) == 2
    pq = polys.normalize(p)
    dp = polys.derivative(pq)
    for box in boxes:
        assert box[1][0] > 0  # strictly above the real axis
        again = polys.certify_box(pq, dp, box)
        assert again is not None
    # two copies of one root never separate
    with pytest.raises(RefinementBudgetExceeded):
        polys._separate_boxes(pq, dp, [boxes[0], boxes[0]], cap=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12).flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d)))
@example(low=[-1, 0, 0, 0])  # z^4 - 1: the polish lands on i, a point box
def test_complex_proposals_certify_every_pair(low):
    p = low + [1]
    assume(polys.is_squarefree(p))
    n_pairs = (len(low) - len(polys.isolate_real_roots(p))) // 2
    boxes = polys.propose_and_certify_complex_roots(p, n_pairs)
    assert len(boxes) == n_pairs
    pq = polys.normalize(p)
    dp = polys.derivative(pq)
    for i, box in enumerate(boxes):
        assert box[1][0] > 0  # strictly above the real axis
        assert polys.certify_box(pq, dp, box) is not None
        assert all(polys._box_intersect(box, other) is None for other in boxes[i + 1:])


def test_decimal_str_directed():
    x = F(1, 3)
    assert polys.decimal_str(x, 4, -1) == "0.3333"
    assert polys.decimal_str(x, 4, +1) == "0.3334"
    assert polys.decimal_str(F(-1, 3), 4, -1) == "-0.3334"
    assert polys.decimal_str(F(-1, 3), 4, +1) == "-0.3333"
    assert polys.decimal_str(F(5, 2), 2, +1) == "2.50"
