from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from betaorbit import polys, spectral
from betaorbit.errors import NotSquarefree, RefinementBudgetExceeded
from betaorbit.orbit import TransitionMatrix
from betaorbit.spectral import char_polynomial
from conftest import BASE2, CUBIC2, GOLDEN, PLASTIC, QUINTIC, SQRT2, SQRT3, TETRA
from rational_oracles import (
    add, bisect_step, count_roots_in_interval, decimal_str, degree, derivative, divmod_poly,
    evaluate, gcd_poly, monic, mul, normalize, refine_to_width, sqrt_bounds, squarefree_part,
    sturm_chain,
)


F = Fraction


def _ints(p):
    """The integer coefficient list of a Fraction polynomial with integral
    coefficients."""
    assert all(c.denominator == 1 for c in p)
    return [int(c) for c in p]


def test_evaluate_horner():
    p = normalize([-1, -1, 1])  # z^2 - z - 1
    assert evaluate(p, F(2)) == 1
    assert evaluate(p, F(0)) == -1


def test_evaluate_interval_contains_point_values():
    p = (3, -2, 0, 1)
    lo, hi = F(-1), F(2)
    vlo, vhi = polys.evaluate_interval(p, lo, hi)
    for t in range(0, 13):
        x = lo + (hi - lo) * F(t, 12)
        assert vlo <= evaluate(p, x) <= vhi


def _evaluate_interval_ref(p, lo, hi):
    """Interval Horner in Fraction arithmetic: the differential oracle."""
    alo = ahi = F(0)
    for c in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_polys = st.lists(st.integers(-60, 60), max_size=9)
_rational_polys = st.lists(st.one_of(_rationals, st.integers(-20, 20)), max_size=9)


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
    assert polys.evaluate_interval(p, x, x) == (evaluate(p, x),) * 2


def test_evaluate_interval_edge_cases():
    assert polys.evaluate_interval((), F(-1), F(2)) == (0, 0)
    assert polys.evaluate_interval((0, 0, 0), F(-1, 3), F(1, 3)) == (0, 0)
    p = (3, -2, 5, 0, -7)
    for lo, hi in [(F(-3), F(-1, 2)), (F(-1, 2), F(1, 3)), (F(0), F(5, 4)),
                   (F(1, 8), F(1, 8)), (F(-7, 9), F(-7, 9))]:
        assert polys.evaluate_interval(p, lo, hi) == _evaluate_interval_ref(p, lo, hi)


@pytest.mark.parametrize("call", [
    lambda p: polys.gcd_int(p, [0, 1]),
    polys.squarefree_part_int,
    polys.isolate_real_roots,
    lambda p: count_roots_in_interval(p, F(0), F(2)),
    lambda p: polys.vanishes_at_root(p, F(0), F(2)),
    lambda p: polys.evaluate_interval(p, F(0), F(2)),
], ids=["gcd_int", "squarefree_part_int", "isolate_real_roots", "count_roots_in_interval",
        "vanishes_at_root", "evaluate_interval"])
@pytest.mark.parametrize("p", [[F(-3, 2), 0, 1], [-2, 0, F(1)], [-2.0, 0, 1]],
                         ids=["fraction", "integral-fraction", "float"])
def test_a_non_int_coefficient_raises_type_error(call, p):
    # int() would truncate -3/2 to -1 and answer for z^2 - 1
    with pytest.raises(TypeError):
        call(p)


def test_divmod_roundtrip():
    p = normalize([1, 2, 0, 5, 1])
    q = normalize([-1, 3, 1])
    quot, rem = divmod_poly(p, q)
    assert add(mul(quot, q), rem) == p
    assert degree(rem) < degree(q)


def test_gcd_and_squarefree():
    # (z-1)^2 (z+2) is not squarefree; its squarefree part is (z-1)(z+2)
    sq = mul(mul((F(-1), F(1)), (F(-1), F(1))), (F(2), F(1)))
    with pytest.raises(NotSquarefree):
        polys.isolate_real_roots(_ints(sq))
    part = squarefree_part(sq)
    assert part == monic(mul((F(-1), F(1)), (F(2), F(1))))
    assert tuple(polys.squarefree_part_int(_ints(sq))) == part


_small_ints = st.lists(st.integers(-9, 9), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_small_ints, _small_ints, _small_ints)
@example([1], [1], [])             # gcd(0, 0) is the zero polynomial
@example([], [2, 1], [-3, 6])      # gcd(0, q) is q made primitive and positive
@example([1], [0, 1], [-4])        # constants: the gcd is 1
@example([5], [1], [2, 4, -6])     # a non-monic common factor
@example([1, 1], [-1, 1], [-2, 0, 1])  # a nontrivial common factor, monic
@example([0, 0, 3], [6, 2], [1, -1, 2])  # the larger degree second
def test_gcd_int_matches_rational_gcd(p, q, common):
    a = _ints(mul(normalize(p), normalize(common)))
    b = _ints(mul(normalize(q), normalize(common)))
    g = polys.gcd_int(a, b)
    assert monic(g) == gcd_poly(a, b)
    assert all(type(c) is int for c in g)
    assert not g or (g[-1] > 0 and gcd(*g) == 1)
    # trailing zeros are ignored, and the order of the arguments does not matter
    assert polys.gcd_int(b + [0, 0], a + [0]) == g


def test_isolate_real_roots_quadratic():
    roots = polys.isolate_real_roots([-1, -1, 1])
    assert len(roots) == 2
    (alo, ahi), (blo, bhi) = roots
    assert alo <= F(-618, 1000) <= ahi or alo <= F(-6181, 10000) <= ahi
    assert blo <= F(1618, 1000) <= bhi


def test_isolate_handles_exact_integer_roots():
    # (z-2)(z^2+z+1): one real root, exactly 2
    p = mul((F(-2), F(1)), (F(1), F(1), F(1)))
    roots = polys.isolate_real_roots(_ints(p))
    assert roots == [(F(2), F(2))]


def test_isolate_mixed_exact_and_irrational():
    # (z-1)(z^2-2): roots -sqrt2, 1, sqrt2, pairwise isolated
    p = mul((F(-1), F(1)), (F(-2), F(0), F(1)))
    roots = polys.isolate_real_roots(_ints(p))
    assert len(roots) == 3
    assert (F(1), F(1)) in roots
    for lo, hi in roots:
        if lo != hi:
            assert not (lo < 1 < hi)


def _assert_isolation(p):
    for lo, hi in polys.isolate_real_roots(p):
        if lo == hi:
            assert evaluate(p, lo) == 0
        else:
            assert evaluate(p, lo) * evaluate(p, hi) < 0
            assert count_roots_in_interval(p, lo, hi) == 1


def test_isolate_endpoints_avoid_deflated_roots():
    # z^3 - z^2 - z = z (z^2 - z - 1): no interval may end at the exact root 0
    p = (0, -1, -1, 1)
    roots = polys.isolate_real_roots(p)
    assert len(roots) == 3 and (F(0), F(0)) in roots
    _assert_isolation(p)
    lo, hi = roots[-1]
    assert bisect_step(p, lo, hi) != (lo, hi)
    assert refine_to_width(p, lo, hi, F(1, 2 ** 20))[0] > F(1618, 1000)


def _exact_points(p):
    """The exact points of isolate_real_roots(p): a monic integer
    polynomial's rational roots, which are integers."""
    return [lo for lo, hi in polys.isolate_real_roots(p) if lo == hi]


def _is_squarefree(p):
    return degree(gcd_poly(p, derivative(normalize(p)))) == 0


def _poly_with_integer_roots(roots, cofactor, lead):
    p = (F(lead),)
    for r in roots:
        p = mul(p, (F(-r), F(1)))
    return _ints(mul(p, normalize(cofactor) or (F(1),)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=3), st.lists(st.integers(-4, 4), max_size=3),
       st.sampled_from((1, -1, 2, 3, -6)))
@example([0], [], 1)          # z: the root 0
@example([0], [0, 1], 1)      # z^2: not squarefree
@example([-3, 2], [1, 2], 1)  # (z + 3)(z - 2)(2z + 1): a rational root that is no integer
@example([4], [], 2)          # 2z - 8: not monic
@example([2, 2], [], 1)       # (z - 2)^2
def test_integer_roots_match_brute_force(roots, cofactor, lead):
    p = _poly_with_integer_roots(roots, cofactor, lead)
    # every root has modulus below the Cauchy bound 1 + max |c_i / lead|
    bound = 1 + max(abs(c) for c in p)
    brute = [x for x in range(-bound, bound + 1) if sum(c * x ** i for i, c in enumerate(p)) == 0]
    assert set(roots) <= set(brute)
    if p[-1] == 1:  # isolation peels the integer roots off as exact points
        if _is_squarefree(p):
            assert _exact_points(p) == brute
        else:
            with pytest.raises(NotSquarefree):
                polys.isolate_real_roots(p)
    elif _is_squarefree(p) and len(p) > 1:  # the kernel itself takes any leading coefficient
        assert polys._integer_roots(polys.sturm_chain_int(p)) == brute


def test_integer_roots_of_a_huge_constant_term():
    # z^2 - (2^64 + 1) has no integer root, z^2 - 2^64 has +-2^32; a divisor
    # search over the constant term would take hours
    assert _exact_points([-(2 ** 64 + 1), 0, 1]) == []
    assert polys.isolate_real_roots([-(2 ** 64), 0, 1]) == [(-(2 ** 32),) * 2, (2 ** 32,) * 2]
    assert _exact_points([0, -(2 ** 64), 0, 1]) == [-(2 ** 32), 0, 2 ** 32]
    assert polys.isolate_real_roots([7]) == [] and polys.isolate_real_roots([0, 0]) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_isolate_endpoints_are_sign_changes_on_char_polys(rows):
    chi = char_polynomial(TransitionMatrix.from_rows(rows))
    sf = polys.squarefree_part_int(chi)
    _assert_isolation(sf)
    # the integer kernel against the rational one (helpers below)
    assert sf == squarefree_part(chi)
    if not _is_squarefree(chi):
        with pytest.raises(NotSquarefree):
            polys.isolate_real_roots(chi)
    _assert_chain_is_positive_multiple(sf)
    assert polys.isolate_real_roots(sf) == _isolate_oracle(sf)


def test_count_roots_in_interval():
    p = (-2, 0, 1)  # z^2 - 2
    assert count_roots_in_interval(p, F(0), F(2)) == 1
    assert count_roots_in_interval(p, F(-2), F(2)) == 2
    assert count_roots_in_interval(p, F(2), F(3)) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 15), st.sampled_from((1, -1, 2, -3)))
@example([[-1, -1], [-2, 0]], 1, 1)  # z^2 - z - 1 beside z^2 - 2: the golden factor
@example([[0], [-1], [1, 0]], 2, -1)  # z, z - 1, z^2 + 1: an integer root is a point
def test_vanishes_at_root_matches_the_sturm_count(factors, subset, scale):
    # q = sf(product of monic factors) is isolated; p, the squarefree part
    # of a sub-product times a nonzero integer, divides it, so the sign rule
    # must agree with the Sturm count at every isolating interval of q and
    # after each of five bisection steps
    monics = [tuple(c) + (1,) for c in factors]
    q = polys.squarefree_part_int(_ints(reduce(mul, monics, (F(1),))))
    chosen = [f for i, f in enumerate(monics) if subset >> i & 1]
    p = [scale * c for c in polys.squarefree_part_int(_ints(reduce(mul, chosen, (F(1),))))]
    for lo, hi in polys.isolate_real_roots(q):
        for _ in range(6):
            assert polys.vanishes_at_root(p, lo, hi) == (count_roots_in_interval(p, lo, hi) > 0)
            lo, hi = bisect_step(q, lo, hi)


def test_refine_to_width():
    # alpha's enclosure is bisected in integers (spectral._refine), to the
    # rationals Fraction bisection gives
    p = (-2, 0, 1)
    lo, hi = spectral._refine(spectral._PerronRoot(p, [F(1), F(2)]), F(1), F(2), F(1, 10 ** 6))
    assert hi - lo <= F(1, 10 ** 6)
    assert lo * lo < 2 < hi * hi
    assert (lo, hi) == refine_to_width(p, F(1), F(2), F(1, 10 ** 6))


def _sqrt_bounds(value, iters):
    lo, hi = polys.sqrt_bounds_int(value.numerator, value.denominator, iters)
    return F(lo, 1 << 96), F(hi, 1 << 96)


def test_sqrt_bounds():
    for v in (F(2), F(1, 3), F(10, 7), F(0)):
        lo, hi = _sqrt_bounds(v, iters=5)
        assert lo * lo <= v <= hi * hi
        if v:
            assert hi - lo < F(1, 10 ** 6)


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, max_denominator=10 ** 30), st.integers(0, 12))
@example(F(0), 4)
def test_sqrt_bounds_matches_the_fraction_heron(value, iters):
    # integer Heron steps with ceiling and floor divisions give the Fraction
    # iterates, and p/q need not be in lowest terms
    got = polys.sqrt_bounds_int(value.numerator, value.denominator, iters)
    assert polys.sqrt_bounds_int(3 * value.numerator, 3 * value.denominator, iters) == got
    if value:
        assert _sqrt_bounds(value, iters) == sqrt_bounds(value, iters)
    else:  # is_pisot reads a zero bound itself; the kernel's bounds still hold
        assert got[0] == 0 <= got[1]


def test_interval_division_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        polys.interval_div((F(1), F(2)), (F(-1), F(1)))


def test_complex_certification_quintic():
    # z^5 - z^3 - z^2 - z - 1 has one real root and two conjugate pairs
    p = [-1, -1, -1, -1, 0, 1]
    boxes = polys.propose_and_certify_complex_roots(p, 2)
    assert len(boxes) == 2
    dp = polys.derivative(p)
    assert dp == [-1, -2, -3, 0, 5]
    for box in boxes:
        assert box[1][0] > 0  # strictly above the real axis
        assert polys.newton_box(p, dp, box)[1]
    # two copies of one root never separate
    with pytest.raises(RefinementBudgetExceeded):
        polys._separate_boxes(p, dp, [boxes[0], boxes[0]], cap=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12).flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d)))
@example(low=[-1, 0, 0, 0])  # z^4 - 1: the polish lands on i, a point box
def test_complex_proposals_certify_every_pair(low):
    p = low + [1]
    assume(_is_squarefree(p))
    n_pairs = (len(low) - len(polys.isolate_real_roots(p))) // 2
    boxes = polys.propose_and_certify_complex_roots(p, n_pairs)
    assert len(boxes) == n_pairs
    dp = polys.derivative(p)
    for i, box in enumerate(boxes):
        assert box[1][0] > 0  # strictly above the real axis
        assert polys.newton_box(p, dp, box)[1]
        assert all(polys._box_intersect(box, other) is None for other in boxes[i + 1:])


# === one interval Newton routine: contract, and prove when strictly inside ===

def _mpf_fraction(x):
    man, exp = x.man_exp
    return F(man) * F(2) ** exp


def _snap(x):
    """x as a Fraction when it lies within 1e-60 of a rational with a
    denominator up to 1000 (a root of a small integer polynomial that close
    to one is that rational), else the mpf itself."""
    q = _mpf_fraction(x).limit_denominator(1000)
    return q if abs(x - q.numerator / x.context.mpf(q.denominator)) < x.context.mpf(10) ** -60 else x


def _roots_at_80_digits(p, mpmath):
    with mpmath.workdps(80):
        try:
            roots = mpmath.polyroots(p[::-1], maxsteps=400, extraprec=300)
        except mpmath.libmp.NoConvergence:
            return None
        return [(_snap(mpmath.mpf(z.real)), _snap(mpmath.mpf(z.imag))) for z in map(mpmath.mpc, roots)]


def _holds(box, z, mpmath):
    """Whether the closed box holds the root z = (re, im); a coordinate that
    is no snapped rational must lie at least 1e-60 from every edge."""
    with mpmath.workdps(80):
        tol = mpmath.mpf(10) ** -60
        for (lo, hi), x in zip(box, z):
            if isinstance(x, Fraction):
                if not lo <= x <= hi:
                    return False
                continue
            mlo, mhi = (mpmath.mpf(e.numerator) / e.denominator for e in (lo, hi))
            assume(min(abs(x - mlo), abs(x - mhi)) > tol)
            if not mlo < x < mhi:
                return False
        return True


@st.composite
def _boxes_near_a_root(draw):
    """A squarefree integer polynomial of degree 2 to 6 and a box near one of
    its roots: half-widths 2^-k (zero for a flat box or a point), the centre
    the root rounded to 2^-(k+8) and moved by up to twice the half-widths,
    so the box may hold that root, others, or none."""
    mpmath = pytest.importorskip("mpmath")
    p = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=6)) + [draw(st.sampled_from([1, 1, 2, -3]))]
    assume(_is_squarefree(p))
    roots = _roots_at_80_digits(p, mpmath)
    assume(roots is not None)
    z = draw(st.sampled_from(roots))
    box = []
    for x in z:
        k = draw(st.integers(0, 40))
        h = draw(st.sampled_from([F(1, 2 ** k), F(1, 2 ** k), F(0)]))
        c = F(round((x if isinstance(x, Fraction) else _mpf_fraction(x)) * 2 ** (k + 8)), 2 ** (k + 8))
        c += draw(st.integers(-32, 32)) * h / 16
        box.append((c - h, c + h))
    return p, tuple(box)


@settings(max_examples=150, deadline=None)
@given(_boxes_near_a_root())
@example(([1, 0, 1], ((F(-1, 1000), F(1, 1000)), (F(999, 1000), F(1001, 1000)))))  # proved
@example(([1, 0, 1], ((F(0), F(0)), (F(1), F(1)))))  # the point i: a simple root, proved
@example(([1, 0, 1], ((F(1), F(1)), (F(1), F(1)))))  # the point 1 + i: no root
@example(([-2, 0, 1], ((F(1), F(2)), (F(0), F(0)))))  # a flat box: never strictly inside
@example(([-2, 0, 1], ((F(-2), F(2)), (F(-1), F(1)))))  # p' vanishes in the box
def test_newton_box_keeps_every_root_and_proves_only_one(case):
    mpmath = pytest.importorskip("mpmath")
    p, box = case
    roots = _roots_at_80_digits(p, mpmath)
    assume(roots is not None)
    out, proved = polys.newton_box(p, polys.derivative(p), box)
    event(f"{'point' if box[0][0] == box[0][1] and box[1][0] == box[1][1] else 'box'}, "
          f"{'proved' if proved else 'not proved'}")
    assert all(lo <= olo <= ohi <= hi for (lo, hi), (olo, ohi) in zip(box, out))
    held = [z for z in roots if _holds(box, z, mpmath)]
    assert all(_holds(out, z, mpmath) for z in held)  # out lies in box, so exactly these
    if proved:
        assert len(held) == 1


def test_newton_box_is_the_one_interval_newton_routine():
    assert not any(hasattr(polys, n) for n in (
        "certify_box", "refine_certified_box", "round_out_box", "newton_box_step"))


def test_decimal_str_directed():
    x = F(1, 3)
    assert polys.decimal_str(x, 4, -1) == "0.3333"
    assert polys.decimal_str(x, 4, +1) == "0.3334"
    assert polys.decimal_str(F(-1, 3), 4, -1) == "-0.3334"
    assert polys.decimal_str(F(-1, 3), 4, +1) == "-0.3333"
    assert polys.decimal_str(F(5, 2), 2, +1) == "2.50"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(), st.fractions(-10, 10, max_denominator=10 ** 40)),
       st.integers(0, 40), st.sampled_from([-1, 1]))
@example(F(-7, 2), 0, 1)
@example(F(-1, 10 ** 30), 30, -1)
def test_decimal_str_matches_the_fraction_rendering(x, places, direction):
    # one floor division of the numerator gives the digits of the Fraction product
    assert polys.decimal_str(x, places, direction) == decimal_str(x, places, direction)


# === the integer sign kernel, the integer Sturm chain and monic division ===

def _sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=300, deadline=None)
@given(_rational_polys, _rationals)
@example([F(1, 3), -2, F(5, 7)], F(0))
@example([2, -3, 1], F(1))  # a root
@example([], F(-7, 3))
def test_sign_at_matches_fraction_evaluate(p, x):
    want = _sign(evaluate(p, x))
    nums, _ = polys.common_denominator(p)
    assert polys.sign_at(nums, x.numerator, x.denominator) == want
    # Fraction coefficients run through the same kernel
    assert polys.sign_at(p, x.numerator, x.denominator) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=12),
       st.lists(st.integers(-9, 9), max_size=6))
def test_divmod_monic_matches_divmod_poly(p, low):
    q = low + [1]
    quot, rem = polys.divmod_monic(p, q)
    fquot, frem = divmod_poly(p, q)
    assert tuple(rem) == frem
    assert normalize(quot) == fquot
    assert all(type(c) is int for c in quot + rem)


def _isolate_oracle(p):
    """isolate_real_roots of a monic integer polynomial as it was built on
    the rational Sturm chain and rational Horner: the differential
    reference for the integer kernel."""
    p = normalize(p)

    def variations(chain, x):
        signs = [_sign(evaluate(c, x)) for c in chain]
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def bisect(q, lo, hi):
        mid = (lo + hi) / 2
        vm = evaluate(q, mid)
        if vm == 0:
            return mid, mid
        return (lo, mid) if (evaluate(q, lo) > 0) != (vm > 0) else (mid, hi)

    assert p[-1] == 1
    work, exact = p, []
    bound = int(1 + max(abs(c) for c in p))  # Cauchy, so brute force finds every integer root
    for r in (x for x in range(-bound, bound + 1) if evaluate(p, F(x)) == 0):
        exact.append(F(r))
        work = divmod_poly(work, (F(-r), F(1)))[0]
    intervals = []
    if degree(work) >= 1:
        chain = sturm_chain(work)
        bound = 1 + max(abs(c / work[-1]) for c in work)  # Cauchy
        stack = [(-bound, bound, variations(chain, -bound) - variations(chain, bound))]
        while stack:
            lo, hi, n = stack.pop()
            if n == 1:
                while any(lo <= r <= hi for r in exact):
                    lo, hi = bisect(work, lo, hi)
                intervals.append((lo, hi))
            elif n > 1:
                mid = (lo + hi) / 2
                left = variations(chain, lo) - variations(chain, mid)
                stack += [(lo, mid, left), (mid, hi, n - left)]
    out = intervals + [(r, r) for r in exact]
    out.sort(key=lambda iv: iv[0] + iv[1])
    return out


def _assert_chain_is_positive_multiple(p):
    ints, fracs = polys.sturm_chain_int(p), sturm_chain(p)
    assert len(ints) == len(fracs)
    for a, b in zip(ints, fracs):
        assert len(a) == len(b)
        ratio = F(a[-1]) / b[-1]
        assert ratio > 0 and all(x == ratio * y for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=2, max_size=8), st.booleans())
@example([0, -1, -1, 1], True)  # z (z^2 - z - 1): an exact root at 0
@example([-2, 1, -2, 1], True)  # (z - 2)(z^2 + 1)
@example([-1, 0, 2], False)  # 2z^2 - 1: not monic
@example([-15, 20, -8], True)  # (z - 3)(z^2 - 5z + 5): the walk splits (0, 6] at the root 3
@example([-12, -9, -1], True)  # (z - 4)(z^2 + 3z + 3): the walk's (-4, 4] ends at the root 4
def test_isolation_matches_rational_sturm_oracle(low, make_monic):
    p = _ints(normalize(low + [1] if make_monic else low))
    assume(degree(p) >= 1)
    assume(_is_squarefree(p))
    assert len(polys.sturm_chain_int(p)[-1]) == 1  # the chain ends in a constant gcd(p, p')
    _assert_chain_is_positive_multiple(p)
    if p[-1] == 1:
        assert polys.isolate_real_roots(p) == _isolate_oracle(p)
    else:  # isolation takes monic polynomials only
        with pytest.raises(ValueError, match="monic"):
            polys.isolate_real_roots(p)


@pytest.mark.parametrize("p", [[-15, 20, -8, 1], [-12, -9, -1, 1], [0, -1, -1, 1], [-1, -1, 1]],
                         ids=["root-3", "root-4", "root-0", "golden"])
def test_isolation_builds_one_sturm_chain(p, monkeypatch):
    # the deflated polynomial's roots are counted on p's chain, less the
    # integer roots, so no second chain is built after the deflation
    calls = []
    chain = polys.sturm_chain_int
    monkeypatch.setattr(polys, "sturm_chain_int", lambda q: calls.append(tuple(q)) or chain(q))
    assert polys.isolate_real_roots(p) == _isolate_oracle(p)
    assert calls == [tuple(p)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from((GOLDEN, QUINTIC, BASE2, PLASTIC, CUBIC2, TETRA, SQRT2, SQRT3)),
                 st.lists(st.integers(-12, 12), min_size=1, max_size=7).map(lambda low: low + [1])))
@example([0, -2, 0, 1])  # z (z^2 - 2): an exact root between two brackets
@example([-1, 0, 1])  # z^2 - 1: exact roots only
def test_integer_bisection_matches_fraction_bisection(p):
    # isolation on integer nodes gives the intervals of the Fraction-node
    # oracle, and 40 integer steps, which read the midpoint's sign only,
    # give the rationals of 40 Fraction steps, which read both ends' signs
    assume(_is_squarefree(p))
    intervals = polys.isolate_real_roots(p)
    assert intervals == _isolate_oracle(p)
    for lo, hi in intervals:
        if lo == hi:
            continue
        a, b, e = polys.integer_endpoints(lo, hi)
        left = polys.sign_at(p, a, e)
        for _ in range(40):
            a, b, e = polys.bisect_step(p, a, b, e, left)
            lo, hi = bisect_step(p, lo, hi)
            assert (F(a, e), F(b, e)) == (lo, hi)


def test_bisect_step_returns_an_exact_hit_as_the_point():
    # z - 1 on [0, 2]: the midpoint is the root
    assert polys.bisect_step((-1, 1), 0, 2, 1, -1) == (2, 2, 2)
    assert bisect_step((-1, 1), F(0), F(2)) == (1, 1)


def test_refine_to_width_budget_is_checked_before_bisecting(monkeypatch):
    p = (-2, 0, 1)  # z^2 - 2 on [1, 2]: width 1
    root = spectral._PerronRoot(p, [F(1), F(2)])
    steps = []
    halve = spectral._halve
    monkeypatch.setattr(spectral, "_halve", lambda *a: steps.append(1) or halve(*a))
    with pytest.raises(RefinementBudgetExceeded, match="halvings"):
        spectral._refine(root, F(1), F(2), F(1, 2 ** polys.MAX_HALVINGS + 1))
    assert steps == []
    lo, hi = spectral._refine(root, F(1), F(2), F(1, 2 ** polys.MAX_HALVINGS))
    assert hi - lo == F(1, 2 ** polys.MAX_HALVINGS) and len(steps) == polys.MAX_HALVINGS
    assert lo * lo < 2 < hi * hi
