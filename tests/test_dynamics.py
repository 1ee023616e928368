import io
import itertools
import json
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from betaorbit import (
    ExpansionParams,
    ExpansionRule,
    IntPolynomial,
    NumberField,
    count_prefixes_bruteforce,
    digits_to_text,
    expansion_value,
    generate_expansion,
)
from betaorbit import compute_orbit, dynamics
from betaorbit.errors import CapHit, OutsideInterval
from rational_oracles import compute_orbit as oracle_orbit

F = Fraction


def test_params_validation(golden):
    with pytest.raises(ValueError):
        ExpansionParams(golden, 0)
    big = NumberField(IntPolynomial((-3, 1)))  # beta = 3 > m+1 for m = 1
    with pytest.raises(ValueError):
        ExpansionParams(big, 1)
    ExpansionParams(big, 2)  # beta = m+1 allowed


def test_params_refuse_a_polynomial_of_degree_above_one_with_an_integer_root():
    # z^2 - z - 2 = (z - 2)(z + 1): z and 2 name one point at beta = 2
    with pytest.raises(ValueError, match="^z\\^2 - z - 2 has the integer root -1; "):
        ExpansionParams(NumberField(IntPolynomial((-2, -1, 1))), 1)
    params = ExpansionParams(NumberField(IntPolynomial((-2, 1))), 1)  # z - 2 is beta's own
    assert params.right_endpoint == params.field.one


def test_right_endpoint_identity(golden_params, quintic_params):
    for params in (golden_params, quintic_params):
        m = params.field.from_rational(params.m)
        assert params.right_endpoint * (params.beta - 1) == m


def test_in_interval(golden_params, quintic_params, quintic_x):
    golden = golden_params.field
    assert golden_params.contains(golden.beta)  # right endpoint, closed
    assert not golden_params.contains(-golden.one)
    assert quintic_params.contains(quintic_x)


def test_apply_map(golden_params, quintic_params, quintic_x):
    golden = golden_params.field
    b = golden.beta
    # b*b - 1 reduces to b by the defining identity b^2 = b + 1
    assert golden_params.apply(1, b) == b
    assert golden_params.apply(0, b - 1) == golden.one
    assert golden_params.apply(0, golden.zero) == golden.zero
    b5 = quintic_params.field.beta
    assert quintic_params.apply(0, quintic_x) == b5 * quintic_x


def test_branch_digits(golden_params):
    golden = golden_params.field
    assert golden_params.branch_digits(golden.one) == (0, 1)
    assert golden_params.branch_digits(golden.zero) == (0,)
    assert golden_params.branch_digits(golden_params.right_endpoint) == (1,)
    with pytest.raises(OutsideInterval):
        golden_params.branch_digits(-golden.one)


def _admissible(params, x, word):
    """True when the word's digit maps, applied in order, keep every point
    inside the interval."""
    for d in word:
        x = params.apply(d, x)
        if not params.contains(x):
            return False
    return True


def test_count_bruteforce_golden(golden_params):
    one = golden_params.field.one
    assert [count_prefixes_bruteforce(golden_params, one, n) for n in range(4)] == [1, 2, 3, 4]
    for n in range(20):
        assert count_prefixes_bruteforce(golden_params, one, n) == n + 1


@pytest.mark.parametrize("cap", [0, -1])
def test_count_bruteforce_refuses_a_state_cap_below_one(golden_params, cap):
    # as compute_orbit refuses it, before the first level
    with pytest.raises(ValueError, match="caps must be at least 1"):
        count_prefixes_bruteforce(golden_params, golden_params.field.one, 3, state_cap=cap)


def test_count_monotone(quintic_params, quintic_x):
    counts = [count_prefixes_bruteforce(quintic_params, quintic_x, n) for n in range(11)]
    m = quintic_params.m
    for a, b in zip(counts, counts[1:]):
        assert a <= b <= (m + 1) * a


def test_prefix_count_matches_exhaustive_enumeration(golden_params):
    # every digit word of length <= 8 walked through the digit maps directly
    one = golden_params.field.one
    for n in range(9):
        by_enum = sum(
            1 for w in itertools.product(range(2), repeat=n)
            if _admissible(golden_params, one, w)
        )
        assert by_enum == count_prefixes_bruteforce(golden_params, one, n)


@pytest.mark.parametrize("minpoly, m", [
    ((-1, -1, -1, -1, 0, 1), 1),  # quintic
    ((-1, -1, 0, 1), 2),          # plastic
    ((-1, 0, -1, 1), 1),          # cubic
    ((-1, -1, -1, -1, 1), 1),     # tetranacci
    ((-2, 0, 1), 1),              # sqrt2: not Pisot, so the levels keep growing
])
def test_level_counts_match_exhaustive_enumeration(minpoly, m):
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    x = params.field.from_rational(F(1, 3))
    for n in range(8):
        by_enum = sum(
            1 for w in itertools.product(range(m + 1), repeat=n)
            if _admissible(params, x, w)
        )
        assert by_enum == count_prefixes_bruteforce(params, x, n)


def test_count_bruteforce_refuses_a_point_outside_the_interval(golden_params):
    # n = 0 takes no branch, so the membership check alone must refuse
    golden = golden_params.field
    for x in (-golden.one, golden_params.right_endpoint + F(1, 10 ** 9)):
        for n in (0, 3):
            with pytest.raises(OutsideInterval):
                count_prefixes_bruteforce(golden_params, x, n)


def test_count_bruteforce_runs_past_the_recursion_limit(golden_params):
    # the levels are counted iteratively, so n is not bounded by the stack
    golden = golden_params.field
    assert count_prefixes_bruteforce(golden_params, golden.zero, 5000) == 1
    assert count_prefixes_bruteforce(golden_params, golden.one, 5000) == 5001


def test_count_bruteforce_state_cap(golden_params):
    # every level point is an orbit state: golden 1/3 closes with 16 states,
    # so a cap of 16 changes no count, and a cap of 1 is passed by the first
    # level with two points; the levels of 1/3 in base sqrt2 keep growing
    # and pass a cap of 1000 before n = 24
    golden = golden_params.field
    x = golden.from_rational(F(1, 3))
    for n in range(40):
        assert count_prefixes_bruteforce(golden_params, x, n, state_cap=16) == \
            count_prefixes_bruteforce(golden_params, x, n)
    with pytest.raises(CapHit) as info:
        count_prefixes_bruteforce(golden_params, x, 40, state_cap=1)
    assert (info.value.states_found, info.value.cap_hit) == (2, "state")
    sqrt2 = NumberField(IntPolynomial((-2, 0, 1)))
    with pytest.raises(CapHit, match="^1002 states found, state cap hit$"):
        count_prefixes_bruteforce(ExpansionParams(sqrt2, 1), sqrt2.from_rational(F(1, 3)), 60,
                                  state_cap=1000)


def test_branch_consistency_random(golden_params):
    rng = random.Random(5)
    golden = golden_params.field
    for _ in range(60):
        num = rng.randint(0, 16)
        x = golden_params.right_endpoint * F(num, 16)
        branch = golden_params.branch_digits(x)
        for i in range(golden_params.m + 1):
            inside = golden_params.contains(golden_params.apply(i, x))
            assert (i in branch) == inside


def _branch_digits_ref(params, x):
    """The exhaustive digit loop: membership first, then every digit tested
    by exact comparison."""
    if not params.contains(x):
        raise OutsideInterval("outside")
    bx = params.beta * x
    return tuple(i for i in range(params.m + 1)
                 if (bx - i).compare(params.field.zero) >= 0
                 and (bx - i).compare(params.right_endpoint) <= 0)


_BRANCH_PARAMS = [ExpansionParams(NumberField(IntPolynomial(p)), m) for p, m in (
    ((-1, -1, 1), 1), ((-1, -1, -1, -1, 0, 1), 1), ((-2, 1), 1), ((-3, 1), 2),
    ((-1, -1, 0, 1), 1), ((-1, 0, -1, 1), 2), ((-1, -1, -1, -1, 1), 2), ((-1, -1, 1), 3))]


# the precision 2^-bits of the table of powers of beta: the default, and
# coarse ones (2^-4 and 2^0) that leave most digits to the exact comparisons
_EPS_CHOICES = [F(1, 1 << dynamics._TABLE_BITS), F(1, 16), F(1)]


def _agree(params, x, eps):
    """branch_digits, on params rebuilt with their table of powers of beta
    at precision eps = 2^-bits, matches the exhaustive loop, and every pair
    of the fused step branches(x) is (i, beta*x - i) in reduced form."""
    with mock.patch.object(dynamics, "_TABLE_BITS", eps.denominator.bit_length() - 1):
        params = ExpansionParams(params.field, params.m)
    try:
        want = _branch_digits_ref(params, x)
    except OutsideInterval:
        with pytest.raises(OutsideInterval):
            params.branch_digits(x)
        with pytest.raises(OutsideInterval):
            params.branches(x)
        return
    assert params.branch_digits(x) == want
    pairs = params.branches(x)
    assert tuple(i for i, _ in pairs) == want
    bx = params.beta * x
    for i, img in pairs:
        assert img == bx - i
        assert img.den > 0 and gcd(img.den, *img.nums) == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BRANCH_PARAMS), st.sampled_from(_EPS_CHOICES), st.data())
def test_branch_digits_match_exhaustive_loop(params, eps, data):
    # points spread over [-R/4, 5R/4], so some lie outside the interval
    field = params.field
    t = data.draw(st.fractions(F(-1, 4), F(5, 4), max_denominator=64))
    wiggle = field.element(data.draw(st.lists(
        st.fractions(F(-1, 100), F(1, 100), max_denominator=1000),
        min_size=field.degree, max_size=field.degree)))
    _agree(params, params.right_endpoint * t + wiggle, eps)


def _boundary_points(params):
    """0, R, R/2, and the points where beta*x - i is exactly 0 or R."""
    right, inv_beta = params.right_endpoint, params.beta.inverse()
    points = [params.field.zero, right, right * F(1, 2)]
    for i in range(params.m + 1):
        points += [inv_beta * i, (right + i) * inv_beta]
    return points


@pytest.mark.parametrize("eps", _EPS_CHOICES)
@pytest.mark.parametrize("params", _BRANCH_PARAMS)
def test_branch_digits_on_boundary_points(params, eps):
    field, right = params.field, params.right_endpoint
    for x in _boundary_points(params):
        for shift in (0, F(1, 10 ** 9), -F(1, 10 ** 9)):
            _agree(params, x + shift, eps)
    for x in (-field.one * F(1, 10 ** 9), right + F(1, 10 ** 9), -right, right * 2):
        _agree(params, x, eps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BRANCH_PARAMS), st.integers(1, 80), st.integers(1, 30), st.data())
def test_orbit_search_matches_the_field_element_oracle(params, state_cap, depth_cap, data):
    # points inside [0, R] (with or without a wiggle off the rational
    # multiples of R), outside it, and at the boundary points (shifted by 0
    # or +-1e-9); the integer-key search gives the FieldElement
    # search's states, edges and depths, or the same CapHit or
    # OutsideInterval
    field, right = params.field, params.right_endpoint
    kind = data.draw(st.sampled_from(["inside", "outside", "boundary"]))
    if kind == "boundary":
        x = data.draw(st.sampled_from(_boundary_points(params)))
        x += data.draw(st.sampled_from([0, F(1, 10 ** 9), -F(1, 10 ** 9)]))
    else:
        t = data.draw(st.fractions(F(1, 64), F(63, 64), max_denominator=64) if kind == "inside" else
                      st.one_of(st.fractions(F(-1, 4), F(-1, 64), max_denominator=64),
                                st.fractions(F(65, 64), F(5, 4), max_denominator=64)))
        wiggle = field.element(data.draw(st.lists(
            st.fractions(F(-1, 1000), F(1, 1000), max_denominator=1000),
            min_size=field.degree, max_size=field.degree)))
        x = right * t + (wiggle if kind == "inside" and data.draw(st.booleans()) else 0)
    _assert_same_search(params, x, state_cap, depth_cap)


@pytest.mark.parametrize("t", [F(1, 2), F(1, 3), F(1, 7), F(2, 5)])
@pytest.mark.parametrize("params", _BRANCH_PARAMS)
def test_closed_orbits_match_the_field_element_oracle(params, t):
    # orbits of up to 2269 states, or the same state cap hit at 3000
    _assert_same_search(params, params.right_endpoint * t, 3000, 1000)


def _assert_same_search(params, x, state_cap, depth_cap):
    """compute_orbit gives the FieldElement oracle's states, edges and
    discovery depths, or raises the same CapHit or OutsideInterval."""
    try:
        want = oracle_orbit(params, x, state_cap=state_cap, depth_cap=depth_cap)
    except (CapHit, OutsideInterval) as err:
        with pytest.raises(type(err)) as got:
            compute_orbit(params, x, state_cap=state_cap, depth_cap=depth_cap)
        assert str(got.value) == str(err)
        return
    graph = compute_orbit(params, x, state_cap=state_cap, depth_cap=depth_cap)
    assert (graph.states, graph.edges, graph.discovery_depth) == want


_CONFTEST_BASES = [(-1, -1, 1), (-1, -1, -1, -1, 0, 1), (-2, 1), (-1, -1, 0, 1),
                   (-1, 0, -1, 1), (-1, -1, -1, -1, 1), (-2, 0, 1), (-3, 0, 1)]
_FIELDS = {}
_MP_BETA = {}


def _mp_beta(field):
    """Beta to 80 digits: the real root of the minimal polynomial inside the
    field's enclosure."""
    if field.min_poly not in _MP_BETA:
        with mpmath.workdps(80):
            lo, hi = (mpmath.mpf(v.numerator) / v.denominator for v in field.beta_interval())
            roots = mpmath.polyroots(field.min_poly.coeffs[::-1], maxsteps=200, extraprec=200)
            _MP_BETA[field.min_poly] = next(
                r.real for r in roots
                if abs(r.imag) < mpmath.mpf(10) ** -70 and lo <= r.real <= hi)
    return _MP_BETA[field.min_poly]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_CONFTEST_BASES), st.integers(0, 64))
def test_power_table_encloses_the_powers_of_beta(minpoly, bits):
    # |beta^j 2^bits - t_j| <= 1 for every j < d, against mpmath at 80 digits
    field = _FIELDS.setdefault(minpoly, NumberField(IntPolynomial(minpoly)))
    beta, ladder = _mp_beta(field), list(field._rungs)
    table = dynamics._power_table(field, bits)
    assert len(table) == field.degree and field._rungs == ladder  # the ladder is only read
    with mpmath.workdps(80):
        for j, t in enumerate(table):
            assert abs(beta ** j * 2 ** bits - t) <= 1


def _orbit_json_mismatch(graph):
    """None when OrbitGraph.write_json writes the bytes of json.dumps(
    to_json(), indent=2), else the text around the first difference (a
    short message: a text diff of two large exports takes minutes)."""
    fh = io.StringIO()
    graph.write_json(fh)
    got, want = fh.getvalue(), json.dumps(graph.to_json(), indent=2)
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"at {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BRANCH_PARAMS), st.fractions(0, 1, max_denominator=12))
def test_orbit_json_writer_matches_json_dumps(params, t):
    # t = 0 gives the one-state orbit of x = 0
    try:
        graph = compute_orbit(params, params.right_endpoint * t, state_cap=300)
    except CapHit:
        return
    assert _orbit_json_mismatch(graph) is None


def test_orbit_json_writer_on_the_zero_orbit():
    for params in _BRANCH_PARAMS:
        graph = compute_orbit(params, params.field.zero)
        assert graph.size == 1 and graph.edges == [(0, 0, 0)]
        assert _orbit_json_mismatch(graph) is None


# === expansion generation ===

def test_greedy_golden(golden_params):
    run = generate_expansion(golden_params, golden_params.field.one, ExpansionRule.greedy())
    assert run.digits == (1, 1, 0)
    assert run.preperiod_length == 2
    assert run.period_length == 1
    assert run.period_digits == (0,)


def test_zero_is_fixed(golden_params):
    for rule in (ExpansionRule.greedy(), ExpansionRule.lazy(), ExpansionRule.alternating()):
        run = generate_expansion(golden_params, golden_params.field.zero, rule)
        assert run.preperiod_length == 0
        assert run.period_length == 1
        assert run.digits == (0,)


def test_greedy_picks_max_lazy_picks_min(golden_params):
    x = golden_params.field.one
    greedy = generate_expansion(golden_params, x, ExpansionRule.greedy())
    cur = x
    for d in greedy.digits:
        assert d == max(golden_params.branch_digits(cur))
        cur = golden_params.apply(d, cur)
    lazy = generate_expansion(golden_params, x, ExpansionRule.lazy())
    cur = x
    for d in lazy.digits:
        assert d == min(golden_params.branch_digits(cur))
        cur = golden_params.apply(d, cur)


def test_quintic_expansions_stay_in_orbit(quintic_params, quintic_x):
    from betaorbit import compute_orbit
    orbit = set(compute_orbit(quintic_params, quintic_x).states)
    for rule in (ExpansionRule.greedy(), ExpansionRule.lazy(), ExpansionRule.alternating()):
        run = generate_expansion(quintic_params, quintic_x, rule)
        assert run.is_periodic
        assert all(s in orbit for s in run.states_visited)
        assert expansion_value(quintic_params, run.preperiod_digits, run.period_digits) == quintic_x


def test_quintic_greedy_period(quintic_params, quintic_x):
    run = generate_expansion(quintic_params, quintic_x, ExpansionRule.greedy())
    assert (run.preperiod_length, run.period_length) == (0, 5)


def test_periodicity_for_field_points():
    # rational-field points stay periodic under every built-in rule when the
    # base is Pisot
    rules = [ExpansionRule.greedy(), ExpansionRule.lazy(), ExpansionRule.alternating()]
    for minpoly in [(-2, 1), (-1, -1, 1), (-1, -1, 0, 1)]:
        field = NumberField(IntPolynomial(minpoly))
        params = ExpansionParams(field, 1)
        b = field.beta
        for x in (field.one, field.from_rational(F(1, 2)), (b * b - 1).inverse()):
            for rule in rules:
                run = generate_expansion(params, x, rule, max_steps=10_000)
                assert run.is_periodic
                assert expansion_value(params, run.preperiod_digits, run.period_digits) == x


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CONFTEST_BASES), st.integers(1, 2),
       st.sampled_from(["greedy", "lazy", "alternating"]),
       st.integers(1, 15).flatmap(lambda q: st.integers(0, 4 * q).map(lambda a: F(a, q))))
def test_periodic_expansions_evaluate_back_to_x(minpoly, m, kind, x):
    # every periodic greedy, lazy or alternating expansion of a rational x in
    # [0, m/(beta-1)] sums back to x exactly (the sqrt bases need not close)
    field = _FIELDS.setdefault(minpoly, NumberField(IntPolynomial(minpoly)))
    if field.beta > m + 1:
        return
    params = ExpansionParams(field, m)
    point = field.from_rational(x)
    if not params.contains(point):
        return
    run = generate_expansion(params, point, getattr(ExpansionRule, kind)(), max_steps=400)
    if run.is_periodic:
        assert expansion_value(params, run.preperiod_digits, run.period_digits) == point


# the digit each rule takes at a step from the ascending admissible digits,
# written out apart from ExpansionRule.choose
_CHOICE = {"greedy": lambda step, branch: branch[-1],
           "lazy": lambda step, branch: branch[0],
           "alternating": lambda step, branch: branch[-1] if step % 2 == 0 else branch[0]}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_CONFTEST_BASES), st.integers(1, 2),
       st.sampled_from(["greedy", "lazy", "alternating"]),
       st.integers(1, 15).flatmap(lambda q: st.integers(0, 4 * q).map(lambda a: F(a, q))))
def test_printed_word_is_the_rules_own_expansion(minpoly, m, kind, x):
    # replaying the rule for preperiod + 2*period steps gives the preperiod
    # and the period twice, and neither is longer than it needs to be; the
    # run's states are the points before its digits
    field = _FIELDS.setdefault(minpoly, NumberField(IntPolynomial(minpoly)))
    if field.beta > m + 1:
        return
    params = ExpansionParams(field, m)
    point = field.from_rational(x)
    if not params.contains(point):
        return
    run = generate_expansion(params, point, getattr(ExpansionRule, kind)(), max_steps=400)
    if not run.is_periodic:
        return
    pre, per = run.preperiod_digits, run.period_digits
    replay, points, cur = [], [], point
    for step in range(len(pre) + 2 * len(per)):
        points.append(cur)
        replay.append(_CHOICE[kind](step, params.branch_digits(cur)))
        cur = params.apply(replay[-1], cur)
    assert tuple(replay) == pre + per + per
    assert run.states_visited == points[: len(pre) + len(per)]
    assert all(per[q:] + per[:q] != per for q in range(1, len(per)))
    assert not pre or pre[-1] != per[-1]


def test_no_period_within_budget(golden_params):
    run = generate_expansion(golden_params, golden_params.field.one,
                             ExpansionRule.greedy(), max_steps=1)
    assert not run.is_periodic
    assert run.period_digits == ()
    assert len(run.digits) == 1


# === closed forms ===

def test_expansion_value_geometric(golden_params):
    golden = golden_params.field
    # 0.11(0)^inf in base golden equals 1
    assert expansion_value(golden_params, (1, 1), (0,)) == golden.one
    # pure period (10)^inf: x = beta / (beta^2 - 1)
    b = golden.beta
    expected = b * (b * b - 1).inverse()
    assert expansion_value(golden_params, (), (1, 0)) == expected


# === digit word text forms ===

def test_digit_text_forms():
    assert digits_to_text((1, 1), 1, (0,)) == "11(0)"
    assert digits_to_text((10, 3), 12, (0, 1)) == "10,3(0,1)"
