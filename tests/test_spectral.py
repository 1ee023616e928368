import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import or_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from betaorbit import (
    DominanceStatus,
    ExpansionParams,
    IntPolynomial,
    NumberField,
    TransitionMatrix,
    char_polynomial,
    check_dominance,
    compute_orbit,
    count_profile_matrix,
    dimension,
    perron_eigenvalue,
    transition_matrix,
)
from betaorbit import polys, spectral
from betaorbit.cli import main
from betaorbit.errors import DominanceNotEstablished, ZeroMatrix
from betaorbit.polys import interval_mul
from betaorbit.spectral import _adjugate_eigenvector, _adjugate_row_sums
from rational_oracles import (
    count_roots_in_interval, divmod_poly, evaluate, evaluate_at_root, gcd_poly,
    normalize_eigenvector, whole_matrix_eigenvector, whole_matrix_perron_root,
)

F = Fraction


def _mat(rows):
    return TransitionMatrix.from_rows(rows)


# === characteristic polynomial ===

def test_char_poly_trivial():
    assert char_polynomial(_mat([[1]])) == (-1, 1)          # z - 1
    assert char_polynomial(_mat([[1, 1], [1, 1]])) == (0, -2, 1)  # z^2 - 2z


def test_char_poly_golden_matrix(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    chi = char_polynomial(transition_matrix(g))
    assert chi == (-1, 2, 0, -2, 1)  # (z-1)^3 (z+1)


def test_char_poly_quintic_matrix(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    chi = char_polynomial(transition_matrix(g))
    assert chi == (1, 0, 0, 0, 0, -2, 0, 0, -1, 0, 1)  # z^10 - z^8 - 2 z^5 + 1


def test_char_poly_permutation_invariant(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    chi = char_polynomial(mat)
    rng = random.Random(3)
    k = mat.size
    dense = mat.rows
    for _ in range(5):
        perm = list(range(k))
        rng.shuffle(perm)
        rows = tuple(
            tuple(dense[perm[i]][perm[j]] for j in range(k)) for i in range(k)
        )
        assert char_polynomial(_mat(rows)) == chi


# === dominant eigenvalue ===

def test_perron_all_ones():
    pr = perron_eigenvalue(_mat([[1, 1], [1, 1]]))
    assert pr.alpha == (F(2), F(2))  # a rational root stays an exact point
    lo0, hi0 = pr.eigenvector[0]
    lo1, hi1 = pr.eigenvector[1]
    inv_sqrt2 = 0.7071067811865476
    assert abs(float((lo0 + hi0) / 2) - inv_sqrt2) < 1e-9
    assert abs(float((lo1 + hi1) / 2) - inv_sqrt2) < 1e-9


def test_perron_rejects_zero_matrix():
    with pytest.raises(ZeroMatrix):
        perron_eigenvalue(_mat([[0, 0], [0, 0]]))


def test_perron_golden_is_one(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    pr = perron_eigenvalue(transition_matrix(g))
    assert pr.alpha == (F(1), F(1))
    # nonnegative eigenvector with a positive entry
    assert all(hi >= 0 for _, hi in pr.eigenvector)
    assert any(lo > 0 for lo, _ in pr.eigenvector)


def test_perron_quintic(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    tol = F(1, 10 ** 12)
    pr = perron_eigenvalue(mat, tol=tol)
    lo, hi = pr.alpha
    assert hi - lo <= tol
    assert lo <= F(13247179572447, 10 ** 13) <= hi  # plastic number 1.3247179572447...
    # row-sum bracket
    row_sums = [sum(r) for r in mat.rows]
    assert min(row_sums) <= hi and lo <= max(row_sums)


def test_perron_eigenvector_residual(quintic_params, quintic_x):
    # A v must meet alpha v componentwise as intervals
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    pr = perron_eigenvalue(mat)
    alo, ahi = pr.alpha
    dense = mat.rows
    for q in range(mat.size):
        slo = sum(pr.eigenvector[j][0] for j in range(mat.size) if dense[q][j])
        shi = sum(pr.eigenvector[j][1] for j in range(mat.size) if dense[q][j])
        tlo = min(alo * pr.eigenvector[q][0], alo * pr.eigenvector[q][1],
                  ahi * pr.eigenvector[q][0], ahi * pr.eigenvector[q][1])
        thi = max(alo * pr.eigenvector[q][0], alo * pr.eigenvector[q][1],
                  ahi * pr.eigenvector[q][0], ahi * pr.eigenvector[q][1])
        assert slo <= thi + F(1, 10 ** 9) and tlo <= shi + F(1, 10 ** 9)


def test_char_poly_sign_change_across_alpha(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    chi = char_polynomial(transition_matrix(g))
    sf = [F(c) for c in polys.squarefree_part_int(chi)]
    pr = perron_eigenvalue(transition_matrix(g))
    lo, hi = pr.alpha
    assert evaluate(sf, lo) * evaluate(sf, hi) < 0


# === dominance ===

def test_dominance_quintic(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    rep = check_dominance(transition_matrix(g))
    assert rep.status == DominanceStatus.VERIFIED_PRIMITIVE
    assert rep.strongly_connected
    assert rep.cycle_gcd == 1
    assert _primitivity_exponent(transition_matrix(g).rows) <= (10 - 1) ** 2 + 1


def test_dominance_golden_fails(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    rep = check_dominance(transition_matrix(g))
    assert rep.status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    assert not rep.strongly_connected


def test_dominance_identity_fails():
    rep = check_dominance(_mat([[1, 0], [0, 1]]))
    assert rep.status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM


def test_dominance_pure_cycle_fails_certified():
    # 3-cycle: strongly connected, gcd 3, peripheral spectrum is a full cycle
    rep = check_dominance(_mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert rep.status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    assert rep.strongly_connected
    assert rep.cycle_gcd == 3


def test_dominance_reducible_with_gap():
    # upper triangular: not strongly connected, eigenvalues 2 and 1
    rep = check_dominance(_mat([[2, 1], [0, 1]]))
    assert rep.status == DominanceStatus.VERIFIED_SPECTRAL_GAP
    assert not rep.strongly_connected


def test_dominance_single_self_loop():
    rep = check_dominance(_mat([[1]]))
    assert rep.status == DominanceStatus.VERIFIED_PRIMITIVE
    assert _primitivity_exponent([[1]]) == 1


def test_primitivity_exponent_reaches_the_wielandt_bound():
    # a k-cycle with one chord skipping a state: the first positive power is
    # A^((k-1)^2 + 1), the last one the search tries
    k = 64
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k] = 1
    rows[k - 1][1] = 1
    rep = check_dominance(_mat(rows))
    assert rep.status == DominanceStatus.VERIFIED_PRIMITIVE
    assert _primitivity_exponent(rows) == (k - 1) ** 2 + 1


# === dimension ===

def test_dimension_requires_dominance(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    mat = transition_matrix(g)
    pr = perron_eigenvalue(mat)
    dom = check_dominance(mat)
    with pytest.raises(DominanceNotEstablished):
        dimension(1, pr, dom)


def test_dimension_single_state(golden_params):
    g = compute_orbit(golden_params, golden_params.field.zero)
    mat = transition_matrix(g)
    pr = perron_eigenvalue(mat)
    dom = check_dominance(mat)
    res = dimension(1, pr, dom)
    assert res.dim == (F(0), F(0))


def test_dimension_full_shift():
    # alpha = m + 1 gives dimension exactly 1
    res = dimension(1, perron_eigenvalue(_mat([[1, 1], [1, 1]])),
                    check_dominance(_mat([[1, 1], [1, 1]])))
    assert res.dim[0] <= 1 <= res.dim[1] + F(1, 10 ** 30)
    assert res.dim[1] - res.dim[0] < F(1, 10 ** 30)


def test_dimension_quintic(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    res = dimension(1, perron_eigenvalue(mat), check_dominance(mat))
    lo, hi = res.dim
    assert res.status is DominanceStatus.VERIFIED_PRIMITIVE
    assert hi - lo < F(1, 10 ** 9)
    target = F(405685231375, 10 ** 12)  # log2 of the plastic number
    assert lo - F(1, 10 ** 9) <= target <= hi + F(1, 10 ** 9)


def test_dimension_slope_chain(quintic_params, quintic_x):
    # two-sided geometric-growth witnesses fitted on n in [1, 20] must keep
    # bounding the counts out of sample, which pins the finite-depth slopes
    # log2(N_n)/n to within log2(witness)/n of the dimension
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    pr = perron_eigenvalue(mat)
    res = dimension(1, pr, check_dominance(mat))
    dim_mid = float((res.dim[0] + res.dim[1]) / 2)
    profile = count_profile_matrix(mat, 40)
    alpha = float(pr.alpha_mid)
    fit = [profile[n][0] / alpha ** n for n in range(1, 21)]
    c_w, d_w = min(fit), max(fit)
    witness = max(d_w, 1.0 / c_w)
    for n in range(21, 41):
        r = profile[n][0] / alpha ** n
        assert c_w - 1e-9 <= r <= d_w + 1e-9
        slope = math.log2(profile[n][0]) / n
        assert abs(slope - dim_mid) <= math.log2(witness) / n + 1e-9
    # and the slopes do converge toward the dimension
    first = abs(math.log2(profile[5][0]) / 5 - dim_mid)
    last = abs(math.log2(profile[40][0]) / 40 - dim_mid)
    assert last < first


@pytest.mark.parametrize("m,exact", [(3, F(1, 2)), (7, F(1, 3))])
def test_dimension_of_alpha_two_contains_its_exact_log(m, exact):
    # log_4 2 = 1/2 and log_8 2 = 1/3: both were missed while Decimal.ln
    # rounded half-even under a directed context
    mat = _mat([[1, 1], [1, 1]])
    lo, hi = dimension(m, perron_eigenvalue(mat), check_dominance(mat)).dim
    assert lo <= exact <= hi


def test_dimension_refuses_alpha_above_m_plus_one():
    # alpha = 3 with m = 1 has log2 3 ~ 1.585, not a certified [1, 1]
    mat = _mat([[3]])
    with pytest.raises(ValueError, match="above m \\+ 1"):
        dimension(1, perron_eigenvalue(mat), check_dominance(mat))


def test_log_enclosures_contain_the_mpmath_logs():
    # differential test against 100-digit logs: ln on the rationals n/7 and
    # on a few wide ones, and log_{m+1} 2 for every m in 2..7
    mpmath = pytest.importorskip("mpmath")

    def exact(v):  # the 100-digit decimal of v, within 1e-99 of it
        return F(mpmath.nstr(v, 100, strip_zeros=False))

    with mpmath.workdps(100):
        xs = [F(n, 7) for n in range(1, 3000)] + [F(3 ** 200, 2 ** 300), F(1, 10 ** 60) + 1]
        for x in xs:
            lo, hi = spectral._ln_bounds(x)
            assert lo <= exact(mpmath.log(mpmath.mpf(x.numerator) / x.denominator)) <= hi, x
        for m in range(2, 8):
            lo, hi = spectral.log_base_interval((F(2), F(2)), m + 1)
            assert lo <= exact(mpmath.log(2) / mpmath.log(m + 1)) <= hi, m


# === adjugate eigenvector and sparse Faddeev-LeVerrier ===

def _dense_faddeev_leverrier(rows):
    """Reference: the textbook dense recurrence M <- A M + c I, c = -tr(A M)/s."""
    k = len(rows)
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    m = [[0] * k for _ in range(k)]
    for step in range(1, k + 1):
        prev_c = coeffs[k - step + 1]
        m = [[sum(rows[i][t] * m[t][j] for t in range(k)) + (prev_c if i == j else 0)
              for j in range(k)] for i in range(k)]
        tr = sum(rows[i][t] * m[t][i] for i in range(k) for t in range(k))
        assert tr % step == 0
        coeffs[k - step] = -tr // step
    return tuple(coeffs)


def _nonneg_matrices(max_k, max_entry=2):
    return st.integers(1, max_k).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, max_entry), min_size=k, max_size=k),
        min_size=k, max_size=k))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_nonneg_matrices(40))
def test_sparse_faddeev_leverrier_matches_dense(rows):
    mat = _mat(rows)
    k = mat.size
    assert mat.rows == tuple(map(tuple, rows))
    chi = char_polynomial(mat)
    assert chi == _dense_faddeev_leverrier(rows)
    adj_one = _adjugate_row_sums(mat, chi)
    # (zI - A) P(z) = chi(z) . 1 for P = adj(zI - A) . 1
    for i in range(k):
        lhs = [0] + list(adj_one[i])
        for j in range(k):
            for e, c in enumerate(adj_one[j]):
                lhs[e] -= rows[i][j] * c
        assert tuple(lhs) == chi


def _primitivity_exponent(rows):
    """Smallest t with A^t entrywise positive, searched up to the Wielandt
    bound (k-1)^2 + 1 with bitset boolean products: row i of A^t is the
    union of the rows of A^(t-1) at the successors of i.  None if no power
    up to the bound is positive, that is, if A is not primitive."""
    adj = [[j for j, v in enumerate(r) if v] for r in rows]
    k = len(adj)
    full = (1 << k) - 1
    cur = [sum(1 << j for j in a) for a in adj]
    for t in range(1, (k - 1) ** 2 + 2):
        if t > 1:
            cur = [reduce(or_, map(cur.__getitem__, a), 0) for a in adj]
        if all(row == full for row in cur):
            return t
    return None


def _dense_dominance_oracle(rows):
    """Reference for check_dominance's graph data from dense boolean powers:
    (strongly_connected, cycle_gcd, the least t with A^t positive)."""
    k = len(rows)
    a = [[v > 0 for v in r] for r in rows]

    def mul(x, y):
        return [[any(x[i][t] and y[t][j] for t in range(k)) for j in range(k)]
                for i in range(k)]

    powers = [a]  # boolean A^1 .. A^k
    for _ in range(k - 1):
        powers.append(mul(powers[-1], a))
    if not all(i == j or any(p[i][j] for p in powers) for i in range(k) for j in range(k)):
        return False, None, None
    # every closed walk splits into simple cycles, and those have length <= k
    g = 0
    for n, p in enumerate(powers, 1):
        if any(p[i][i] for i in range(k)):
            g = math.gcd(g, n)
    if g != 1:
        return True, g, None
    t, p = 1, a
    while not all(map(all, p)):
        t, p = t + 1, mul(p, a)
    return True, 1, t


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=k, max_size=k),
    min_size=k, max_size=k)))
@example([[0, 2, 0], [0, 0, 1], [1, 0, 0]])  # period 3
@example([[0, 1, 2, 0], [1, 0, 0, 1], [2, 0, 0, 1], [0, 1, 1, 0]])  # bipartite
@example([[0, 2], [1, 1]])
@example([[0]])  # the zero matrix
def test_dominance_graph_data_matches_dense_oracle(rows):
    if not any(map(any, rows)):  # nothing to dominate, as in perron_eigenvalue
        with pytest.raises(ZeroMatrix):
            check_dominance(_mat(rows))
        return
    rep = check_dominance(_mat(rows))
    connected, cycle_gcd, exponent = _dense_dominance_oracle(rows)
    assert (rep.strongly_connected, rep.cycle_gcd) == (connected, cycle_gcd)
    if rep.status == DominanceStatus.VERIFIED_PRIMITIVE:
        k = len(rows)
        assert exponent <= (k - 1) ** 2 + 1  # Wielandt
        assert _primitivity_exponent(rows) == exponent


def _dense_sccs(rows):
    """SCCs from a boolean transitive closure (Warshall), as sorted tuples."""
    k = len(rows)
    reach = [[v > 0 for v in r] for r in rows]
    for t in range(k):
        for i in range(k):
            if reach[i][t]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[t])]
    return {tuple(j for j in range(k) if j == i or reach[i][j] and reach[j][i])
            for i in range(k)}, reach


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 0, 1, 2)), min_size=k, max_size=k),
    min_size=k, max_size=k)))
@example([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 1]])  # loopless source, 2-cycle, loop
@example([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]])
@example([[0, 0], [0, 0]])
def test_scc_periods_match_dense_cycle_gcd(rows):
    # each SCC's period from the Tarjan walk is the cycle gcd of its diagonal
    # block, and 0 for a single state without a loop; every edge inside an
    # SCC of period p steps its cyclic class by 1 mod p
    comps = spectral._sccs([[j for j, v in enumerate(r) if v] for r in rows])
    assert {tuple(sorted(comp)) for comp, _, _ in comps} == _dense_sccs(rows)[0]
    assert sum(len(comp) for comp, _, _ in comps) == len(rows)
    for comp, period, phase in comps:
        sub = [[rows[i][j] for j in comp] for i in comp]
        if len(comp) == 1 and not sub[0][0]:
            assert period == 0
        else:
            assert period == _dense_dominance_oracle(sub)[1] > 0
        for (u, cu), (v, cv) in [(a, b) for a in zip(comp, phase) for b in zip(comp, phase)]:
            if rows[u][v]:
                assert cv == (cu + 1) % period if period > 1 else cu == cv == 0


def _assert_perron_eigenvector(mat, pr):
    """A v meets alpha v entrywise as intervals, v >= 0, and the box holds
    a unit vector."""
    alpha = pr.alpha
    vec = pr.eigenvector
    for i, row in enumerate(mat.rows):
        av = (sum(a * vec[j][0] for j, a in enumerate(row)),
              sum(a * vec[j][1] for j, a in enumerate(row)))
        lam_v = interval_mul(alpha, vec[i])
        assert max(av[0], lam_v[0]) <= min(av[1], lam_v[1]), f"residual misses at {i}"
    assert all(hi >= 0 for _, hi in vec)
    assert any(lo > 0 for lo, _ in vec)
    norm2_lo = sum(F(0) if lo <= 0 <= hi else min(lo * lo, hi * hi) for lo, hi in vec)
    norm2_hi = sum(max(lo * lo, hi * hi) for lo, hi in vec)
    assert norm2_lo <= 1 <= norm2_hi


# inputs of the `certify` benchmark workload, then golden x = 1 (alpha = 1)
_ORBIT_CASES = [
    ((-1, -1, -1, -1, 0, 1), 1, "1/(b^2-1)"),
    ((-1, -1, 0, 1), 1, "1/(b^3-1)"),
    ((-1, 0, -1, 1), 1, "2/b^2"),
    ((-1, -1, -1, -1, 1), 2, "2/b^2"),
    ((-1, -1, 1), 1, "1/3"),
    ((-1, -1, 1), 1, "1/5"),
    ((-1, -1, 1), 1, "1"),
]


@pytest.mark.parametrize("minpoly,m,point", _ORBIT_CASES)
def test_perron_eigenvector_orbit_matrices(minpoly, m, point):
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    mat = transition_matrix(compute_orbit(params, params.parse_point(point)))
    pr = perron_eigenvalue(mat)
    assert pr.alpha[1] - pr.alpha[0] <= F(1, 10 ** 12)
    _assert_perron_eigenvector(mat, pr)


@pytest.mark.parametrize("minpoly,m,point", [_ORBIT_CASES[i] for i in (0, 2, 4)])
def test_unit_eigenvector_boxes_meet_across_tolerances(minpoly, m, point):
    # both boxes must hold the same unit vector; dividing by the norm of the
    # midpoints instead of norm bounds over the box breaks this
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    mat = transition_matrix(compute_orbit(params, params.parse_point(point)))
    coarse = perron_eigenvalue(mat, F(1, 10 ** 12)).eigenvector
    fine = perron_eigenvalue(mat, F(1, 10 ** 40)).eigenvector
    for a, b in zip(coarse, fine):
        assert max(a[0], b[0]) <= min(a[1], b[1])


@settings(max_examples=30, deadline=None)
@given(_nonneg_matrices(6))
def test_perron_eigenvector_random_matrices(rows):
    mat = _mat(rows)
    if all(v == 0 for row in rows for v in row):
        return
    _assert_perron_eigenvector(mat, perron_eigenvalue(mat))


_ONES = [[1, 1], [1, 1]]
_GOLD = [[1, 1], [1, 0]]


def _block_diag(*blocks):
    k = sum(len(b) for b in blocks)
    rows = [[0] * k for _ in range(k)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    return rows


# P = adj(zI - A) . 1 vanishes at alpha for all but the first and [[2,1],[0,2]]
_SOURCE_FEEDS_TWO_GOLDEN = [[0, 1, 0, 1, 0]] + [[0] + r for r in _block_diag(_GOLD, _GOLD)]


@pytest.mark.parametrize("rows", [
    _ONES,
    _block_diag(_ONES, _ONES),
    _block_diag(_GOLD, _GOLD),
    _SOURCE_FEEDS_TWO_GOLDEN,
    [[2, 1], [0, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
], ids=["ones", "two-ones-blocks", "two-golden-blocks", "source-feeds-golden", "jordan-2", "identity"])
def test_perron_eigenvector_degenerate(rows):
    mat = _mat(rows)
    _assert_perron_eigenvector(mat, perron_eigenvalue(mat))


def test_perron_eigenvector_degenerate_values():
    pr = perron_eigenvalue(_mat(_block_diag(_ONES, _ONES)))
    assert pr.alpha == (F(2), F(2))
    for lo, hi in pr.eigenvector:
        assert lo <= F(1, 2) <= hi
    pr = perron_eigenvalue(_mat([[2, 1], [0, 2]]))
    assert pr.eigenvector[1] == (F(0), F(0))


def test_golden_seventh_regression(capsys):
    # golden ratio, m = 1, x = 1/7: one SCC of period 16, and a squarefree
    # characteristic polynomial of degree 32 whose largest root is alpha
    params = ExpansionParams(NumberField(IntPolynomial((-1, -1, 1))), 1)
    mat = transition_matrix(compute_orbit(params, params.parse_point("1/7")))
    assert mat.size == 32
    pr = perron_eigenvalue(mat)
    assert pr.char_poly == (1,) + (0,) * 15 + (-18,) + (0,) * 15 + (1,)  # z^32 - 18 z^16 + 1
    # alpha = phi^(3/8): alpha^16 = phi^6 = 9 + 4 sqrt(5), i.e. (alpha^16 - 9)^2 = 80
    lo, hi = pr.alpha
    assert 9 < lo ** 16 and (lo ** 16 - 9) ** 2 <= 80 <= (hi ** 16 - 9) ** 2
    _assert_perron_eigenvector(mat, pr)
    assert check_dominance(mat).status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    code = main(["dimension", "--minpoly", "-1,-1,1", "-m", "1", "-x", "1/7", "--format", "json"])
    assert code == 5
    assert json.loads(capsys.readouterr().out)["condition1"] == "FailedPeripheralSpectrum"


# === one enclosure path, checked against the NumberField route ===

def _number_field_route(mat, tol):
    """Reference oracle: alpha and P(alpha) the way perron_eigenvalue once
    took them, through a NumberField on the squarefree part refined with
    refine_beta and FieldElement.approx per entry (sign-fixed)."""
    chi = char_polynomial(mat)
    chi_sf = polys.squarefree_part_int(chi)
    field = NumberField(IntPolynomial(chi_sf))
    lo, hi = field.beta_interval()
    while hi - lo > tol:
        lo, hi = field.refine_beta()
    reduced = [divmod_poly(p, chi_sf)[1] for p in _adjugate_row_sums(mat, chi)]
    rough = [field.element(p).approx(F(1, 2 ** 48)) for p in reduced]
    scale = max(max(abs(a), abs(b)) for a, b in rough)
    boxes = [field.element(p).approx(tol * scale) for p in reduced]
    if not any(a > 0 for a, _ in rough):
        boxes = [(-b, -a) for a, b in boxes]
    return (lo, hi), boxes


@pytest.mark.parametrize("minpoly,m,point", _ORBIT_CASES[:-1])
def test_single_path_matches_number_field_route(minpoly, m, point):
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    mat = transition_matrix(compute_orbit(params, params.parse_point(point)))
    tol = F(1, 10 ** 12)
    alpha, boxes = _number_field_route(mat, tol)
    pr = perron_eigenvalue(mat, tol)
    assert pr.alpha[0] < pr.alpha[1] and pr.alpha == alpha
    chi = pr.char_poly
    vec = _adjugate_eigenvector(chi, _adjugate_row_sums(mat, chi),
                                spectral._PerronRoot(polys.squarefree_part_int(chi), list(pr.alpha)),
                                pr.alpha, tol)
    for (lo, hi, s), b in zip(vec, boxes):
        a = F(lo, s), F(hi, s)
        assert max(a[0], b[0]) <= min(a[1], b[1])


@pytest.mark.parametrize("rows", [
    None,  # the quintic reference orbit (irrational alpha)
    [[1, 1], [1, 1]],
    _block_diag(_GOLD, _GOLD),
    [[2, 1], [0, 2]],
    "1/3",  # golden 1/3: one SCC of period 8, |C_0| = 2
    "1/5",  # golden 1/5: one SCC of period 20, |C_0| = 1
], ids=["quintic", "ones", "two-golden-blocks", "jordan-2", "golden-third", "golden-fifth"])
def test_perron_isolates_once_without_number_field(rows, quintic_params, quintic_x,
                                                   golden_params, monkeypatch):
    # one isolation, of sf(chi_A), or of g (degree <= |C_0|) on one SCC of period > 1
    if rows is None:
        mat = transition_matrix(compute_orbit(quintic_params, quintic_x))
    elif isinstance(rows, str):
        mat = transition_matrix(compute_orbit(golden_params, golden_params.parse_point(rows)))
    else:
        mat = _mat(rows)
    calls = {"isolate": 0, "field": 0}
    degrees = []
    isolate = polys.isolate_real_roots
    field_init = NumberField.__init__

    def counting_isolate(p, *args, **kwargs):
        calls["isolate"] += 1
        degrees.append(len(p) - 1)
        return isolate(p, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["field"] += 1
        field_init(self, *args, **kwargs)

    monkeypatch.setattr(polys, "isolate_real_roots", counting_isolate)
    monkeypatch.setattr(NumberField, "__init__", counting_init)
    pr = perron_eigenvalue(mat)
    _assert_perron_eigenvector(mat, pr)
    assert calls == {"isolate": 1, "field": 0}
    if _one_cyclic_scc(mat):
        assert degrees[0] <= len(spectral._structure(mat).blocks[0].classes[0])
    else:
        assert degrees == [len(polys.squarefree_part_int(pr.char_poly)) - 1]


# === the eigenvector stage in integers, against its Fraction copies ===

def _one_cyclic_scc(mat):
    structure = spectral._structure(mat)
    return len(structure.comps) == 1 and structure.blocks[0].period > 1


def _assert_stage_matches_the_fraction_oracles(mat, tol=F(1, 10 ** 12)):
    """The integer _evaluate_at_root and _normalize_eigenvector, on the whole
    matrix's adjugate, return exactly (==) the rationals of the Fraction
    routines in rational_oracles, and narrow alpha's enclosure to the same
    interval; perron_eigenvalue returns that vector unless the graph is one
    SCC of period > 1, whose vector comes from B0 and must meet it."""
    chi, chi_sf, alpha = whole_matrix_perron_root(mat, tol)
    root = spectral._PerronRoot(chi_sf, list(alpha))
    adj_one = _adjugate_row_sums(mat, chi)
    reduced = [polys.divmod_monic(p, chi_sf)[1] for p in adj_one]
    for eps in (F(1, 2 ** 48), tol):
        got, (a, b, e) = spectral._evaluate_at_root(
            reduced, root, polys.integer_endpoints(*alpha), eps)
        want, at = evaluate_at_root(reduced, chi_sf, alpha, eps)
        assert [(F(lo, s), F(hi, s)) for lo, hi, s in got] == want
        assert (F(a, e), F(b, e)) == at
    vec = _adjugate_eigenvector(chi, adj_one, root, alpha, tol)
    unit = spectral._normalize_eigenvector(vec)
    assert unit == normalize_eigenvector([(F(lo, s), F(hi, s)) for lo, hi, s in vec])
    pr = perron_eigenvalue(mat, tol)
    assert pr.alpha == alpha
    if _one_cyclic_scc(mat):
        assert all(max(x[0], y[0]) <= min(x[1], y[1]) for x, y in zip(pr.eigenvector, unit))
    else:
        assert unit == pr.eigenvector


@settings(max_examples=40, deadline=None)
@given(_nonneg_matrices(12))
def test_integer_eigenvector_stage_matches_fractions_on_random_matrices(rows):
    if any(map(any, rows)):
        _assert_stage_matches_the_fraction_oracles(_mat(rows))


@pytest.mark.parametrize("minpoly,m,point", _ORBIT_CASES)
def test_integer_eigenvector_stage_matches_fractions_on_orbit_matrices(minpoly, m, point):
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    _assert_stage_matches_the_fraction_oracles(
        transition_matrix(compute_orbit(params, params.parse_point(point))))


# === one halving rule, and an adjugate that needs no sign fixed ===

def _sign_reads(run):
    with mock.patch.object(polys, "sign_at", wraps=polys.sign_at) as sign_at:
        out = run()
    return out, sign_at.call_count


def _assert_halve_is_bisect_step(mat, steps=40):
    """From alpha's isolating interval, _halve picks at every period the
    halves polys.bisect_step picks on sf(chi_A), and at period 1 it reads
    one sign a halving (none on an exact point), as bisect_step does."""
    chi, root, (lo, hi) = spectral._isolation(mat)
    chi_sf = polys.squarefree_part_int(chi)
    start = polys.integer_endpoints(lo, hi)

    def halve():
        at = [start]
        for _ in range(steps):
            at.append(spectral._halve(root, *at[-1]))
        return at

    def bisect():
        at = [start]
        left = polys.sign_at(chi_sf, start[0], start[2])
        for _ in range(steps):
            at.append(polys.bisect_step(chi_sf, *at[-1], left))
        return at

    ours, reads = _sign_reads(halve)
    assert ours == bisect()
    if root.p == 1:
        assert reads == (steps if lo < hi else 0)


def _primitive_matrices(max_k):
    """Random nonnegative matrices made primitive by a cycle through every
    state and a loop at state 0."""
    return _nonneg_matrices(max_k).map(lambda rows: [
        [max(v, int(j == (i + 1) % len(rows) or i == j == 0)) for j, v in enumerate(row)]
        for i, row in enumerate(rows)])


@settings(max_examples=60, deadline=None)
@given(_primitive_matrices(8))
@example([[1]])  # alpha = 1, an exact point
@example([[1, 1], [1, 0]])
def test_halve_matches_bisect_step_on_random_primitive_matrices(rows):
    _assert_halve_is_bisect_step(_mat(rows))


@pytest.mark.parametrize("minpoly,m,point", _ORBIT_CASES)
def test_halve_matches_bisect_step_on_orbit_matrices(minpoly, m, point):
    _assert_halve_is_bisect_step(_orbit_matrix(minpoly, m, point))


def _evaluated_enclosures(mat):
    """Every enclosure _evaluate_at_root returns while perron_eigenvalue runs."""
    seen = []
    evaluate = spectral._evaluate_at_root

    def record(*args):
        out = evaluate(*args)
        seen.extend(out[0])
        return out

    with mock.patch.object(spectral, "_evaluate_at_root", record):
        perron_eigenvalue(mat)
    return seen


# one golden block feeding two more: phi three times over, of index 2
_BLOCK_FEEDS_TWO_GOLDEN = [[1, 1, 1, 0, 1, 0]] + _block_diag(_GOLD, _GOLD, _GOLD)[1:]


@settings(max_examples=60, deadline=None)
@given(_nonneg_matrices(10))
@example(_block_diag(_GOLD, _GOLD))
@example(_BLOCK_FEEDS_TWO_GOLDEN)
@example(_SOURCE_FEEDS_TWO_GOLDEN)
def test_no_adjugate_enclosure_lies_below_zero(rows):
    # alpha*I - A is a singular M-matrix: adj(zI - A) . 1, and its quotient
    # by a common factor, is >= 0 at alpha, so the rough enclosures that
    # decide when to stop dividing, and the final ones, all reach 0 or above
    if any(map(any, rows)):
        enclosures = _evaluated_enclosures(_mat(rows))
        assert enclosures and all(hi >= 0 for _, hi, _ in enclosures)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 40), st.integers(1, 12)),
                min_size=1, max_size=12))
@example([(0, 0, 1)])  # all entries symmetric about 0: returned unscaled
@example([(-1, 2, 1)])  # a norm box that reaches 0
def test_normalize_picks_each_quotient_bound_by_sign(entries):
    # signed boxes reach every branch: each bound's sign, a zero top, a zero norm
    ivs = [(lo, lo + w, s) for lo, w, s in entries]
    try:
        want = normalize_eigenvector([(F(lo, s), F(hi, s)) for lo, hi, s in ivs])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            spectral._normalize_eigenvector(ivs)
        return
    assert spectral._normalize_eigenvector(ivs) == want


@pytest.mark.parametrize("argv,stage", [
    # verified, exit 0
    (("--minpoly", "-1,-1,-1,-1,0,1", "-m", "1", "-x", "1/(b^2-1)"), "_adjugate_eigenvector"),
    # period 8, exit 5
    (("--minpoly", "-1,-1,1", "-m", "1", "-x", "1/3"), "_cyclic_eigenvector"),
], ids=["argv0", "argv1"])
def test_table_dimension_never_enters_the_eigenvector_stage(argv, stage, capsys, monkeypatch):
    calls = []
    for name in ("_adjugate_row_sums", "_adjugate_eigenvector", "_cyclic_eigenvector", "_spread",
                 "_evaluate_at_root", "_normalize_eigenvector"):
        monkeypatch.setattr(spectral, name,
                            lambda *a, _name=name, _real=getattr(spectral, name):
                            calls.append(_name) or _real(*a))
    code = main(["dimension", *argv])
    table = capsys.readouterr().out
    assert calls == []
    assert main(["dimension", *argv, "--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert stage in calls and len(report["eigenvector"]) == report["k"]
    assert f"alpha in [{report['alpha'][0]}, {report['alpha'][1]}]" in table


# === exact dominance rule for graphs that are not strongly connected ===

def test_dominance_defective_double_root_fails():
    # two 2-cycles, {1, 3} and {2, 4}, joined by the edge 4 -> 3: both have
    # Perron root 1, and a float eigensolver splits the defective double
    # eigenvalue 1 by ~6e-9
    rows = [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0],
            [0, 0, 1, 1, 0]]
    rep = check_dominance(_mat(rows))
    assert rep.status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    assert not rep.strongly_connected


def test_dominance_tie_below_the_top_block_is_a_gap():
    # two period-2 blocks with Perron root sqrt(2) tie below a weight-2
    # self-loop, which alone attains the maximum
    rows = [[0, 0, 0, 2, 0], [0, 0, 2, 0, 0], [0, 1, 0, 0, 0], [1, 0, 2, 0, 0],
            [2, 0, 0, 0, 2]]
    assert check_dominance(_mat(rows)).status == DominanceStatus.VERIFIED_SPECTRAL_GAP


def _dense_dominance_status(rows):
    """Reference verdict of check_dominance from dense data: SCCs from a
    boolean transitive closure, each block's period from the dense cycle-gcd
    oracle, and its Perron root from perron_eigenvalue; two roots whose
    enclosures meet are equal exactly when the gcd of the blocks' dense
    characteristic polynomials has a root where the enclosures meet."""
    comps, reach = _dense_sccs(rows)
    if len(comps) == 1:
        g = _dense_dominance_oracle(rows)[1]
        return DominanceStatus.VERIFIED_PRIMITIVE if g == 1 \
            else DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    roots = []
    for comp in comps:
        if reach[comp[0]][comp[0]]:
            sub = [[rows[i][j] for j in comp] for i in comp]
            alpha = perron_eigenvalue(_mat(sub), tol=F(1, 10 ** 30)).alpha
            roots.append((alpha, _dense_faddeev_leverrier(sub), _dense_dominance_oracle(sub)[1]))

    def above(a, b):
        lo, hi = max(a[0][0], b[0][0]), min(a[0][1], b[0][1])
        if lo <= hi:
            g = gcd_poly(a[1], b[1])  # monic over Z by Gauss's lemma
            assert all(c.denominator == 1 for c in g)
            assert count_roots_in_interval([c.numerator for c in g], lo, hi), \
                "enclosures too wide to separate"
            return False
        return a[0][0] > b[0][1]

    top = [r for r in roots if not any(above(o, r) for o in roots)]
    if len(top) == 1 and top[0][2] == 1:
        return DominanceStatus.VERIFIED_SPECTRAL_GAP
    return DominanceStatus.FAILED_PERIPHERAL_SPECTRUM


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 0, 1, 2)), min_size=k, max_size=k),
    min_size=k, max_size=k)))
@example([[0, 1, 1], [0, 0, 1], [0, 0, 0]])  # edges but no cycle: every eigenvalue is 0
@example([[0, 0], [0, 0]])  # the zero matrix: ZeroMatrix
@example([[1, 0, 0], [0, 0, 1], [0, 1, 0]])  # a loop and a 2-cycle tie at 1
@example(_SOURCE_FEEDS_TWO_GOLDEN)  # two golden blocks tie at phi
@example([[0, 2, 1], [2, 0, 0], [0, 0, 1]])  # the only top SCC has period 2
# golden [[1, 1], [1, 0]] on {0, 1} beside a period-2 SCC, C0 = {2, 3} and
# C1 = {4, 5, 6}, whose B0 = [[2, 1], [1, 1]] has Perron root phi^2: both
# attain phi, an irrational tie
@example([[1, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 1, 0],
          [0, 0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
          [0, 0, 0, 1, 0, 0, 0]])
def test_dominance_matches_dense_oracle(rows):
    if not any(map(any, rows)):  # nothing to dominate, as in perron_eigenvalue
        with pytest.raises(ZeroMatrix):
            check_dominance(_mat(rows))
        return
    assert check_dominance(_mat(rows)).status == _dense_dominance_status(rows)


# each command runs with numpy blocked: an import of it raises ImportError
_NUMPY_FREE_SCRIPT = """
import sys
sys.modules["numpy"] = None
from betaorbit.cli import main
for argv in sys.argv[1:]:
    print("exit", main(argv.split()))
"""


def test_cli_runs_without_numpy():
    root = Path(polys.__file__).resolve().parents[2]
    golden = Path(__file__).parent / "data" / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = ["pisot --minpoly=-1,-1,-1,-1,0,1",
            "dimension --minpoly=-1,-1,0,1 -m 1 -x 1/(b^3-1) --format json",
            "dimension --minpoly=-1,-1,1 -m 1 -x 1"]
    out = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    expected = ((golden / "readme_pisot" / "stdout").read_text() + "exit 0\n"
                + (golden / "dimension_plastic" / "stdout").read_text() + "exit 0\n")
    assert out.startswith(expected)
    table = out[len(expected):].splitlines()
    assert table[:1] == ["k = 4"] and "condition1: FailedPeripheralSpectrum" in table
    assert table[-1] == "exit 5"
    # and the package declares no runtime dependency
    pyproject = (root / "pyproject.toml").read_text()
    assert not any(line.split("=")[0].strip() == "dependencies" for line in pyproject.splitlines())


# === the integer kernel on the Perron root path ===

@settings(max_examples=60, deadline=None)
@given(_nonneg_matrices(8))
def test_integer_reduction_matches_rational_division(rows):
    # the adjugate rows are reduced mod chi_sf by integer elimination
    mat = _mat(rows)
    chi = char_polynomial(mat)
    chi_sf = polys.squarefree_part_int(chi)
    for p in _adjugate_row_sums(mat, chi):
        got = polys.divmod_monic(p, chi_sf)[1]
        assert tuple(got) == divmod_poly(p, chi_sf)[1]
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("case", [
    "quintic", "golden-fifth", _block_diag(_GOLD, _GOLD), _SOURCE_FEEDS_TWO_GOLDEN,
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
], ids=["quintic", "golden-fifth", "two-golden-blocks", "source-feeds-golden", "identity"])
def test_perron_path_makes_no_rational_evaluate_or_sturm_chain(
        case, quintic_params, quintic_x, golden_params, monkeypatch):
    # the last three take the common-factor path: gcd_int finds the factor,
    # and the rows and chi/t are divided by it in the integers
    if case == "quintic":
        mat = transition_matrix(compute_orbit(quintic_params, quintic_x))
    elif case == "golden-fifth":
        mat = transition_matrix(compute_orbit(golden_params, golden_params.parse_point("1/5")))
    else:
        mat = _mat(case)
    # the rational oracles and the rational polynomial ring live with the
    # tests, out of the Perron path's reach
    assert not any(hasattr(polys, n) for n in (
        "evaluate", "sturm_chain", "squarefree_part",
        "add", "negate", "mul", "divmod_poly", "monic", "gcd_poly"))
    calls, chains = [], []
    gcd_int, sturm_chain_int = polys.gcd_int, polys.sturm_chain_int
    monkeypatch.setattr(polys, "gcd_int", lambda *a: calls.append(1) or gcd_int(*a))
    monkeypatch.setattr(polys, "sturm_chain_int",
                        lambda p: chains.append(len(p) - 1) or sturm_chain_int(p))
    pr = perron_eigenvalue(mat)
    assert (len(calls) > 0) == isinstance(case, list)
    _assert_perron_eigenvector(mat, pr)
    # the Sturm chains have at most the degree of B0 on one SCC of period > 1
    cyclic = _one_cyclic_scc(mat)
    assert cyclic == (case == "golden-fifth")
    assert max(chains) <= (len(spectral._structure(mat).blocks[0].classes[0]) if cyclic else mat.size)


# === one structure: blocks, cyclic classes, the replayed root and B0's vector ===

def _cyclic_rows(rng, p, sizes, density, max_weight):
    """A random single SCC whose edges go from class c to class c+1 mod p,
    states shuffled: a closed walk through every state (class c, state
    r mod |C_c| at step c + p r) makes it strongly connected, and random
    edges of the same kind are added.  Its period is a multiple of p."""
    start = [sum(sizes[:c]) for c in range(p)]
    k = sum(sizes)
    rows = [[0] * k for _ in range(k)]
    laps = math.lcm(*sizes)
    walk = [start[t % p] + (t // p) % sizes[t % p] for t in range(p * laps)]
    for u, v in zip(walk, walk[1:] + walk[:1]):
        rows[u][v] = rng.randint(1, max_weight)
    for c in range(p):
        for i in range(start[c], start[c] + sizes[c]):
            nxt = (c + 1) % p
            for j in range(start[nxt], start[nxt] + sizes[nxt]):
                if rng.random() < density:
                    rows[i][j] = rng.randint(1, max_weight)
    perm = list(range(k))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)]


def _random_cyclic(seed, max_p=6, max_size=4):
    rng = random.Random(seed)
    p = rng.randint(2, max_p)
    sizes = [rng.randint(1, max_size) for _ in range(p)]
    return _cyclic_rows(rng, p, sizes, rng.choice((0.0, 0.3, 1.0)), rng.choice((1, 1, 2, 3)))


def _random_mixed(seed, max_k=60):
    """Diagonal blocks of every kind (an imprimitive SCC, a random sparse
    weighted matrix, a nilpotent upper-triangular part), joined by random
    edges from earlier blocks to later ones, states shuffled, k <= max_k."""
    rng = random.Random(seed)
    blocks = [_random_cyclic(rng.randrange(2 ** 32), max_p=5, max_size=3)]
    n = rng.randint(1, 12)
    blocks.append([[rng.choice((0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
    n = rng.randint(1, 6)
    blocks.append([[rng.randint(0, 1) if j > i else 0 for j in range(n)] for i in range(n)])
    rng.shuffle(blocks)
    rows = _block_diag(*blocks)
    k = min(len(rows), max_k)
    rows = [r[:k] for r in rows[:k]]
    for i in range(k):
        for j in range(i + 1, k):
            if not rows[i][j] and rng.random() < 0.05:
                rows[i][j] = 1
    perm = list(range(k))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)]


def _orbit_matrix(minpoly, m, point):
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    return transition_matrix(compute_orbit(params, params.parse_point(point)))


# golden 1/3, 1/5 and 1/7 and cubic 1/3: each one SCC of period > 1
_CYCLIC_ORBITS = [
    ((-1, -1, 1), 1, "1/3"),
    ((-1, -1, 1), 1, "1/5"),
    ((-1, -1, 1), 1, "1/7"),
    ((-1, 0, -1, 1), 1, "1/3"),
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _nonneg_matrices(20),
    st.integers(0, 2 ** 32).map(_random_cyclic),
    st.integers(0, 2 ** 32).map(_random_mixed),
))
@example(_SOURCE_FEEDS_TWO_GOLDEN)
@example([[0, 1, 1], [0, 0, 1], [0, 0, 0]])  # no cycle: chi = z^3
def test_block_char_poly_matches_whole_matrix_faddeev_leverrier(rows):
    mat = _mat(rows)
    assert char_polynomial(mat) == spectral._faddeev_leverrier(mat)
    # every edge inside an SCC of period p goes from class c to class c + 1 mod p
    for block in spectral._structure(mat).blocks:
        cls = {i: c for c, members in enumerate(block.classes) for i in members}
        assert sorted(cls) == list(range(block.matrix.size))
        assert len(block.classes[0]) == min(map(len, block.classes))
        for i, terms in enumerate(block.matrix.succ):
            assert all(cls[j] == (cls[i] + 1) % block.period for j, _ in terms)
        # rows list their columns ascending, so the dense writers can slice them
        assert all([j for j, _ in t] == sorted(j for j, _ in t) for t in block.matrix.succ)
        assert block.matrix.to_csv() == "".join(
            ",".join(map(str, r)) + "\n" for r in block.matrix.rows)


@pytest.mark.parametrize("minpoly,m,point", _ORBIT_CASES + _CYCLIC_ORBITS)
def test_block_char_poly_matches_whole_matrix_on_orbit_matrices(minpoly, m, point):
    mat = _orbit_matrix(minpoly, m, point)
    assert char_polynomial(mat) == spectral._faddeev_leverrier(mat)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32).map(_random_cyclic),
       st.sampled_from([F(1, 10 ** 12), F(1, 3), F(5), F(1, 2 ** 90)]))
@example([[0, 1], [1, 0]], F(1, 10 ** 12))  # alpha = 1, an exact point
@example([[0, 2], [2, 0]], F(1, 10 ** 12))  # alpha = 2, an exact point
@example([[0, 1], [2, 0]], F(1, 10 ** 12))  # alpha = sqrt 2 from the integer root 2 of g
# A01 = I, A10 = [[2, 1], [1, 2]]: chi = (z^2 - 3)(z^2 - 1), alpha = sqrt 3
# isolated after the integer roots -1 and 1 are deflated
@example([[0, 0, 1, 0], [0, 0, 0, 1], [2, 1, 0, 0], [1, 2, 0, 0]], F(1, 10 ** 12))
@example([[0, 0, 1, 0], [0, 0, 0, 1], [2, 1, 0, 0], [1, 2, 0, 0]], F(5))
def test_replayed_alpha_matches_the_whole_matrix_route(rows, tol):
    mat = _mat(rows)
    assert _one_cyclic_scc(mat)
    chi, root, alpha = spectral._perron_root(mat, tol)
    assert root.p > 1
    assert (chi, alpha) == whole_matrix_perron_root(mat, tol)[::2]


@pytest.mark.parametrize("minpoly,m,point", _CYCLIC_ORBITS)
@pytest.mark.parametrize("tol", [F(1, 10 ** 12), F(1, 10 ** 40)])
def test_replayed_alpha_matches_the_whole_matrix_route_on_orbits(minpoly, m, point, tol):
    mat = _orbit_matrix(minpoly, m, point)
    assert _one_cyclic_scc(mat)
    chi, root, alpha = spectral._perron_root(mat, tol)
    assert (chi, alpha) == whole_matrix_perron_root(mat, tol)[::2]


def _assert_meets_the_whole_matrix_adjugate(mat, tol=F(1, 10 ** 12)):
    pr = perron_eigenvalue(mat, tol)
    alpha, unit = whole_matrix_eigenvector(mat, tol)
    assert pr.alpha == alpha
    for new, old in zip(pr.eigenvector, unit, strict=True):
        assert max(new[0], old[0]) <= min(new[1], old[1])
    _assert_perron_eigenvector(mat, pr)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32).map(_random_cyclic))
@example([[0, 1], [1, 0]])  # alpha = 1: every enclosure is exact
@example([[0, 0, 1, 0], [0, 0, 0, 1], [2, 1, 0, 0], [1, 2, 0, 0]])  # alpha = sqrt 3
def test_cyclic_eigenvector_meets_the_whole_matrix_adjugate(rows):
    _assert_meets_the_whole_matrix_adjugate(_mat(rows))


@pytest.mark.parametrize("minpoly,m,point", _CYCLIC_ORBITS)
def test_cyclic_eigenvector_meets_the_whole_matrix_adjugate_on_orbits(minpoly, m, point):
    _assert_meets_the_whole_matrix_adjugate(_orbit_matrix(minpoly, m, point))


def test_cyclic_eigenvector_entries_stay_within_the_width_bound():
    # before normalisation every entry is at most tol times the largest wide
    mat = _orbit_matrix((-1, -1, 1), 1, "1/5")
    tol = F(1, 10 ** 12)
    _, root, alpha = spectral._perron_root(mat, tol)
    vec = spectral._cyclic_eigenvector(spectral._structure(mat).blocks[0], root, alpha, tol)
    top = max(F(hi, s) for _, hi, s in vec)
    assert all(F(hi - lo, s) <= tol * top for lo, hi, s in vec)


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its first argument to
    calls."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda p, *a: calls.append(p) or real(p, *a))


@pytest.mark.parametrize("argv", [
    ("--minpoly", "-1,-1,1", "-m", "1", "-x", "1/5"),  # one SCC of period 20
    ("--minpoly", "-1,-1,-1,-1,0,1", "-m", "1", "-x", "1/(b^2-1)"),  # primitive
    ("--minpoly", "-1,-1,0,1", "-m", "1", "-x", "1/(b^3-1)"),  # not strongly connected
    ("--minpoly", "-1,-1,-1,-1,1", "-m", "2", "-x", "2/b^2"),  # not strongly connected
    ("--minpoly", "-1,0,-1,1", "-m", "1", "-x", "2/b^2"),  # not strongly connected
])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_dimension_builds_the_structure_once(argv, fmt, capsys, monkeypatch):
    # one Tarjan walk per run, Faddeev-LeVerrier once per period-1 block
    # and once per B0, on the block's B0 only, and one isolation of alpha,
    # which the root stage and the dominance verdict share: on sf(chi_A),
    # or one _cyclic_root on one SCC of period p > 1
    walks, kernels, structures, isolated, cyclic, chis = [], [], [], [], [], []
    structure = spectral._structure
    _counting(monkeypatch, spectral, "_sccs", walks)
    _counting(monkeypatch, spectral, "_faddeev_leverrier", kernels)
    _counting(monkeypatch, spectral, "_structure", structures)
    _counting(monkeypatch, polys, "isolate_real_roots", isolated)
    _counting(monkeypatch, spectral, "_cyclic_root", cyclic)
    _counting(monkeypatch, spectral, "char_polynomial", chis)
    code = main(["dimension", *argv, "--format", fmt])
    capsys.readouterr()
    mat = structures[0]
    blocks = structure(mat).blocks
    assert len(walks) == 1 and len({id(m) for m in structures}) == 1
    assert [id(b) for b in kernels] == [id(b.core) for b in blocks]
    assert all(b.core.size == len(b.classes[0]) for b in blocks)
    assert len(chis) == 1
    # the run's NumberField isolates beta on its minimal polynomial first
    assert len(isolated) == 2 and tuple(isolated[0]) == tuple(map(int, argv[1].split(",")))
    assert len(cyclic) == _one_cyclic_scc(mat)
    assert code == (5 if cyclic else 0)  # every other graph here is verified
    if not cyclic:
        assert tuple(isolated[1]) == polys.squarefree_part_int(char_polynomial(mat))


@pytest.mark.parametrize("case,period", [(_CYCLIC_ORBITS[0], 8), (_ORBIT_CASES[0], 1)],
                         ids=["golden-third", "quintic"])
def test_dominance_of_one_scc_reads_its_period_alone(case, period, monkeypatch):
    mat = _orbit_matrix(*case)
    for module, name in [(polys, "isolate_real_roots"), (spectral, "_cyclic_root"),
                         (spectral, "char_polynomial"), (spectral, "_faddeev_leverrier")]:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    rep = check_dominance(mat)
    assert rep.strongly_connected and rep.cycle_gcd == period
    assert rep.status == (DominanceStatus.VERIFIED_PRIMITIVE if period == 1
                          else DominanceStatus.FAILED_PERIPHERAL_SPECTRUM)


@pytest.mark.parametrize("minpoly,m,point", _CYCLIC_ORBITS[:2] + _ORBIT_CASES[1:2])
def test_a_second_perron_call_matches_a_fresh_matrix(minpoly, m, point):
    # the isolation is kept on the matrix, and on the cyclic route every
    # comparison narrows the kept root's interval of alpha^p in place; a
    # later call at another tol must still give a fresh matrix's answer
    mat = _orbit_matrix(minpoly, m, point)
    for tol in (F(1, 10 ** 40), F(1, 10 ** 12), F(1, 10 ** 60)):
        assert perron_eigenvalue(mat, tol) == perron_eigenvalue(_orbit_matrix(minpoly, m, point), tol)

