"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 1 is split: 1a covers the reproducible clauses,
1b asserts the reference dimension value 0.40599 as stated, which fails
because that value propagates a rounding of the dominant eigenvalue (see the
assertion message); the exact dimension is log2 of the plastic number.
"""

import random
import time
from fractions import Fraction

from betaorbit import (
    DominanceStatus,
    ExpansionParams,
    ExpansionRule,
    IntPolynomial,
    NumberField,
    OrbitGraph,
    char_polynomial,
    check_dominance,
    compute_orbit,
    count_prefixes_bruteforce,
    count_prefixes_matrix,
    count_profile_matrix,
    dimension,
    expansion_value,
    generate_expansion,
    perron_eigenvalue,
    separation_evidence,
    transition_matrix,
)
from betaorbit.spectral import log_base_interval

F = Fraction

REFERENCE_MATRIX = (
    (0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
)
REFERENCE_EIGENVECTOR = (0.478, 0.478, 0.155, 0.206, 0.273, 0.361,
                         0.155, 0.206, 0.273, 0.361)

PISOT_TEST_SET = [
    ((-2, 1), (1, 2)),
    ((-1, -1, 1), (1, 2)),
    ((-1, -1, 0, 1), (1, 2)),
    ((-1, 0, -1, 1), (1, 2)),
    ((-1, -1, -1, -1, 1), (1, 2)),
    ((-1, -1, -1, -1, 0, 1), (1,)),
]


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


def _reference_order(params, states):
    """Index of each reference-listed state within the BFS state list."""
    field = params.field
    b = field.beta
    den_inv = (b * b - 1).inverse()
    nums = [field.one, b, 1 + b - b ** 2, b + b ** 2 - b ** 3,
            b ** 2 + b ** 3 - b ** 4, b ** 3 + b ** 4 - b ** 5, b ** 2,
            b ** 3 - b ** 2 + 1, b ** 4 - b ** 3 - b ** 2 + b + 1,
            b ** 5 - b ** 4 - b ** 3 + b + 1]
    return [states.index(num * den_inv) for num in nums]


def _points_for(field, m):
    b = field.beta
    pts = [field.one, (b * b - 1).inverse()]
    # keep orbit sizes desk-scale: 1/2 explodes on the wider m=2 systems
    if (field.degree, m) in ((3, 2), (5, 1)):
        pts.append(b - 1)
    else:
        pts.append(field.from_rational(F(1, 2)))
    return pts


def test_criterion_1a_reference_instance(quintic_params, quintic_x):
    t0 = time.monotonic()
    graph = compute_orbit(quintic_params, quintic_x)
    assert isinstance(graph, OrbitGraph)
    k_ok = graph.size == 10

    perm = _reference_order(quintic_params, graph.states)
    mat = transition_matrix(graph)
    dense = mat.rows
    matrix_ok = all(
        dense[perm[q]][perm[j]] == REFERENCE_MATRIX[q][j]
        for q in range(10) for j in range(10)
    )

    perron = perron_eigenvalue(mat)
    alo, ahi = perron.alpha
    alpha_ok = alo - F(1, 1000) <= F(1325, 1000) <= ahi + F(1, 1000)

    vec = [float((lo + hi) / 2) for lo, hi in perron.eigenvector]
    vec_ok = all(
        abs(vec[perm[q]] - REFERENCE_EIGENVECTOR[q]) <= 2e-3 for q in range(10)
    )

    elapsed = time.monotonic() - t0
    ok = k_ok and matrix_ok and alpha_ok and vec_ok and elapsed < 5.0
    report("1a", ok, f"k=10, matrix permutation-identical, alpha~1.325+-1e-3, "
                     f"eigenvector +-2e-3, {elapsed:.2f}s")
    assert k_ok and matrix_ok and alpha_ok and vec_ok
    assert elapsed < 5.0


def test_criterion_1b_dim_matches_reference_value(quintic_params, quintic_x):
    graph = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(graph)
    perron = perron_eigenvalue(mat)
    dim = dimension(quintic_params.m, perron, check_dominance(mat))
    lo, hi = dim.dim
    target = F(40599, 100000)
    tol = F(1, 10 ** 4)
    ok = lo - tol <= target <= hi + tol
    report("1b", ok, f"dim enclosure [{float(lo):.9f}, {float(hi):.9f}] vs reference 0.40599 +- 1e-4")
    assert ok, (
        "dim enclosure does not meet the reference value 0.40599 within 1e-4: the "
        "characteristic polynomial z^10 - z^8 - 2z^5 + 1 factors as "
        "(z^3 - z - 1)(z^7 + z^4 - z^2 + z - 1), so the dominant eigenvalue is "
        "exactly the plastic number 1.32471795724..., whose base-2 logarithm is "
        f"{float(lo):.9f}... = the true dimension; 0.40599 equals log2(1.325), "
        "i.e. the reference value propagated the 3-decimal rounding of the "
        "eigenvalue into the dimension."
    )


def test_criterion_2_dimension_exceeds_typical_bound(quintic_params, quintic_x):
    graph = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(graph)
    dim = dimension(quintic_params.m, perron_eigenvalue(mat), check_dominance(mat))
    blo, bhi = quintic_params.field.beta.approx(F(1, 10 ** 15))
    two_over_beta = (F(2) / bhi, F(2) / blo)
    bound = log_base_interval(two_over_beta, 2)
    margin = dim.dim[0] - bound[1]  # certified lower bound on the difference
    ok = margin > F(2, 100)
    report("2", ok, f"dim - log2(2/beta) >= {float(margin):.5f} > 0.02")
    assert ok


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for minpoly, ms in PISOT_TEST_SET:
        field = NumberField(IntPolynomial(minpoly))
        assert field.is_pisot().is_pisot
        for m in ms:
            params = ExpansionParams(field, m)
            for x in _points_for(field, m):
                graph = compute_orbit(params, x)
                assert isinstance(graph, OrbitGraph)
                mat = transition_matrix(graph)
                for n in range(13):
                    assert count_prefixes_matrix(mat, 0, n) == \
                        count_prefixes_bruteforce(params, x, n), \
                        f"count mismatch at {minpoly}, m={m}, n={n}"
                checked += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 15 and elapsed < 60.0
    report("3", ok, f"{checked} (field, m, x) configs, n <= 12, exact equality, {elapsed:.1f}s")
    assert checked >= 15
    assert elapsed < 60.0


def test_criterion_4_periodicity_and_closed_form():
    rules = [ExpansionRule.greedy(), ExpansionRule.lazy(), ExpansionRule.alternating()]
    runs = 0
    for minpoly, ms in PISOT_TEST_SET:
        field = NumberField(IntPolynomial(minpoly))
        for m in ms:
            params = ExpansionParams(field, m)
            for x in _points_for(field, m):
                for rule in rules:
                    run = generate_expansion(params, x, rule, max_steps=10_000)
                    assert run.is_periodic, f"no period: {minpoly}, m={m}, rule={rule.kind}"
                    value = expansion_value(params, run.preperiod_digits, run.period_digits)
                    assert value == x, f"closed form mismatch: {minpoly}, m={m}, rule={rule.kind}"
                    runs += 1
    report("4", True, f"{runs} expansions periodic within 10^4 steps, closed forms exact")


def test_criterion_5_degenerate_golden(golden_params):
    one = golden_params.field.one
    graph = compute_orbit(golden_params, one)
    k_ok = graph.size == 4
    mat = transition_matrix(graph)
    chi_ok = char_polynomial(mat) == (-1, 2, 0, -2, 1)
    dom = check_dominance(mat)
    dom_ok = dom.status == DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    perron = perron_eigenvalue(mat)
    alpha_ok = perron.alpha == (F(1), F(1))
    counts_ok = all(
        count_prefixes_bruteforce(golden_params, one, n) == n + 1 for n in range(21)
    )
    ok = k_ok and chi_ok and dom_ok and alpha_ok and counts_ok
    report("5", ok, "k=4, chi=(z-1)^3(z+1), FailedPeripheralSpectrum, alpha=1, N_n=n+1")
    assert ok


def test_criterion_6_spectrum_separation():
    for minpoly in [(-2, 1), (-1, -1, 1), (-1, -1, 0, 1)]:
        field = NumberField(IntPolynomial(minpoly))
        rep = separation_evidence(field, 1, 12)
        assert rep.pisot.is_pisot
        assert all(g.compare(field.zero) > 0 for g in rep.min_gaps)
        for a, b in zip(rep.min_gaps, rep.min_gaps[1:]):
            assert b.compare(a) <= 0

    sqrt2 = NumberField(IntPolynomial((-2, 0, 1)))
    rep = separation_evidence(sqrt2, 1, 14)
    assert rep.pisot.status == "not_pisot"
    b = sqrt2.beta
    # exact gaps frozen from the enumeration oracle; ratio ~ 33.97
    frozen_ok = rep.min_gaps[3] == 3 * b - 4 and rep.min_gaps[13] == 99 * b - 140
    ratio = float(rep.min_gaps[3]) / float(rep.min_gaps[13])
    ok = frozen_ok and ratio >= 10
    report("6", ok, f"Pisot min gaps positive and nonincreasing; sqrt2 gap ratio {ratio:.2f} >= 10")
    assert ok


def test_criterion_7_field_arithmetic_suite():
    rng = random.Random(424242)
    failures = 0
    for minpoly in [(-1, -1, 1), (-1, -1, 0, 1), (-1, -1, -1, -1, 0, 1)]:
        field = NumberField(IntPolynomial(minpoly))

        def rand_elem():
            return field.element([F(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(field.degree)])

        done = 0
        while done < 1000:
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            if not ((a + b) + c == a + (b + c) and a * (b + c) == a * b + a * c):
                failures += 1
            if not a.is_zero():
                if not (a * a.inverse() == field.one):
                    failures += 1
                # reduction correctness: (a * b) evaluated two ways
                if not (a * b == b * a):
                    failures += 1
            done += 1

    golden = NumberField(IntPolynomial((-1, -1, 1)))
    for _ in range(1000):
        a = golden.element([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])
        b = golden.element([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])
        c = golden.element([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])
        if a.compare(b) != -b.compare(a):
            failures += 1
        if (a.compare(b) == 0) != (a == b):
            failures += 1
        if a.compare(b) <= 0 and b.compare(c) <= 0 and a.compare(c) > 0:
            failures += 1
    ok = failures == 0
    report("7", ok, "3 x 10^3 identity checks and 10^3 order triples, zero failures")
    assert ok


def test_criterion_8_growth_band(quintic_params, quintic_x):
    graph = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(graph)
    perron = perron_eigenvalue(mat)
    alpha = perron.alpha_mid
    profile = count_profile_matrix(mat, 40)
    ratios = [F(profile[n][0]) / alpha ** n for n in range(10, 41)]
    spread = max(ratios) / min(ratios)
    ok = spread < 10
    report("8", ok, f"N_n/alpha^n over n in [10,40]: band ratio {float(spread):.4f} < 10")
    assert ok


def test_criterion_overview():
    # the split of criterion 1 is intentional: 1a collects every clause that
    # exact arithmetic reproduces, 1b records the one that cannot be met
    report("note", True, "criterion 1 split into 1a (reproducible) and 1b (reference-value defect)")
