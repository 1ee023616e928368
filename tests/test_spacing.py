import json
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from betaorbit import (
    FieldElement,
    IntPolynomial,
    NumberField,
    SpectrumLevel,
    enumerate_spectrum,
    gap_stats,
    separation_evidence,
    spacing,
    spectrum_csv,
)
from betaorbit.errors import RefinementBudgetExceeded, TooFewPoints, TooLarge

F = Fraction


def test_integer_base_spectrum(base2):
    level = enumerate_spectrum(base2, 1, 2)
    assert [float(v) for v in level.values] == [0.0, 2.0, 4.0, 6.0]
    stats = gap_stats(level)
    assert stats.min_gap_element == base2.from_rational(2)
    assert stats.max_gap_element == base2.from_rational(2)
    assert stats.gap_histogram[0][1] == 3


def test_golden_level_two(golden):
    b = golden.beta
    level = enumerate_spectrum(golden, 1, 2)
    assert level.values == [golden.zero, b, b * b, b + b * b]
    stats = gap_stats(level)
    assert stats.min_gap_element == golden.one  # b^2 - b = 1
    assert stats.max_gap_element == b


def test_zero_always_present(golden):
    for n in (1, 3, 5):
        level = enumerate_spectrum(golden, 1, n)
        assert level.values[0] == golden.zero


def test_values_strictly_increasing(golden):
    level = enumerate_spectrum(golden, 1, 8)
    for a, b in zip(level.values, level.values[1:]):
        assert a.compare(b) < 0


def test_level_monotonicity(golden):
    prev = None
    prev_min = None
    for n in range(1, 9):
        level = enumerate_spectrum(golden, 1, n)
        vals = set(level.values)
        if prev is not None:
            assert prev <= vals
        stats = gap_stats(level)
        if prev_min is not None:
            assert stats.min_gap_element.compare(prev_min) <= 0
        prev, prev_min = vals, stats.min_gap_element
    # defining identity keeps the golden minimum gap pinned at 1 here
    assert prev_min == golden.one


def test_memory_guard(golden):
    with pytest.raises(TooLarge):
        enumerate_spectrum(golden, 9, 8)


def test_too_few_points():
    field = NumberField(IntPolynomial((-2, 1)))
    level = enumerate_spectrum(field, 1, 1)
    assert level.count == 2
    level.values = level.values[:1]
    with pytest.raises(TooFewPoints):
        gap_stats(level)


def test_separation_pisot_fields():
    for minpoly in [(-1, -1, 1), (-1, -1, 0, 1)]:
        field = NumberField(IntPolynomial(minpoly))
        report = separation_evidence(field, 1, 10)
        assert report.pisot.is_pisot
        assert all(g.compare(field.zero) > 0 for g in report.min_gaps)
        for a, b in zip(report.min_gaps, report.min_gaps[1:]):
            assert b.compare(a) <= 0
        assert report.stabilized


def test_separation_integer_base(base2):
    report = separation_evidence(base2, 1, 8)
    two = base2.from_rational(2)
    assert all(g == two for g in report.min_gaps)
    assert report.stabilized
    assert report.delta_upper_bound[0] <= 2 <= report.delta_upper_bound[1]


def test_separation_contrast_sqrt2():
    field = NumberField(IntPolynomial((-2, 0, 1)))
    b = field.beta
    report = separation_evidence(field, 1, 14)
    assert report.pisot.status == "not_pisot"
    # exact minimum gaps frozen from the enumeration oracle
    assert report.min_gaps[3] == 3 * b - 4
    assert report.min_gaps[13] == 99 * b - 140
    ratio = float(report.min_gaps[3]) / float(report.min_gaps[13])
    assert ratio >= 10


def test_separation_beyond_the_float_range_raises_a_typed_error():
    # the report attaches the field's Pisot certificate, whose conjugate
    # pair of z^3 - 10^400 the float proposer cannot take
    field = NumberField(IntPolynomial((-10 ** 400, 0, 0, 1)))
    with pytest.raises(RefinementBudgetExceeded, match="float range"):
        separation_evidence(field, 1, 3)


def test_spectrum_csv_shape(base2):
    csv = spectrum_csv(base2, 1, 3)
    lines = csv.strip().splitlines()
    assert lines[0] == "level,count,min_gap_lo,min_gap_hi,max_gap_lo,max_gap_hi"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "2"
    assert float(first[2]) <= 2.0 <= float(first[3])


# === integer keys: differential checks against an exact-comparison oracle ===

FIELDS = {
    "golden": (-1, -1, 1), "quintic": (-1, -1, -1, -1, 0, 1), "base2": (-2, 1),
    "plastic": (-1, -1, 0, 1), "cubic": (-1, 0, -1, 1), "tetra": (-1, -1, -1, -1, 1),
    "sqrt2": (-2, 0, 1), "sqrt3": (-3, 0, 1),
}
GOLDEN_DATA = Path(__file__).parent / "data" / "golden"
_by_compare = cmp_to_key(lambda a, b: a.compare(b))


def _oracle_level(field, m, n):
    """Every digit sum built by field arithmetic, sorted by exact compare."""
    points = {field.zero}
    power = field.one
    for _ in range(n):
        power = power * field.beta
        points |= {p + power * e for p in points for e in range(1, m + 1)}
    return sorted(points, key=_by_compare)


def _inside(elem, enclosure):
    lo, hi = enclosure
    return elem.compare(lo) >= 0 and elem.compare(hi) <= 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([1, 2]), st.data())
def test_keyed_order_matches_exact_oracle(name, m, data):
    n = data.draw(st.integers(1, 8 if m == 1 else 5))
    field = NumberField(IntPolynomial(FIELDS[name]))
    level = enumerate_spectrum(field, m, n)
    oracle = _oracle_level(field, m, n)
    assert level.values == oracle
    scale = 1 << spacing._KEY_BITS
    for v, k in zip(level.values, level.keys):
        assert v.compare(F(k - level.slack, scale)) >= 0
        assert v.compare(F(k + level.slack, scale)) <= 0

    gaps = [b - a for a, b in zip(oracle, oracle[1:])]
    counts = Counter(gaps)
    order = sorted(counts, key=_by_compare)
    stats = gap_stats(level)
    assert stats.min_gap_element == order[0] and stats.max_gap_element == order[-1]
    assert [c for _, c in stats.gap_histogram] == [counts[g] for g in order]
    assert all(_inside(g, enc) for g, (enc, _) in zip(order, stats.gap_histogram))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([1, 2]), st.data())
def test_sweep_levels_and_picked_gaps_match_the_exact_oracle(name, m, data):
    # every level of the sweep, not only the last, and the extreme gaps
    # picked from the gap keys against all gaps ordered exactly
    n_max = data.draw(st.integers(1, 7 if m == 1 else 4))
    field = NumberField(IntPolynomial(FIELDS[name]))
    for n, (nums, keys, slack, element) in enumerate(spacing._levels(field, m, n_max), 1):
        oracle = _oracle_level(field, m, n)
        assert [element(x).nums for x in nums] == [v.nums for v in oracle]
        gaps = sorted({b - a for a, b in zip(oracle, oracle[1:])}, key=_by_compare)
        least, greatest = spacing._extreme_gaps(nums, keys, slack, element)
        assert (least, greatest) == (gaps[0], gaps[-1])
        histogram = gap_stats(SpectrumLevel(n, oracle, keys, slack)).gap_histogram
        assert (least.approx(F(1, 10 ** 15)), greatest.approx(F(1, 10 ** 15))) == (
            histogram[0][0], histogram[-1][0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([1, 2, 3]), st.data())
def test_packing_round_trips_every_point_and_gap(name, m, data):
    # the width bound covers every coordinate of every level point and of
    # every consecutive difference, so unpacking gives the oracle's tuples
    n_max = data.draw(st.integers(1, {1: 8, 2: 5, 3: 4}[m]))
    field = NumberField(IntPolynomial(FIELDS[name]))
    powers = [field.beta ** i for i in range(1, n_max + 1)]
    width, degree = spacing._width(m, powers), field.degree
    word = sum(powers, field.zero) * m  # every digit m
    assert all(2 * abs(c) < 1 << (width - 1) for c in word.nums)
    for n, (nums, _, _, _) in enumerate(spacing._levels(field, m, n_max), 1):
        oracle = [v.nums for v in _oracle_level(field, m, n)]
        assert [spacing._unpack(x, width, degree) for x in nums] == oracle
        assert [spacing._unpack(b - a, width, degree) for a, b in zip(nums, nums[1:])] == [
            tuple(map(sub, b, a)) for a, b in zip(oracle, oracle[1:])]


def _spectrum(minpoly, m, n):
    return spectrum_csv(NumberField(IntPolynomial(minpoly)), m, n)


def _count_compares(monkeypatch):
    """Count FieldElement.compare calls, split by whether they come from the
    exact sort of a run of keys that cannot be told apart."""
    counts = {"run": 0, "other": 0}
    in_run = [False]
    compare = FieldElement.compare

    def counting(self, other):
        counts["run" if in_run[0] else "other"] += 1
        return compare(self, other)

    def run_cmp(a, b):
        in_run[0] = True
        try:
            return a[0].compare(b[0])
        finally:
            in_run[0] = False

    monkeypatch.setattr(FieldElement, "compare", counting)
    monkeypatch.setattr(spacing, "_EXACT", cmp_to_key(run_cmp))
    return counts


def test_forced_clusters_keep_every_output(monkeypatch):
    # at 3 key bits nearly all neighbours share a run, so the order comes
    # from exact compares; the CSV must not change
    cases = [((-1, 0, -1, 1), 1, 9), ((-1, -1, 0, 1), 2, 6), ((-3, 0, 1), 2, 6),
             ((-1, -1, -1, -1, 0, 1), 1, 9)]
    expected = [_spectrum(*case) for case in cases]
    plastic = NumberField(IntPolynomial((-1, -1, 0, 1)))
    report = separation_evidence(plastic, 2, 6)
    monkeypatch.setattr(spacing, "_KEY_BITS", 3)
    counts = _count_compares(monkeypatch)
    assert [_spectrum(*case) for case in cases] == expected
    clustered = separation_evidence(plastic, 2, 6)
    assert (clustered.min_gaps, clustered.level_counts, clustered.stabilized,
            clustered.delta_upper_bound) == (report.min_gaps, report.level_counts,
                                             report.stabilized, report.delta_upper_bound)
    for case in ("spectrum_golden", "spectrum_sqrt2"):
        argv = json.loads((GOLDEN_DATA / case / "meta.json").read_text())["argv"]
        minpoly = tuple(int(c) for c in argv[argv.index("--minpoly") + 1].split(","))
        csv = _spectrum(minpoly, 1, int(argv[argv.index("--nmax") + 1]))
        assert csv.encode() == (GOLDEN_DATA / case / "stdout").read_bytes()
    assert counts["run"] > 1000


def test_no_compare_outside_exact_runs(monkeypatch):
    counts = _count_compares(monkeypatch)
    for minpoly in [(-1, -1, 1), (-2, 0, 1)]:
        _spectrum(minpoly, 1, 12)
    assert counts["other"] == 0


def test_depth_validated_before_any_level(golden, monkeypatch):
    def no_level(*args):
        raise AssertionError("a level was enumerated")

    # the level generator's body runs lazily, so the check must come first
    monkeypatch.setattr(spacing, "_levels", no_level)
    for n_max in (0, -3):
        for run in (spectrum_csv, separation_evidence, enumerate_spectrum):
            with pytest.raises(ValueError):
                run(golden, 1, n_max)
    for run in (spectrum_csv, separation_evidence, enumerate_spectrum):
        for m, n_max in ((1, 24), (2, 15)):
            with pytest.raises(TooLarge):
                run(golden, m, n_max)


def _level_seven(name):
    """Depth 7 at m = 1: the level, and the sweep's packed points with the
    map from a packed point or gap to its FieldElement."""
    field = NumberField(IntPolynomial(FIELDS[name]))
    *_, (packed, _, _, element) = spacing._levels(field, 1, 7)
    return enumerate_spectrum(field, 1, 7), packed, element


def _assert_moved_keys_change_nothing(level, packed, element, shifts, unit):
    keys = [k + s for k, s in zip(level.keys, shifts)]
    slack = level.slack + unit
    ordered = spacing._order(list(zip(packed, keys))[::-1], 2 * slack, element)[0]
    assert [element(x) for x in ordered] == level.values
    moved = SpectrumLevel(level.n, level.values, keys, slack)
    stats = gap_stats(moved)
    assert stats == gap_stats(level)
    assert spacing._extreme_gaps(packed, keys, slack, element) == (stats.min_gap_element,
                                                                   stats.max_gap_element)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["golden", "plastic", "sqrt2", "sqrt3"]), st.data())
def test_keys_off_by_the_slack_change_nothing(name, data):
    # push every key anywhere within a slack of up to 16 whole units: runs
    # get long, and the order and the gaps must stay as they are
    level, packed, element = _level_seven(name)
    unit = data.draw(st.sampled_from([1, 4, 16])) << spacing._KEY_BITS
    shifts = data.draw(st.lists(st.sampled_from([-unit, 0, unit]),
                                min_size=level.count, max_size=level.count))
    _assert_moved_keys_change_nothing(level, packed, element, shifts, unit)


@pytest.mark.parametrize("name", ["golden", "plastic", "sqrt2", "sqrt3"])
def test_extreme_gaps_keyed_two_units_off_are_still_picked(name):
    # every point right of a least (greatest) gap moves one unit up (down)
    # and every other point one unit down (up), so the keys of those gaps
    # rise (fall) by two units while the gaps after them fall (rise) by two;
    # units below the gap spread keep the extreme gap out of the other window
    level, packed, element = _level_seven(name)
    stats = gap_stats(level)
    gaps = [b - a for a, b in zip(level.values, level.values[1:])]
    for bits in (-4, -2, 0):
        unit = 1 << (spacing._KEY_BITS + bits)
        for extreme, sign in ((stats.min_gap_element, 1), (stats.max_gap_element, -1)):
            ends = {j + 1 for j, g in enumerate(gaps) if g == extreme}
            shifts = [sign * unit if j in ends else -sign * unit for j in range(level.count)]
            _assert_moved_keys_change_nothing(level, packed, element, shifts, unit)


@pytest.mark.parametrize("name", ["golden", "plastic", "sqrt2", "sqrt3"])
def test_keys_pushed_towards_the_half_keep_order_and_gaps(name):
    # keys of points above half the range move down and the rest move up,
    # so neighbours across the middle draw together and need exact compares
    level, packed, element = _level_seven(name)
    half = level.values[-1] * F(1, 2)
    for units in (1, 4, 16):
        unit = units << spacing._KEY_BITS
        shifts = [-unit if v.compare(half) > 0 else unit for v in level.values]
        _assert_moved_keys_change_nothing(level, packed, element, shifts, unit)
