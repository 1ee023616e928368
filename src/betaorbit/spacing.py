"""Finite-depth enumeration of the power-sum spectrum and its gap statistics.

The spectrum at depth n is the set of sums e_1*beta + ... + e_n*beta^n with
digits e_i in {0, ..., m}, enumerated exactly and deduplicated by canonical
form.  Consecutive-gap statistics give separation evidence: for a Pisot base
the minimum gap stays bounded away from zero, while for a non-Pisot base it
collapses as the depth grows.  A finite enumeration can only overestimate
the true infimum gap, so the final minimum gap is reported strictly as an
upper bound.

The defining polynomial is monic, so every point is an integer numerator
tuple t (the denominator is 1), packed as one int sum_j t_j 2^(jW).  A
depth-n point has |t_j| <= m sum_i |(beta^i)_j| (i = 1..n), so taking
2^(W-1) > B = 2m max_j sum_i |(beta^i)_j| puts every coordinate of a point,
and of a difference of two points, in (-2^(W-1), 2^(W-1)).  There packing
is a bijection, and it is linear: a shifted point is one int add, a gap one
int subtract, and only points that become FieldElements are unpacked.  One
sweep builds each level from the last: level n is level n-1 plus its shifts
by e*beta^n, deduplicated.  Each point carries an integer key within a
level-wide slack s of 2^P * value (P = _KEY_BITS), summed from dyadic
enclosures of beta^i.  Keys more than 2s apart order their points for
certain; only runs of closer neighbours become FieldElements, ordered by
exact compare (rare for a Pisot base, whose points stay uniformly apart:
Garsia).  A gap key has slack 2s, so only gaps keyed within 4s of the least
or greatest gap key can be extreme; the CSV and the separation report form
and order only those.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import accumulate, repeat
from operator import itemgetter, mul, sub
from typing import NamedTuple

from .errors import TooFewPoints, TooLarge
from .field import FieldElement, NumberField, PisotCertificate
from .polys import Interval

_MEMORY_GUARD = 10_000_000
_KEY_BITS = 64  # P: a key approximates 2^P times its point's value
_GAP_EPS = Fraction(1, 10 ** 15)  # width of every reported gap enclosure


class SpectrumLevel:
    """All distinct digit-polynomial values at depth n, strictly ascending.

    keys[i] is an integer with |keys[i] - 2^P * values[i]| <= slack, where
    P = _KEY_BITS; one slack bounds the key error of the whole level.
    """

    def __init__(self, n: int, values: list, keys: list, slack: int):
        self.n, self.values, self.keys, self.slack = n, values, keys, slack

    @property
    def count(self) -> int:
        return len(self.values)


class GapStats(NamedTuple):
    min_gap: Interval
    max_gap: Interval
    gap_histogram: list  # (enclosure, multiplicity), ascending by gap
    min_gap_element: FieldElement = None
    max_gap_element: FieldElement = None


class SeparationReport(NamedTuple):
    """Per-level minimum gaps and whether they have stabilized.

    delta_upper_bound is the final level's minimum gap, an upper bound on the
    true uniform separation constant (finite depth cannot certify a lower
    bound)."""

    m: int
    n_max: int
    level_counts: list[int]
    min_gaps: list  # exact FieldElements, one per level from n=1
    min_gap_enclosures: list[Interval]
    stabilized: bool
    delta_upper_bound: Interval
    pisot: PisotCertificate


def _check_depth(m: int, n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    # m + 1 >= 2, so the product passes the guard within 24 factors and no
    # power beyond (m+1) * _MEMORY_GUARD is ever built
    raw = 1
    for _ in range(n):
        raw *= m + 1
        if raw > _MEMORY_GUARD:
            raise TooLarge(f"(m+1)^n = {m + 1}^{n} exceeds the enumeration guard "
                           f"of {_MEMORY_GUARD} raw sums")


_EXACT = cmp_to_key(lambda a, b: a[0].compare(b[0]))


def _order(pairs, tol: int, element) -> tuple[list, list]:
    """The points of (point, key) pairs ascending by value, and their keys.
    Every key is within tol/2 of 2^P times its point's value, so neighbours
    whose keys differ by more than tol are in order; each run of closer
    neighbours becomes FieldElements (by element) ordered by exact compare."""
    pairs = sorted(pairs, key=itemgetter(1))
    keys = [k for _, k in pairs]
    start = 0
    for end in [j for j, d in enumerate(map(sub, keys[1:], keys), 1) if d > tol] + [len(keys)]:
        if end - start > 1:
            run = sorted([(element(t), t, k) for t, k in pairs[start:end]], key=_EXACT)
            pairs[start:end] = [(t, k) for _, t, k in run]
        start = end
    return [t for t, _ in pairs], [k for _, k in pairs]


def _width(m: int, powers: list) -> int:
    """W with 2^(W-1) > 2m max_j sum_i |(beta^i)_j| over beta^1..beta^n."""
    return (2 * m * max(sum(abs(p.nums[j]) for p in powers)
                        for j in range(len(powers[0].nums)))).bit_length() + 1


def _unpack(x: int, width: int, degree: int) -> tuple:
    """The tuple t with sum_j t_j 2^(j*width) = x, each |t_j| < 2^(width-1)."""
    half, t = 1 << (width - 1), []
    for _ in range(degree):
        t.append((x + half) % (half << 1) - half)
        x = (x - t[-1]) >> width
    return tuple(t)


def _levels(field: NumberField, m: int, n: int):
    """Levels 1..n, each from the last, as (packed points ascending by value,
    keys, slack, element), where element(x) is the FieldElement of a packed
    point or gap x.  The body runs lazily, so callers check the depth first."""
    beta = field.beta
    # load-bearing beyond the keys: this refines the field's ladder to 1e-17,
    # and the gap enclosures printed later are approx's first rung that
    # fits, so keys taken without refining the ladder change printed bytes
    lo, hi = beta.approx(Fraction(1, 10 ** 17))
    powers = list(accumulate(repeat(beta, n), mul))
    width, degree = _width(m, powers), field.degree

    def element(x: int) -> FieldElement:
        return FieldElement(field, _unpack(x, width, degree))

    slack = 0
    nums, keys = [0], [0]
    for i, power in enumerate(powers, 1):
        # L <= 2^P * lo^i <= 2^P * beta^i <= 2^P * hi^i <= U, key midway
        low = (lo.numerator ** i << _KEY_BITS) // lo.denominator ** i
        high = -((-hi.numerator ** i << _KEY_BITS) // hi.denominator ** i)
        key = (low + high) >> 1
        slack += m * (high - key)
        packed = sum(c << j * width for j, c in enumerate(power.nums))
        # the last level, then each of its shifts: m + 1 runs already in order
        points = dict(zip(nums, keys))
        for e in range(1, m + 1):
            shift, shift_key = e * packed, e * key
            for t, k in zip(nums, keys):
                points.setdefault(t + shift, k + shift_key)
        nums, keys = _order(points.items(), 2 * slack, element)
        del points
        yield nums, keys, slack, element


def enumerate_spectrum(field: NumberField, m: int, n: int) -> SpectrumLevel:
    """Exact spectrum at depth n; rejects enumerations beyond the memory
    guard of 10^7 raw sums."""
    _check_depth(m, n)
    for nums, keys, slack, element in _levels(field, m, n):
        pass
    return SpectrumLevel(n, list(map(element, nums)), keys, slack)


def _extreme_gaps(nums: list, keys: list, slack: int, element) -> tuple:
    """The least and the greatest consecutive gap of a level, exactly.  A gap
    key is within 2s of 2^P times its gap, so no gap keyed more than 4s above
    the least gap key (below the greatest) is the least (greatest) gap; only
    the others are formed, deduplicated and ordered."""
    gap_keys = list(map(sub, keys[1:], keys))
    low, high = min(gap_keys) + 4 * slack, max(gap_keys) - 4 * slack
    picked = {nums[j + 1] - nums[j]: k for j, k in enumerate(gap_keys) if k <= low or k >= high}
    ordered, _ = _order(picked.items(), 4 * slack, element)
    return element(ordered[0]), element(ordered[-1])


def gap_stats(level: SpectrumLevel) -> GapStats:
    """Exact consecutive differences with enclosures for reporting; gaps that
    are exactly equal as field elements share a histogram bucket."""
    if level.count < 2:
        raise TooFewPoints("need at least two spectrum points")
    values, keys, slack = level.values, level.keys, level.slack
    field = values[0].field
    nums = [v.nums for v in values]
    gaps = [tuple(map(sub, b, a)) for a, b in zip(nums, nums[1:])]
    buckets = Counter(gaps)
    # a gap key is a difference of two point keys, so its slack is 2s; gaps
    # that are exactly equal collapse to one bucket, so ordering work scales
    # with the number of distinct gaps only
    ordered, _ = _order(dict(zip(gaps, map(sub, keys[1:], keys))).items(), 4 * slack,
                        partial(FieldElement, field))
    distinct = [FieldElement(field, g) for g in ordered]
    min_gap, max_gap = distinct[0], distinct[-1]
    return GapStats(min_gap=min_gap.approx(_GAP_EPS), max_gap=max_gap.approx(_GAP_EPS),
                    gap_histogram=[(g.approx(_GAP_EPS), buckets[g.nums]) for g in distinct],
                    min_gap_element=min_gap, max_gap_element=max_gap)


def separation_evidence(field: NumberField, m: int, n_max: int) -> SeparationReport:
    """Minimum gap per level up to n_max, with the field's Pisot certificate
    attached (non-Pisot fields are accepted; the contrast is the point)."""
    _check_depth(m, n_max)
    counts, min_gaps = [], []
    for nums, keys, slack, element in _levels(field, m, n_max):
        counts.append(len(nums))
        min_gaps.append(_extreme_gaps(nums, keys, slack, element)[0])
    enclosures = [g.approx(_GAP_EPS) for g in min_gaps]
    stabilized = len(min_gaps) >= 2 and min_gaps[-1] == min_gaps[-2]
    return SeparationReport(m=m, n_max=n_max, level_counts=counts, min_gaps=min_gaps,
                            min_gap_enclosures=enclosures, stabilized=stabilized,
                            delta_upper_bound=enclosures[-1], pisot=field.is_pisot())


def spectrum_csv(field: NumberField, m: int, n_max: int) -> str:
    """CSV rows: level, count, min_gap_lo, min_gap_hi, max_gap_lo, max_gap_hi
    (gap bounds as directed decimals, so each pair is a true enclosure)."""
    from .polys import decimal_str
    _check_depth(m, n_max)
    lines = ["level,count,min_gap_lo,min_gap_hi,max_gap_lo,max_gap_hi"]
    for n, (nums, keys, slack, element) in enumerate(_levels(field, m, n_max), 1):
        (a, b), (c, d) = (g.approx(_GAP_EPS) for g in _extreme_gaps(nums, keys, slack, element))
        lines.append(f"{n},{len(nums)},{decimal_str(a, 18, -1)},{decimal_str(b, 18, +1)},"
                     f"{decimal_str(c, 18, -1)},{decimal_str(d, 18, +1)}")
    return "\n".join(lines) + "\n"
