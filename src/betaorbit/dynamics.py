"""The dynamical layer: digit maps x -> beta*x - i on [0, m/(beta-1)].

Provides membership and branch-set queries, brute-force prefix counting
(the level-by-level oracle the matrix method is checked against),
expansion generation under the greedy, lazy and alternating rules with
exact periodicity detection, and the exact value of an eventually periodic
digit word.

A point's digits are read on its reduced integer form (nums, den): beta*x
is enclosed by one dot product with a fixed-point table of beta^j, j < d,
that each ExpansionParams bisects once (polys.bisect_step, the package's
one halving of a real root's bracket) without refining the field's ladder,
and exact comparisons settle only the digits that enclosure leaves open.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from . import polys
from .errors import CapHit, OutsideInterval
from .field import FieldElement, NumberField

DigitWord = tuple[int, ...]

# width of the enclosure of R = m/(beta-1) that the digit bounds read
_BRANCH_EPS = Fraction(1, 1 << 12)
# the table of beta^j holds each power to within 2^-_TABLE_BITS
_TABLE_BITS = 48


def _power_table(field: NumberField, bits: int) -> tuple[int, ...]:
    """Integers t_j, j < d, with |beta^j * 2^bits - t_j| <= 1.

    Beta's isolating interval [lo/e, hi/e] (the field's first rung, lo/e >=
    1, no root at either end) is halved by polys.bisect_step, with the
    field's sign at beta's left end, until (d-1) H^(d-2) (hi - lo)/e <
    2^-bits, H >= beta an integer; by the mean value theorem the endpoints'
    powers j < d then differ by less than 2^-bits, and 1 + floor(2^bits
    lo^j / e^j) lies within 1 of 2^bits beta^j.  The ladder is read, never
    refined."""
    p, k = field.min_poly.coeffs, field.degree - 1
    lo, hi, e = field._rungs[0]
    slope = k * (-(-hi // e)) ** max(k - 1, 0)
    while ((hi - lo) * slope) << bits >= e:
        lo, hi, e = polys.bisect_step(p, lo, hi, e, field._left)
    return tuple(((lo ** j) << bits) // e ** j + 1 for j in range(k + 1))


class ExpansionParams:
    """Fixes the dynamical system: the field, the digit bound m, and the
    interval [0, m/(beta-1)] the maps must not leave."""

    def __init__(self, field: NumberField, m: int):
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.field = field
        self.m = m
        self.beta = field.beta
        if not (self.beta > 1):
            raise ValueError("beta must exceed 1")
        if not (self.beta <= m + 1):
            raise ValueError(f"beta must lie in (1, {m + 1}] for m = {m}")
        self.right_endpoint = m * (self.beta - 1).inverse()
        assert self.right_endpoint * (self.beta - 1) == field.from_rational(m)
        self._right_enclosure = self.right_endpoint.approx_int(_BRANCH_EPS)
        self._bits = _TABLE_BITS
        self._table = _power_table(field, _TABLE_BITS)

    def __repr__(self):
        return f"ExpansionParams(m={self.m}, {self.field!r})"

    def contains(self, x: FieldElement) -> bool:
        """Closed-interval membership 0 <= x <= m/(beta-1)."""
        return x.compare(self.field.zero) >= 0 and x.compare(self.right_endpoint) <= 0

    def apply(self, digit: int, x: FieldElement) -> FieldElement:
        """The digit map beta*x - digit (total; the image may leave the interval)."""
        return self.beta * x - digit

    def _images(self, nums: tuple[int, ...], den: int) -> tuple[int, list]:
        """(bden, [(i, numerators of beta*x - i over bden), ...]), digits
        ascending, for the point x = nums/den in reduced form and the
        digits i whose image stays inside the interval: the integers of
        [0, m] in [beta*x - R, beta*x], R = m/(beta-1).

        beta*x = (n_{d-1} c_0, n_0 + n_{d-1} c_1, ...)/den, for beta^d =
        sum_j c_j beta^j, is (b_0, b_1, ...)/bden after one gcd.  As
        |beta^j 2^P - t_j| <= 1 for the table t, 2^P bden beta*x lies
        within sum_j |b_j| of sum_j b_j t_j.  That enclosure settles every
        digit except a bound it cannot decide, which goes to an exact
        comparison of the image.  The image (b_0 - i*bden, b_1, ...)/bden
        is reduced too, since gcd(bden, b_0 - i*bden, b_1, ...) =
        gcd(bden, b_0, b_1, ...).  The set is
        empty exactly for points outside [0, R] (x < 0 makes every
        beta*x - i negative; x > R gives beta*x - i >= beta*x - m >
        beta*R - m = R), so an empty set raises OutsideInterval."""
        field = self.field
        top = nums[-1]
        bx = [top * c + n for c, n in zip(field._power_rows[0], (0,) + nums[:-1])]
        g = gcd(den, *bx)
        bden = den // g
        if g != 1:
            bx = [n // g for n in bx]
        centre, radius = sum(map(mul, bx, self._table)), sum(map(abs, bx))
        blo, bhi, bd = centre - radius, centre + radius, bden << self._bits
        rlo, rhi, rd = self._right_enclosure   # R in [rlo, rhi]/rd
        n0, rest = bx[0], tuple(bx[1:])
        first = max(0, -((rhi * bd - blo * rd) // (bd * rd)))  # ceil(blo/bd - rhi/rd)
        last = min(self.m, bhi // bd)                           # floor(bhi/bd)
        out = []
        for i in range(first, last + 1):
            img = (n0 - i * bden,) + rest
            if i * bd > blo and FieldElement(field, img, bden).compare(field.zero) < 0:
                continue
            if (bhi - i * bd) * rd > rlo * bd and \
                    FieldElement(field, img, bden).compare(self.right_endpoint) > 0:
                continue
            out.append((i, img))
        if not out:
            x = FieldElement(field, nums, den)
            raise OutsideInterval(f"{x!r} lies outside [0, m/(beta-1)]")
        return bden, out

    def branches(self, x: FieldElement) -> tuple[tuple[int, FieldElement], ...]:
        """The pairs (i, beta*x - i), digits ascending, for the digits i
        whose image stays inside the interval (see _images); an empty set
        raises OutsideInterval."""
        den, out = self._images(x.nums, x.den)
        return tuple((i, FieldElement(self.field, img, den)) for i, img in out)

    def branch_digits(self, x: FieldElement) -> tuple[int, ...]:
        """Ascending digits i with beta*x - i still inside the interval (see
        branches); an empty set raises OutsideInterval."""
        return tuple(i for i, _ in self.branches(x))

    def parse_point(self, text: str) -> FieldElement:
        """Parse a point given either as FieldElement JSON or as an expression
        in b (see expr module)."""
        from . import expr
        return expr.parse_point(self, text)


class ExpansionRule:
    """Digit selector iterated to generate one specific expansion: the
    largest admissible digit (greedy), the smallest (lazy), or the two in
    turn, greedy on even steps (alternating).  Greedy and lazy read the
    point alone; alternating also reads the parity of the step."""

    GREEDY = "greedy"
    LAZY = "lazy"
    ALTERNATING = "alternating"

    def __init__(self, kind: str):
        self.kind = kind

    @classmethod
    def greedy(cls) -> "ExpansionRule":
        return cls(cls.GREEDY)

    @classmethod
    def lazy(cls) -> "ExpansionRule":
        return cls(cls.LAZY)

    @classmethod
    def alternating(cls) -> "ExpansionRule":
        return cls(cls.ALTERNATING)

    def choose(self, step: int, branch: tuple[int, ...]) -> int:
        """The digit taken at this step from the ascending admissible digits."""
        if self.kind == self.GREEDY:
            return branch[-1]
        if self.kind == self.LAZY:
            return branch[0]
        return branch[-1] if step % 2 == 0 else branch[0]


class ExpansionRun:
    """Digit output of an iterated rule, split into preperiod and one period.

    states_visited holds the point before each digit.  When no recurrence
    appeared within the step budget, period_length is None, digits holds
    every generated digit, and states_visited ends with the point after the
    last one.
    """

    def __init__(self, digits: DigitWord, preperiod_length: int, period_length: int | None,
                 states_visited: list | None = None):
        self.digits, self.preperiod_length, self.period_length = digits, preperiod_length, period_length
        self.states_visited = [] if states_visited is None else states_visited

    @property
    def is_periodic(self) -> bool:
        return self.period_length is not None

    @property
    def preperiod_digits(self) -> DigitWord:
        return self.digits[: self.preperiod_length]

    @property
    def period_digits(self) -> DigitWord:
        if not self.is_periodic:
            return ()
        return self.digits[self.preperiod_length: self.preperiod_length + self.period_length]

    def to_json(self) -> dict:
        return {
            "preperiod": list(self.preperiod_digits),
            "period": list(self.period_digits) if self.is_periodic else None,
            "states": [s.to_json() for s in self.states_visited],
        }


def count_prefixes_bruteforce(params: ExpansionParams, x: FieldElement, n: int,
                              state_cap: int | None = None) -> int:
    """Exact number of admissible length-n digit words from x, by counting
    the branching tree level by level.

    Level t maps each point reached by some admissible length-t word to the
    number of such words that reach it; each point of level t passes its
    count to every child, so level n sums to the number of words.  The
    children of a point (one exact digit map per admissible digit) are
    computed once per distinct point and kept.  This is the independent
    oracle for the transition-matrix counts: it builds no orbit graph and no
    matrix, and it needs no recursion, so n is not bounded by the stack.
    For a base that is not Pisot the levels can keep growing with n.  Each
    level point is an orbit state, so a level of more than state_cap points
    proves the orbit search would hit that cap, and raises CapHit.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not params.contains(x):
        raise OutsideInterval(f"{x!r} lies outside [0, m/(beta-1)]")
    children: dict = {}
    level = {x: 1}
    for _ in range(n):
        nxt: dict = {}
        for y, mult in level.items():
            kids = children.get(y)
            if kids is None:
                kids = tuple(z for _, z in params.branches(y))
                children[y] = kids
            for z in kids:
                nxt[z] = nxt.get(z, 0) + mult
            if state_cap is not None and len(nxt) > state_cap:
                raise CapHit(len(nxt), "state")
        level = nxt
    return sum(level.values())


def generate_expansion(params: ExpansionParams, x: FieldElement, rule: ExpansionRule,
                       max_steps: int = 10_000) -> ExpansionRun:
    """Iterate the rule from x, recording digits until an exact recurrence
    (canonical-form lookup, no numeric hashing) or max_steps.  A point
    outside the interval raises OutsideInterval at its first branches.

    The next digit depends on the point and, for the alternating rule, on
    the parity of the step, so the recurrence is keyed on that pair.  The
    first pair that recurs marks the least preperiod, since the digit tail
    from a step determines the point there.  An alternating recurrence has
    even length p, and its least period is p or p/2: p/2 exactly when the
    two halves of the period agree."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    phases = 2 if rule.kind == ExpansionRule.ALTERNATING else 1
    seen = {(x, 0): 0}
    states = [x]
    digits: list[int] = []
    cur = x
    for step in range(max_steps):
        pairs = params.branches(cur)
        d = rule.choose(step, tuple(i for i, _ in pairs))
        digits.append(d)
        cur = dict(pairs)[d]
        key = (cur, (step + 1) % phases)
        hit = seen.get(key)
        if hit is not None:
            period = step + 1 - hit
            half = period // 2
            if period % 2 == 0 and digits[hit: hit + half] == digits[hit + half:]:
                period = half
            return ExpansionRun(
                digits=tuple(digits[: hit + period]),
                preperiod_length=hit,
                period_length=period,
                states_visited=states[: hit + period],
            )
        seen[key] = step + 1
        states.append(cur)
    return ExpansionRun(
        digits=tuple(digits),
        preperiod_length=max_steps,
        period_length=None,
        states_visited=states,
    )


def _word_value(word: Sequence[int], inv_beta: FieldElement) -> FieldElement:
    """sum_i word_i * beta^(-i) over a finite digit word, by Horner in 1/beta."""
    acc = inv_beta.field.zero
    for d in reversed(tuple(word)):
        acc = (acc + d) * inv_beta
    return acc


def expansion_value(params: ExpansionParams, preperiod: Sequence[int],
                    period: Sequence[int]) -> FieldElement:
    """Exact value of the eventually periodic expansion
    0.p_1..p_r (q_1..q_l)^inf in base beta, via the geometric series
    closed form."""
    if not period:
        raise ValueError("period must be nonempty")
    inv_beta = params.beta.inverse()
    s_pre = _word_value(preperiod, inv_beta)
    s_per = _word_value(period, inv_beta)
    shift = inv_beta ** len(preperiod)
    tail = s_per * (params.field.one - inv_beta ** len(period)).inverse()
    return s_pre + shift * tail


def digits_to_text(word: Sequence[int], m: int, period: Sequence[int] | None = None) -> str:
    """Text form: digits run together when m <= 9, comma-separated otherwise;
    a repeating block is parenthesized."""
    sep = "" if m <= 9 else ","
    head = sep.join(str(d) for d in word)
    if period is None:
        return head
    return head + "(" + sep.join(str(d) for d in period) + ")"
