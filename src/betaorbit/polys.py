"""Exact univariate polynomial arithmetic and certified root machinery.

A polynomial is a sequence of Python ints, constant term first (_strip
reads them by operator.index, so a Fraction or float raises TypeError),
evaluated at rational points and intervals (fractions.Fraction); root
isolation takes monic ones.  Nothing here touches floating point except the
complex-root *proposal* step, whose output is certified afterwards by exact
interval Newton contraction.

Signs at n/d are read by integer Horner on the numerators (sign_at).  The
Sturm chain and the gcd are integer primitive remainder sequences (Collins
1967, Brown & Traub 1971), the integer roots come from Sturm counts on
integer intervals (_integer_roots), and division by a monic integer
polynomial stays in the integers (divmod_monic).  Every real root is
isolated by one walk (_isolating_nodes) of the node tree grown from (-B, B]
after the integer roots are deflated (deflate), on the caller's root count
and halving: p's Sturm chain, built once, and bisect_step here, and counts
on g's roots for z^eps g(z^p) in spectral.  A node keeps the counts at both
ends, so a split reads the count at its midpoint only.  Sturm counts run
only inside isolation: whether a factor of an isolated polynomial vanishes
at the isolated root is two signs (vanishes_at_root).  Every real root in
the package is halved by one step, bisect_step on an integer bracket with
the caller's sign at its left end, so a step reads one sign.  One interval
Newton routine, newton_box, both certifies a complex root's box and
refines it.  evaluate_interval has no caller here: the benchmark's span
tracer and the tests read it.  The rational polynomial ring, and the
rational evaluate, squarefree part, Sturm chain, root count and bisection
these kernels are checked against, live with the tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import partial
from math import ceil, gcd, lcm, pi
from operator import index
from typing import Callable, Iterator, Sequence

from .errors import NotSquarefree, RefinementBudgetExceeded

Interval = tuple[Fraction, Fraction]
# Axis-aligned rational rectangle in the complex plane: (re_interval, im_interval).
Box = tuple[Interval, Interval]
# an enclosure [a/e, b/e], or an isolation node (a/e, b/e], as the integers (a, b, e), e > 0
IntInterval = tuple[int, int, int]

_ZERO = Fraction(0)
_ABERTH_SWEEPS = 500
# outward rounding keeps this many bits below an interval's width
ROUND_OUT_BITS = 32


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------

def _strip(p: Sequence[int]) -> list[int]:
    """The coefficients of p without trailing zeros, each read by
    operator.index: a Fraction or a float raises TypeError."""
    nums = list(map(index, p))
    while nums and nums[-1] == 0:
        nums.pop()
    return nums


def common_denominator(cs: Sequence) -> tuple[list[int], int]:
    """Integer numerators of the rationals cs over their least common
    denominator, and that denominator.  The numerators and the denominator
    are coprime as a whole."""
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def integer_endpoints(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, e) with [lo, hi] = [a/e, b/e] and e the least common
    denominator of the endpoints."""
    e = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (e // lo.denominator), hi.numerator * (e // hi.denominator), e


def horner_interval_int(nums: Sequence[int], a: int, b: int, e: int) -> tuple[int, int, int]:
    """Integer interval Horner: (alo, ahi, scale) with p([a/e, b/e])
    enclosed by [alo/scale, ahi/scale], for the nonempty integer
    coefficient vector nums of p (constant term first) and e > 0.

    After t steps the accumulator holds e^(t-1) times the rational one.
    Positive scaling commutes with the min/max of interval products, so
    alo/scale and ahi/scale are exactly the bounds that rational interval
    Horner gives.  For a >= 0 each product bound is picked by sign; the
    four-product min/max runs only when a < 0.
    """
    it = reversed(nums)
    alo = ahi = next(it)
    scale = 1
    if a >= 0:
        for n in it:
            scale *= e
            c = n * scale
            alo = alo * (a if alo >= 0 else b) + c
            ahi = ahi * (b if ahi >= 0 else a) + c
    else:
        for n in it:
            scale *= e
            c = n * scale
            prods = (alo * a, alo * b, ahi * a, ahi * b)
            alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi, scale


def sign_at(nums: Sequence[int], n: int, d: int) -> int:
    """Sign (-1, 0 or 1) of p(n/d) for the coefficient vector nums of p
    (constant term first) and d > 0, by Horner on the numerators: after t
    steps the accumulator holds d^t times the rational one, as in
    horner_interval_int, so its sign is the sign of p(n/d)."""
    it = reversed(nums)
    acc = next(it, 0)
    scale = 1
    for c in it:
        scale *= d
        acc = acc * n + c * scale
    return (acc > 0) - (acc < 0)


def evaluate_interval(p: Sequence[int], lo: Fraction, hi: Fraction) -> Interval:
    """Enclosure of p([lo, hi]) by interval Horner evaluation.

    The endpoints are brought to one common denominator, so
    horner_interval_int runs the steps on integers; the result is exactly
    the interval that rational interval Horner gives.
    """
    nums = _strip(p)
    if not nums:
        return _ZERO, _ZERO
    alo, ahi, scale = horner_interval_int(nums, *integer_endpoints(lo, hi))
    return Fraction(alo, scale), Fraction(ahi, scale)


def derivative(p: Sequence[int]) -> list[int]:
    """p' without trailing zeros."""
    return [i * c for i, c in enumerate(_strip(p))][1:]


def squarefree_part_int(p: Sequence[int]) -> tuple[int, ...]:
    """Squarefree part of a monic integer polynomial; stays monic over Z.

    gcd(p, p') made monic has integer coefficients (Gauss's lemma), so the
    primitive gcd that ends the integer Sturm chain is +-1 times it and
    divides p exactly over the integers."""
    nums = _strip(p)
    if len(nums) < 2:
        return tuple(nums)
    if nums[-1] != 1:
        raise ValueError("squarefree_part_int needs a monic integer polynomial")
    g = sturm_chain_int(nums)[-1]
    assert abs(g[-1]) == 1, "the monic gcd of a monic integer polynomial is integral"
    if len(g) == 1:
        return tuple(nums)
    if g[-1] < 0:
        g = [-c for c in g]
    quot, rem = divmod_monic(nums, g)
    assert not rem, "gcd(p, p') must divide p"
    return tuple(quot)


def divmod_monic(p: Sequence[int], q: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial p by the monic integer
    polynomial q.  Elimination from the top coefficient down never divides,
    so both stay integral; the remainder has no trailing zeros."""
    rem = list(p)
    dq = len(q) - 1
    low = q[:dq]
    quot = [0] * max(len(rem) - dq, 0)
    for shift in range(len(rem) - 1 - dq, -1, -1):
        c = rem[shift + dq]
        if c:
            quot[shift] = c
            rem[shift:shift + dq] = [r - c * b for r, b in zip(rem[shift:shift + dq], low)]
    del rem[dq:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation
# ---------------------------------------------------------------------------

def _primitive(nums: list[int]) -> list[int]:
    g = gcd(*nums)
    return [c // g for c in nums] if g > 1 else nums


def _prs(a: Sequence[int], b: Sequence[int]) -> list[list[int]]:
    """Primitive remainder sequence of the nonzero integer polynomials a and
    b without trailing zeros: their primitive parts, then each next member
    the primitive part of minus a pseudo-remainder of the two before it, so
    the last member is gcd(a, b) up to a constant.  Each pseudo-division
    step replaces r by (|lc|/g) r - (sgn(lc) c/g) z^s q, for c the top
    coefficient of r, lc that of q and g = gcd(c, lc): the pseudo-remainder
    is a positive multiple of the rational remainder."""
    chain = [_primitive(list(a)), _primitive(list(b))]
    while True:
        r, q = list(chain[-2]), chain[-1]
        dq, lead = len(q) - 1, q[-1]
        low = q[:dq]
        for shift in range(len(r) - 1 - dq, -1, -1):
            c = r[shift + dq]
            if c:
                g = gcd(c, lead)
                u, v = abs(lead) // g, (c if lead > 0 else -c) // g
                if u != 1:
                    r[:shift] = [u * x for x in r[:shift]]
                r[shift:shift + dq] = [u * x - v * y for x, y in zip(r[shift:shift + dq], low)]
        del r[dq:]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return chain
        chain.append(_primitive([-x for x in r]))


def sturm_chain_int(nums: Sequence[int]) -> list[list[int]]:
    """Sturm chain of p with integer coefficients nums (degree >= 1, no
    trailing zeros) as the primitive remainder sequence of p and p'.  Each
    member is a positive multiple of the rational Sturm chain's, so the
    signs are the same, and the last member is gcd(p, p') up to a constant."""
    return _prs(nums, derivative(nums))


def gcd_int(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """gcd of the integer polynomials p and q, primitive with a positive
    leading coefficient: the last member of their primitive remainder
    sequence.  gcd(p, 0) is p made so, and gcd(0, 0) is the zero
    polynomial ()."""
    a, b = _strip(p), _strip(q)
    g = _prs(a, b)[-1] if a and b else _primitive(a or b)
    return tuple(-c for c in g) if g and g[-1] < 0 else tuple(g)


def _variations(chain: list[Sequence[int]], n: int, d: int) -> int:
    """V(n/d), for d > 0: the sign variations of the Sturm chain at n/d,
    zeros left out.  V(a) - V(b) is the number of real roots of the
    squarefree chain[0] in (a, b], even when a or b is a root: chain[0]
    vanishes there and is dropped, while chain[1], a positive multiple of
    its derivative, keeps its sign, so V is continuous from the right at a
    root and drops by one across it."""
    signs = [s for s in (sign_at(c, n, d) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: Sequence[int]) -> Fraction:
    """Cauchy bound: all complex roots have modulus strictly below the bound."""
    nums = _strip(p)
    return 1 + Fraction(max(map(abs, nums)), abs(nums[-1]))


def _integer_roots(chain: list[list[int]]) -> list[int]:
    """All integer roots, ascending, of the squarefree integer polynomial
    chain[0], from its Sturm chain.

    Sturm counts on integer intervals: from (-B, B] with B the Cauchy bound
    rounded up, each interval (a, b] that holds a root is halved until its
    width is 1, and then b is tested by sign_at, so the cost grows with the
    bit size of the coefficients.  V(a) - V(b) counts the roots in (a, b]
    even when a or b is a root (_variations)."""
    p = chain[0]
    bound = ceil(root_bound(p))
    roots = []
    stack = [(-bound, bound, _variations(chain, -bound, 1), _variations(chain, bound, 1))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if sign_at(p, b, 1) == 0:
                roots.append(b)
            continue
        mid = (a + b) // 2
        vm = _variations(chain, mid, 1)
        stack += [(mid, b, vm, vb), (a, mid, va, vm)]
    return roots


def deflate(p: Sequence[int], roots: Sequence[int]) -> Sequence[int]:
    """p divided by z - r for each r in roots, an integer root of what is left."""
    for r in roots:
        p, rem = divmod_monic(p, (-r, 1))
        assert not rem, "deflation by a non-root"
    return p


def _isolating_nodes(work: Sequence[int], exact: Sequence[int], above: Callable[[int, int], int],
                     halve: Callable[[int, int, int], IntInterval]) -> Iterator[IntInterval]:
    """The isolating node (a, b, e), for (a/e, b/e], of each real root of
    work, largest first, in the tree grown from (-B, B], B the Cauchy bound
    of work rounded up.  work is a monic q with its integer roots `exact`
    deflated, so no midpoint is a root of work.  above(n, d) counts q's
    roots above n/d, d > 0, up to a constant; a split reads it at the
    midpoint and each end keeps its count.  The right child is walked
    first.  halve(a, b, e) is the half of a one-root node that holds the
    root, taken until no integer root lies in [a/e, b/e], so neither end is
    a root of q."""
    if len(work) < 2:
        return
    bound = ceil(root_bound(work))
    stack = [(-bound, bound, 1, above(-bound, 1), above(bound, 1))]
    while stack:
        a, b, e, va, vb = stack.pop()
        n = va - vb - sum(a < r * e <= b for r in exact)
        if n == 1:
            while any(a <= r * e <= b for r in exact):
                a, b, e = halve(a, b, e)
            yield a, b, e
        elif n > 1:
            vm = above(a + b, 2 * e)
            stack += [(2 * a, a + b, 2 * e, va, vm), (a + b, 2 * b, 2 * e, vm, vb)]


def isolate_real_roots(p: Sequence[int]) -> list[Interval]:
    """Isolating intervals for every real root of a squarefree monic
    integer polynomial.

    Returns ascending intervals [lo, hi], each containing exactly one real
    root of p; exact rational roots come back as degenerate [r, r].  For
    non-degenerate intervals the endpoints are non-roots and p changes sign
    across the interval, so plain bisection refines them.  Adjacent
    intervals may share an endpoint, which is then not a root.  They are
    the nodes of _isolating_nodes, counted on p's Sturm chain (_variations)
    and halved by bisect_step."""
    work = _strip(p)
    if len(work) < 2:
        return []
    if work[-1] != 1:
        raise ValueError("isolate_real_roots needs a monic integer polynomial")
    chain = sturm_chain_int(work)
    if len(chain[-1]) > 1:
        raise NotSquarefree("root isolation requires a squarefree polynomial")

    exact = _integer_roots(chain)  # p's only rational roots, as p is monic
    work = deflate(work, exact)
    nodes = _isolating_nodes(work, exact, partial(_variations, chain),
                             lambda a, b, e: bisect_step(work, a, b, e, sign_at(work, a, e)))
    out = [(Fraction(a, e), Fraction(b, e)) for a, b, e in nodes]
    out += [(Fraction(r),) * 2 for r in exact]
    out.sort(key=lambda iv: iv[0] + iv[1])
    return out


def bisect_step(p: Sequence[int], a: int, b: int, e: int, left: int) -> IntInterval:
    """One halving of the sign-change bracket [a/e, b/e], e > 0, of an
    integer polynomial p without trailing zeros, for `left` the sign of p at
    a/e (nonzero): the half (2a, a + b, 2e) or (a + b, 2b, 2e) across which
    p changes sign, or the point (a + b, a + b, 2e) when p vanishes at the
    midpoint, the one sign read.  These are the rationals of Fraction
    bisection."""
    mid, e = a + b, 2 * e
    s = sign_at(p, mid, e)
    if s == 0:  # only possible for rational roots, which the fields deflate
        return mid, mid, e
    return (mid, 2 * b, e) if s == left else (2 * a, mid, e)


# spectral refines alpha's enclosure only when it takes at most this many
# halvings, and NumberField.is_pisot refines to at most 2^-MAX_HALVINGS
MAX_HALVINGS = 4096
# expr.fraction refuses a decimal such as 1e-E with |E| larger than this
MAX_EXPONENT = 100_000


def vanishes_at_root(p: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether p vanishes at the root that [lo, hi] isolates: on a point
    [r, r], whether p(r) = 0, else whether p changes sign across [lo, hi].

    [lo, hi] isolates a root of a squarefree polynomial q, as
    isolate_real_roots and bisect_step leave it: an exact point, or an
    interval with one root of q and no root of q at either end.  The
    precondition is that p's roots in [lo, hi] are simple and are roots
    of q, as holds for every factor of q.  Then p has no root at either
    end and at most one inside, q's, where its sign flips."""
    nums = _strip(p)
    at_lo = sign_at(nums, lo.numerator, lo.denominator)
    if lo == hi:
        return at_lo == 0
    return at_lo * sign_at(nums, hi.numerator, hi.denominator) < 0


# ---------------------------------------------------------------------------
# rational interval helpers
# ---------------------------------------------------------------------------

def decimal_str(x: Fraction, places: int, direction: int) -> str:
    """Directed decimal rendering: direction < 0 rounds down, > 0 rounds up,
    so rendered [lo, hi] pairs remain true enclosures."""
    return decimal_str_int(x.numerator, x.denominator, places, direction)


def decimal_str_int(num: int, den: int, places: int, direction: int) -> str:
    """decimal_str of num/den, for integers num and den > 0 that need not
    be coprime: one floor division of num times 10^places by den gives the
    digits."""
    n, rem = divmod(num * 10 ** places, den)
    if direction > 0 and rem:
        n += 1
    sign = "-" if n < 0 else ""
    intpart, fracpart = divmod(abs(n), 10 ** places)
    return f"{sign}{intpart}.{str(fracpart).zfill(places)}"


def interval_mul(a: Interval, b: Interval) -> Interval:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(prods), max(prods)


def interval_add(a: Interval, b: Interval) -> Interval:
    return a[0] + b[0], a[1] + b[1]


def interval_sub(a: Interval, b: Interval) -> Interval:
    return a[0] - b[1], a[1] - b[0]


def interval_div(a: Interval, b: Interval) -> Interval:
    """a / b for an interval b that excludes zero."""
    if b[0] <= 0 <= b[1]:
        raise ZeroDivisionError("interval divisor contains zero")
    quots = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return min(quots), max(quots)


def round_down(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def round_up(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def round_out_interval(iv: Interval) -> Interval:
    """Outward-round an interval to dyadics ROUND_OUT_BITS finer than its
    width, keeping coordinate sizes bounded."""
    lo, hi = iv
    width = hi - lo
    if width <= 0:
        return iv
    bits = max(0, width.denominator.bit_length() - width.numerator.bit_length()) + ROUND_OUT_BITS
    return round_down(lo, bits), round_up(hi, bits)


def sqrt_bounds_int(p: int, q: int, iters: int = 4) -> tuple[int, int]:
    """(lo, hi) with lo/2^96 <= sqrt(p/q) <= hi/2^96, for p >= 0 and q > 0
    (need not be coprime), by Heron iteration from the arithmetic-mean upper
    bound (p/q + 1)/2.  Each iterate is rounded up to a multiple of 2^-96,
    so sizes stay bounded and it stays an upper bound (AM-GM); the lower
    bound is p/q over the last one, rounded down.  Every step is one integer
    floor division, so no gcd runs on p and q."""
    one = 1 << 96
    hi = -(-(p + q) * one // (2 * q))
    for _ in range(iters):
        hi = -(-(q * hi * hi + p * one * one) // (2 * q * hi))
    return p * one * one // (q * hi), hi


# ---------------------------------------------------------------------------
# complex boxes and interval Newton certification
# ---------------------------------------------------------------------------

def box_add(a: Box, b: Box) -> Box:
    return interval_add(a[0], b[0]), interval_add(a[1], b[1])


def box_mul(a: Box, b: Box) -> Box:
    re = interval_sub(interval_mul(a[0], b[0]), interval_mul(a[1], b[1]))
    im = interval_add(interval_mul(a[0], b[1]), interval_mul(a[1], b[0]))
    return re, im


def box_from_point(re: Fraction, im: Fraction) -> Box:
    return (re, re), (im, im)


def box_contains_zero(b: Box) -> bool:
    return b[0][0] <= 0 <= b[0][1] and b[1][0] <= 0 <= b[1][1]


def box_mod2_bounds(b: Box) -> Interval:
    """Exact bounds on |z|^2 over a rectangle."""
    (rlo, rhi), (ilo, ihi) = b

    def sq_bounds(lo: Fraction, hi: Fraction) -> Interval:
        mx = max(lo * lo, hi * hi)
        mn = _ZERO if lo <= 0 <= hi else min(lo * lo, hi * hi)
        return mn, mx

    rl, rh = sq_bounds(rlo, rhi)
    il, ih = sq_bounds(ilo, ihi)
    return rl + il, rh + ih


def box_div(a: Box, b: Box) -> Box:
    """a / b for a rectangle b excluding the origin: a * conj(b) / |b|^2."""
    conj = (b[0], (-b[1][1], -b[1][0]))
    num = box_mul(a, conj)
    m2 = box_mod2_bounds(b)
    if m2[0] <= 0:
        raise ZeroDivisionError("box divisor contains the origin")
    return interval_div(num[0], m2), interval_div(num[1], m2)


def eval_poly_box(p: Sequence[int], z: Box) -> Box:
    acc = box_from_point(_ZERO, _ZERO)
    for c in reversed(p):
        acc = box_add(box_mul(acc, z), box_from_point(c, _ZERO))
    return acc


def eval_poly_complex_point(p: Sequence[int], re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    are, aim = _ZERO, _ZERO
    for c in reversed(p):
        are, aim = are * re - aim * im + c, are * im + aim * re
    return are, aim


def _box_intersect(a: Box, b: Box) -> Box | None:
    rlo, rhi = max(a[0][0], b[0][0]), min(a[0][1], b[0][1])
    ilo, ihi = max(a[1][0], b[1][0]), min(a[1][1], b[1][1])
    if rlo > rhi or ilo > ihi:
        return None
    return (rlo, rhi), (ilo, ihi)


def newton_box(p: Sequence[int], dp: Sequence[int], b: Box) -> tuple[Box, bool]:
    """One interval Newton step N(b) = mid(b) - p(mid)/p'(b) on the box b
    (Moore 1966), for dp = p': the contracted box and whether it proves
    that b holds exactly one root of p, a simple one.

    The proof is N(b) strictly inside b.  N(b) is rounded outward to dyadics
    (round_out_interval), which keeps coordinate sizes bounded, and then
    intersected with b, so the box returned lies in b and keeps every root
    that b holds, proved or not.  When p'(b) contains the origin, b comes
    back unproved.  A point box is decided by exact evaluation: proved when
    its point is a simple root (the exact Newton polish can land on a
    Gaussian-rational root)."""
    (rlo, rhi), (ilo, ihi) = b
    if rlo == rhi and ilo == ihi:
        return b, not any(eval_poly_complex_point(p, rlo, ilo)) and any(
            eval_poly_complex_point(dp, rlo, ilo))
    dpb = eval_poly_box(dp, b)
    if box_contains_zero(dpb):
        return b, False
    mre, mim = (rlo + rhi) / 2, (ilo + ihi) / 2
    quot = box_div(box_from_point(*eval_poly_complex_point(p, mre, mim)), dpb)
    nb = interval_sub((mre, mre), quot[0]), interval_sub((mim, mim), quot[1])
    shrunk = _box_intersect((round_out_interval(nb[0]), round_out_interval(nb[1])), b)
    return shrunk or b, rlo < nb[0][0] and nb[0][1] < rhi and ilo < nb[1][0] and nb[1][1] < ihi


def _aberth_roots(p: Sequence[int]) -> list[complex]:
    """Float approximations of all complex roots of a squarefree
    polynomial by the Aberth-Ehrlich iteration (Aberth 1973), sweeping
    in place from points on a circle of Fujiwara's root radius; it stops
    once no sweep moves a root by more than 2^-46 of its size (absolute
    near 0) and gives up after _ABERTH_SWEEPS sweeps."""
    n = len(p) - 1
    c = [complex(x) / p[-1] for x in p]
    radius = 2 * max(abs(c[n - i]) ** (1 / i) for i in range(1, n + 1)) or 1.0
    zs = [cmath.rect(radius, 2 * pi * i / n + 0.4) for i in range(n)]
    for _ in range(_ABERTH_SWEEPS):
        moved = False
        for i, z in enumerate(zs):
            f = fp = 0j
            for a in reversed(c):  # Horner for p and p' together
                f, fp = f * z + a, fp * z + f
            den = fp - f * sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
            step = f / den if den else 0j
            zs[i] = z - step
            moved = moved or abs(step) > 2.0 ** -46 * max(abs(z), 1.0)
        if not moved:
            return zs
    raise RefinementBudgetExceeded(f"Aberth iteration did not settle in {_ABERTH_SWEEPS} sweeps")


def _separate_boxes(p: Sequence[int], dp: Sequence[int], boxes: list[Box], cap: int = 64) -> list[Box]:
    """Refine certified boxes of p, pair by pair in index order, until no
    two intersect; each round refines both boxes of the pair.  Raises
    RefinementBudgetExceeded when a pair still meets after cap rounds (two
    copies of one root never separate)."""
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            rounds = 0
            while _box_intersect(boxes[i], boxes[j]):
                if rounds >= cap:
                    raise RefinementBudgetExceeded("could not separate two conjugate enclosures")
                boxes[i] = newton_box(p, dp, boxes[i])[0]
                boxes[j] = newton_box(p, dp, boxes[j])[0]
                rounds += 1
    return boxes


def propose_and_certify_complex_roots(p: Sequence[int], n_pairs: int) -> list[Box]:
    """n_pairs pairwise disjoint certified boxes, one for each non-real root
    of p with positive imaginary part.  An Aberth iteration on floats
    proposes, exact rational Newton polishes, interval Newton certifies, and
    _separate_boxes makes the boxes disjoint; floats never enter the
    certified result.  The proposals are the n_pairs highest above the real
    axis; a box is certified only strictly above it, so when the floats
    leave an upper root without a proposal, RefinementBudgetExceeded is
    raised rather than fewer boxes returned, and so it is when a coefficient
    or an iterate leaves the float range.
    """
    if n_pairs == 0:
        return []

    try:
        zs = _aberth_roots(p)
    except OverflowError:  # complex() of a coefficient, or abs() of an iterate
        zs = None
    if zs is None or not all(map(cmath.isfinite, zs)):
        raise RefinementBudgetExceeded("the float proposer of complex roots cannot take this "
                                       "polynomial: a coefficient or a root is beyond the float "
                                       "range (about 1.8e308)")
    dp = derivative(p)
    cands = sorted(zs, key=lambda z: -z.imag)[:n_pairs]
    cands.sort(key=lambda z: (z.real, z.imag))

    boxes: list[Box] = []
    for z in cands:
        re = Fraction(z.real).limit_denominator(10 ** 17)
        im = Fraction(z.imag).limit_denominator(10 ** 17)
        # polish with exact rational Newton steps so the certification box
        # can be taken very small
        for _ in range(3):
            fre, fim = eval_poly_complex_point(p, re, im)
            dre, dim = eval_poly_complex_point(dp, re, im)
            den = dre * dre + dim * dim
            if den == 0:
                break
            sre = (fre * dre + fim * dim) / den
            sim = (fim * dre - fre * dim) / den
            re = (re - sre).limit_denominator(10 ** 40)
            im = (im - sim).limit_denominator(10 ** 40)
        proved, h = False, Fraction(1, 10 ** 12)
        while not proved and h < 1:
            box: Box = ((re - h, re + h), (im - h, im + h))
            if box[1][0] > 0:  # stay strictly above the real axis
                box, proved = newton_box(p, dp, box)
            h *= 64
        if not proved:
            raise RefinementBudgetExceeded(
                "failed to certify a complex root enclosure near "
                f"{float(re):.6g}+{float(im):.6g}i"
            )
        boxes.append(box)
    return _separate_boxes(p, dp, boxes)
