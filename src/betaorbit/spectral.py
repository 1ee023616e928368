"""Certified dominant-eigenvalue analysis of the transition matrix.

A is read through its successor lists (at most m+1 entries a row on an orbit
graph), so each product with A and each graph search costs its number of
nonzero entries, not k^2.  The route to the dominant eigenvalue is exact: an
integer characteristic polynomial (division-checked Faddeev-LeVerrier over
the successor lists of A), one Sturm isolation of the largest real root of
its squarefree part, and bisection to the requested width, every sign read
by integer Horner (polys.sign_at).  The same recurrence, applied to the
vector 1, yields P(z) = adj(zI - A) . 1, whose value at the Perron root is
a nonnegative eigenvector (after exact division by any common factor
vanishing there, a monic integer polynomial); its rows are divided and
reduced mod the monic squarefree part by integer elimination, and its
entries are evaluated in turn by integer interval Horner at an enclosure of
the root that is bisected further on the squarefree part while an entry is
too wide, each entry starting from the enclosure the last one left.  Every
enclosure stays integer numerators over a denominator through evaluation
and normalisation, and becomes a reduced Fraction only in the PerronResult;
the rationals are those of Fraction arithmetic.  A rational root is the
exact point [r, r] and evaluates exactly.  perron_eigenvalue runs a root
stage and then the eigenvector stage, and table-format `dimension` runs only
the first.  Dominance is decided by one rule for every graph, from the
strongly connected components: their periods (from the depth-first depths
of the same Tarjan walk that finds them), Collatz-Wielandt brackets of
their Perron roots, and exact root comparisons where the brackets overlap.
Floating point appears only in display values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_CEILING, ROUND_FLOOR, localcontext
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import count

from . import polys
from .errors import DominanceNotEstablished, RefinementBudgetExceeded, ZeroMatrix
from .orbit import TransitionMatrix
from .polys import Interval


def char_polynomial(matrix: TransitionMatrix) -> tuple[int, ...]:
    """Exact characteristic polynomial det(lambda*I - A), constant term
    first, by the Faddeev-LeVerrier recurrence over the integers (every
    division is by the step index and is checked exact).  Products run over
    the nonzero entries of A only (a row has at most m+1 of them)."""
    k = matrix.size
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    m = [[0] * k for _ in range(k)]
    for step in range(1, k + 1):
        # m <- A @ m + c_{k-step+1} * I
        prev_c = coeffs[k - step + 1]
        am = []
        for i, terms in enumerate(matrix.succ):
            row = [0] * k
            for t, v in terms:
                row = [x + v * y for x, y in zip(row, m[t])]
            row[i] += prev_c
            am.append(row)
        m = am
        tr = sum(v * m[t][i] for i, terms in enumerate(matrix.succ) for t, v in terms)
        q, r = divmod(-tr, step)
        assert r == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs[k - step] = q
    return tuple(coeffs)


def _adjugate_row_sums(matrix: TransitionMatrix, chi: tuple[int, ...]) -> list[list[int]]:
    """P = adj(zI - A) . 1 as integer polynomials, constant term first.

    Faddeev-LeVerrier gives adj(zI - A) = sum_s M_s z^(k-s) with M_1 = I and
    M_{s+1} = A M_s + c_{k-s} I, so the row sums p_s = M_s . 1 follow
    p_{s+1} = A p_s + c_{k-s} . 1 without the matrices; (zI - A) P = chi . 1.
    """
    k = matrix.size
    adj_one = [[0] * k for _ in range(k)]
    p = [1] * k
    for step in range(1, k + 1):
        if step > 1:
            p = [s + chi[k - step + 1] for s in matrix.mul_vec(p)]
        for i in range(k):
            adj_one[i][k - step] = p[i]
    return adj_one


class DominanceStatus(Enum):
    """How (and whether) the dominant eigenvalue was shown to strictly
    exceed every other eigenvalue modulus."""

    VERIFIED_PRIMITIVE = "VerifiedPrimitive"
    VERIFIED_SPECTRAL_GAP = "VerifiedSpectralGap"
    FAILED_PERIPHERAL_SPECTRUM = "FailedPeripheralSpectrum"


_VERIFIED = (DominanceStatus.VERIFIED_PRIMITIVE, DominanceStatus.VERIFIED_SPECTRAL_GAP)


@dataclass
class DominanceReport:
    status: DominanceStatus
    strongly_connected: bool
    cycle_gcd: int | None

    @property
    def verified(self) -> bool:
        return self.status in _VERIFIED


@dataclass
class PerronResult:
    """Certified enclosure of the largest real eigenvalue with a nonnegative
    eigenvector taken from the adjugate adj(alpha*I - A) . 1, entries as
    rational intervals that enclose the unit-euclidean-norm vector.  Every
    endpoint is a reduced Fraction, built once from the integer numerators
    the stages carry."""

    alpha: Interval
    eigenvector: tuple[Interval, ...]
    char_poly: tuple[int, ...]

    @property
    def alpha_mid(self) -> Fraction:
        return (self.alpha[0] + self.alpha[1]) / 2


@dataclass
class DimensionResult:
    """log_{m+1}(alpha) as a rational enclosure.  `dimension` builds one only
    under a verified dominant eigenvalue, where this equals both the
    expansion-set dimension and the growth rate of prefix counts."""

    dim: Interval
    status: DominanceStatus


_BRACKET_STEPS = 8  # powers B^t . 1 behind each Collatz-Wielandt bracket


def _sccs(nbrs: list[list[int]]) -> list[tuple[list[int], int]]:
    """Strongly connected components by an iterative Tarjan pass (Tarjan
    1972), each with its period: the gcd of its cycle lengths, 0 for a
    single state without a loop.  A state that leaves the stack with its
    component gets index k, so a later edge into it lowers no link value.

    The same walk records each state's depth-first depth (a tree edge sets
    depth(v) = depth(u) + 1).  A component's states form a subtree of the
    depth-first forest, so every depth is, up to one offset, the length of a
    walk from the component's first-visited state.  The period is therefore
    the gcd of |depth(u) + 1 - depth(v)| over the component's edges (u, v):
    a closed walk's length is the sum of these terms along it, and each term
    is the difference of two closed-walk lengths.  Tree edges add 0, and an
    edge to a state still on the stack stays inside the component, so each
    such edge adds its term to a per-state gcd when it is seen."""
    k = len(nbrs)
    index, low, depth, g = [-1] * k, [0] * k, [0] * k, [0] * k
    stack: list[int] = []
    comps: list[tuple[list[int], int]] = []
    order = count()
    for root in range(k):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(order)
        stack.append(root)
        work = [(root, iter(nbrs[root]))]
        while work:
            u, succ = work[-1]
            v = next(succ, None)
            if v is None:
                work.pop()
                if low[u] == index[u]:
                    comp = [stack.pop()]
                    while comp[-1] != u:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = low[w] = k
                    comps.append((comp, reduce(math.gcd, (g[w] for w in comp), 0)))
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
            elif index[v] < 0:
                index[v] = low[v] = next(order)
                depth[v] = depth[u] + 1
                stack.append(v)
                work.append((v, iter(nbrs[v])))
            elif index[v] < k:  # v is on the stack: the edge is inside u's component
                low[u] = min(low[u], index[v])
                g[u] = math.gcd(g[u], depth[u] + 1 - depth[v])
    return comps


def _cycle_blocks(matrix: TransitionMatrix,
                  comps: list[tuple[list[int], int]]) -> list[tuple[TransitionMatrix, int]]:
    """The diagonal block of every SCC in comps that carries a cycle (period
    > 0), its states numbered in the order of the component, with its
    period.  Each block row lists its columns ascending, as TransitionMatrix
    requires."""
    blocks = []
    for comp, period in comps:
        if period:
            local = {s: i for i, s in enumerate(comp)}
            blocks.append((TransitionMatrix(succ=tuple(
                tuple(sorted((local[j], v) for j, v in matrix.succ[s] if j in local))
                for s in comp)), period))
    return blocks


def _cw_bracket(block: TransitionMatrix) -> Interval:
    """Collatz-Wielandt bracket of the Perron root of an irreducible block
    B (Collatz 1942, Wielandt 1950): for a positive v, rho(B) lies between
    the least and the largest ratio (Bv)_i / v_i.  Intersects the brackets
    for v = B^t . 1 (positive: no row of B is zero), t < _BRACKET_STEPS."""
    brackets = []
    v = [1] * block.size
    for _ in range(_BRACKET_STEPS):
        w = block.mul_vec(v)
        ratios = [Fraction(a, b) for a, b in zip(w, v)]
        brackets.append((min(ratios), max(ratios)))
        v = w
    return max(lo for lo, _ in brackets), min(hi for _, hi in brackets)


def _top_blocks(blocks: list[tuple[TransitionMatrix, int]]) -> list[tuple[TransitionMatrix, int]]:
    """The (block, period) pairs whose Perron root, the largest real root of
    the block's squarefree characteristic polynomial, is the largest.  Two
    roots are equal when the gcd of their polynomials has a root where their
    isolating intervals meet; otherwise bisection pulls the intervals apart."""
    roots = []
    for block, _ in blocks:
        sf = polys.squarefree_part_int(char_polynomial(block))
        roots.append((sf, *polys.isolate_real_roots(sf)[-1]))
    best = [0]
    for i in range(1, len(roots)):
        (p, alo, ahi), (q, blo, bhi) = roots[i], roots[best[0]]
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo <= hi and polys.count_roots_in_interval(polys.gcd_int(p, q), lo, hi):
            best.append(i)
            continue
        while alo <= bhi and blo <= ahi:
            alo, ahi = polys.bisect_step(p, alo, ahi)
            blo, bhi = polys.bisect_step(q, blo, bhi)
        if alo > bhi:
            best = [i]
    return [blocks[i] for i in best]


def check_dominance(matrix: TransitionMatrix) -> DominanceReport:
    """Decide exactly whether the dominant eigenvalue strictly exceeds all
    other eigenvalue moduli.

    The spectrum of A is that of the diagonal blocks of its strongly
    connected components (SCCs) with a cycle, plus zeros, and the Perron
    root of an irreducible block of period p shares its modulus with
    exactly p of the block's eigenvalues.  So dominance holds iff exactly
    one SCC attains the largest Perron root and its period is 1.  One
    Tarjan pass (_sccs) finds the SCCs with their periods.  Each SCC with a
    cycle (period > 0) gets a Collatz-Wielandt bracket of its Perron root,
    and the SCCs whose bracket reaches the largest lower bound are ranked
    exactly (_top_blocks).  One winner of period 1 is VerifiedPrimitive when
    it is the only SCC and VerifiedSpectralGap otherwise; a tie, a larger
    period or a graph without cycles is FailedPeripheralSpectrum.  The zero
    matrix has no positive eigenvalue to dominate and raises ZeroMatrix.
    """
    if not any(matrix.succ):
        raise ZeroMatrix("transition matrix has no nonzero entry")
    comps = _sccs([[j for j, _ in terms] for terms in matrix.succ])
    blocks = _cycle_blocks(matrix, comps)
    brackets = [_cw_bracket(b) for b, _ in blocks]
    # without any cycle there is no winner: every eigenvalue is 0
    top = max((lo for lo, _ in brackets), default=None)
    winners = [b for b, (_, hi) in zip(blocks, brackets) if hi >= top]
    if len(winners) > 1:
        winners = _top_blocks(winners)
    connected = len(comps) == 1
    gap = len(winners) == 1 and winners[0][1] == 1
    verified = DominanceStatus.VERIFIED_PRIMITIVE if connected else DominanceStatus.VERIFIED_SPECTRAL_GAP
    status = verified if gap else DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    return DominanceReport(status, connected, comps[0][1] if connected else None)


# ---------------------------------------------------------------------------
# dominant eigenvalue and eigenvector
# ---------------------------------------------------------------------------

def perron_eigenvalue(matrix: TransitionMatrix, tol=Fraction(1, 10 ** 12)) -> PerronResult:
    """Isolate the largest real root of the characteristic polynomial to
    width <= tol and take a nonnegative eigenvector from the adjugate: the
    root stage (_perron_root), then the eigenvector stage, which encloses
    adj(alpha*I - A) . 1 and scales it to unit norm."""
    tol = Fraction(tol)
    chi, chi_sf, alpha = _perron_root(matrix, tol)
    vec = _adjugate_eigenvector(chi, _adjugate_row_sums(matrix, chi), chi_sf, alpha, tol)
    return PerronResult(alpha=alpha, eigenvector=_normalize_eigenvector(vec), char_poly=chi)


def _perron_root(matrix: TransitionMatrix,
                 tol: Fraction) -> tuple[tuple[int, ...], tuple[int, ...], Interval]:
    """The root stage: the characteristic polynomial chi, its squarefree part
    and the enclosure of width <= tol of its largest real root, checked
    against the Perron row-sum bracket."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not any(matrix.succ):
        raise ZeroMatrix("transition matrix has no nonzero entry")

    chi = char_polynomial(matrix)
    chi_sf = polys.squarefree_part_int(chi)
    isolations = polys.isolate_real_roots(chi_sf)
    if not isolations:
        raise ZeroMatrix("no real eigenvalue found for a nonnegative matrix")
    # a rational root comes back as the exact point [r, r], which bisection keeps
    lo, hi = polys.refine_to_width(chi_sf, *isolations[-1], tol)

    row_sums = matrix.mul_vec([1] * matrix.size)
    assert lo <= max(row_sums) and hi >= min(row_sums), \
        "dominant root escaped the row-sum bracket"
    return chi, chi_sf, (lo, hi)


# an enclosure [lo/s, hi/s] as the integers (lo, hi, s) with s > 0
IntInterval = tuple[int, int, int]


def _adjugate_eigenvector(chi: tuple[int, ...], adj_one: list[list[int]],
                          chi_sf: tuple[int, ...], alpha: Interval,
                          tol: Fraction) -> list[IntInterval]:
    """Enclosures of P(alpha) for P = adj(zI - A) . 1, sign-fixed nonnegative,
    each as integers (lo, hi, s) for [lo/s, hi/s].

    (alpha*I - A) P(alpha) = chi(alpha) . 1 = 0, so P(alpha) is an eigenvector
    once it is nonzero.  When every P_i vanishes at alpha (possible only at
    geometric multiplicity >= 2), t = gcd(chi_sf, P_1, ..., P_k) has alpha as
    a root and P/t solves (zI - A) P/t = chi/t . 1; repeat.  Since
    (zI - A)^-1 . 1 has a pole at the Perron root of order equal to its
    index, this stops before chi/t loses that root, and the limit vector is
    nonnegative up to sign.
    """
    vec, rest = adj_one, list(chi)
    eps = Fraction(1, 2 ** 48)
    at = polys.integer_endpoints(*alpha)  # each evaluation below narrows it and hands it on
    while True:
        reduced = [polys.divmod_monic(p, chi_sf)[1] for p in vec]
        rough, at = _evaluate_at_root(reduced, chi_sf, at, eps)
        if any(lo > 0 or hi < 0 for lo, hi, _ in rough):
            break
        # every enclosure meets 0: divide out a common factor at alpha if
        # there is one, else some entry is nonzero but tiny, so look closer
        t = chi_sf
        for p in reduced:
            t = polys.gcd_int(t, p)
        if polys.count_roots_in_interval(t, *alpha):
            # t divides the monic integer chi_sf, so it is monic (Gauss's
            # lemma) and the division stays in the integers
            assert t[-1] == 1, "a primitive factor of the monic chi_sf is monic"
            quots = [polys.divmod_monic(p, t) for p in [rest, *vec]]
            assert not any(rem for _, rem in quots), "common factor must divide every adjugate entry"
            rest, *vec = [q for q, _ in quots]
        else:
            eps /= 2 ** 48
    if len(rest) < len(chi):
        # (alpha*I - A) P(alpha) = rest(alpha) . 1 must still vanish
        assert polys.count_roots_in_interval(polys.gcd_int(rest, chi_sf), *alpha), \
            "common-factor division removed the Perron root"
    sign = next(1 if lo > 0 else -1 for lo, hi, _ in rough if lo > 0 or hi < 0)
    # the largest |endpoint| n/d, compared by cross-multiplying
    n, d = 0, 1
    for lo, hi, s in rough:
        m = max(-lo, hi)  # max(|lo|, |hi|), as lo <= hi
        if m * d > n * s:
            n, d = m, s
    ivs, _ = _evaluate_at_root(reduced, chi_sf, at, tol * Fraction(n, d))
    if sign < 0:
        ivs = [(-hi, -lo, s) for lo, hi, s in ivs]
    assert all(hi >= 0 for _, hi, _ in ivs), "adjugate eigenvector is not nonnegative"
    return ivs


def _evaluate_at_root(ps: list[list[int]], chi_sf: tuple[int, ...], at: IntInterval,
                      eps: Fraction) -> tuple[list[IntInterval], IntInterval]:
    """Enclose p(alpha) to width <= eps for each p by integer interval Horner
    (polys.horner_interval_int) at an enclosure [a/e, b/e] = `at` of a root
    alpha of chi_sf, bisecting `at` on chi_sf while an entry is too wide (an
    exact point [r, r] evaluates exactly).  Returns the enclosures as
    integers (lo, hi, s) for [lo/s, hi/s] and the narrowed `at` for the next
    call.

    The width test cross-multiplies, and a bisection step doubles e and
    keeps the numerators, so every endpoint is the rational that Fraction
    bisection and rational interval Horner give.  Bisection keeps the sign
    of chi_sf at the left end (it moves that end only to a point of the same
    sign), so that sign is read once."""
    a, b, e = at
    left_pos = polys.sign_at(chi_sf, a, e) > 0
    out = []
    for p in ps:
        if not p:
            out.append((0, 0, 1))
            continue
        vlo, vhi, s = polys.horner_interval_int(p, a, b, e)
        rounds = 0
        while (vhi - vlo) * eps.denominator > eps.numerator * s:
            if rounds == 100_000:
                raise RefinementBudgetExceeded("eigenvector entry did not reach the requested width")
            mid, a, b, e = a + b, 2 * a, 2 * b, 2 * e
            sm = polys.sign_at(chi_sf, mid, e)
            if sm == 0:  # only possible for rational roots, which are exact points here
                a = b = mid
            elif (sm > 0) != left_pos:
                b = mid
            else:
                a = mid
            vlo, vhi, s = polys.horner_interval_int(p, a, b, e)
            rounds += 1
        out.append((vlo, vhi, s))
    return out, (a, b, e)


def _normalize_eigenvector(intervals: list[IntInterval]) -> tuple[Interval, ...]:
    """Scale the largest entry's midpoint to 1, then rescale to unit
    euclidean norm, dividing by an enclosure of the norm over the whole box
    (all in exact rational interval arithmetic).

    The entries [lo/s, hi/s] are taken over one common denominator D as
    [a/D, b/D]; with T = max |a + b| the scaled entries are [2a/T, 2b/T] and
    the squared-norm bounds are integer sums of squares over T^2/4.  The norm
    enclosure [nlo, nhi] is positive, so each quotient bound is one
    division picked by the sign of its numerator: a/nhi for a >= 0, else
    a/nlo, and b/nlo for b >= 0, else b/nhi, the bounds the four-quotient
    interval division gives.  Each endpoint becomes a reduced Fraction once,
    at the end."""
    den = math.lcm(*(s for _, _, s in intervals))
    pairs = [(lo * (den // s), hi * (den // s)) for lo, hi, s in intervals]
    top = max(abs(a + b) for a, b in pairs)
    if top == 0:
        return tuple((Fraction(a, den), Fraction(b, den)) for a, b in pairs)
    sq_lo = sq_hi = 0
    for a, b in pairs:
        a2, b2 = a * a, b * b
        sq_lo += 0 if a <= 0 <= b else min(a2, b2)
        sq_hi += max(a2, b2)
    # Heron from (v+1)/2 needs about log2(v)/2 halving steps to reach
    # sqrt(v) <= sqrt(k), then converges quadratically
    iters = 6 + len(pairs).bit_length()
    # the norm lies in [nlo, nhi] / 2^96
    nlo = polys.sqrt_bounds_int(4 * sq_lo, top * top, iters)[0]
    nhi = polys.sqrt_bounds_int(4 * sq_hi, top * top, iters)[1]
    if nlo <= 0:
        raise ZeroDivisionError("interval divisor contains zero")

    def quotient(x: int, norm: int) -> Fraction:  # (2x/T) / (norm/2^96)
        return Fraction(x << 97, top * norm)

    return tuple((quotient(a, nhi if a >= 0 else nlo), quotient(b, nlo if b >= 0 else nhi))
                 for a, b in pairs)


# ---------------------------------------------------------------------------
# dimension and growth
# ---------------------------------------------------------------------------

def _ln_bounds(x: Fraction, prec: int = 50) -> Interval:
    """Enclosure of ln(x) for x > 0 via the decimal module.  The quotient is
    rounded outward, but Decimal.ln rounds half-even whatever the context's
    rounding, so its result is stepped one unit outward.  ln(1) = 0 is exact
    and kept; the log of any other rational is irrational (Lindemann), so
    its rounding is never exact."""
    if x <= 0:
        raise ValueError("ln of a nonpositive value")
    bounds = []
    for rounding, step in ((ROUND_FLOOR, Decimal.next_minus), (ROUND_CEILING, Decimal.next_plus)):
        with localcontext() as ctx:
            ctx.prec = prec
            ctx.rounding = rounding
            q = Decimal(x.numerator) / Decimal(x.denominator)
            ln = q.ln()
            bounds.append(Fraction(ln if q == 1 else step(ln)))
    return bounds[0], bounds[1]


def log_base_interval(alpha: Interval, base: int) -> Interval:
    """Enclosure of log_base over an interval with 1 <= lo."""
    ln_alo = _ln_bounds(alpha[0])
    ln_ahi = _ln_bounds(alpha[1])
    ln_base = _ln_bounds(Fraction(base))
    return ln_alo[0] / ln_base[1], ln_ahi[1] / ln_base[0]


def dimension(m: int, perron: PerronResult, dominance: DominanceReport) -> DimensionResult:
    """log_{m+1}(alpha) as a rational enclosure; requires a verified dominant
    eigenvalue."""
    if not dominance.verified:
        raise DominanceNotEstablished(
            f"dominant eigenvalue not verified: {dominance.status.value}"
        )
    lo, hi = perron.alpha
    if lo < 1:
        raise ValueError("alpha enclosure extends below 1; refine it first")
    if lo > m + 1:
        raise ValueError(f"alpha enclosure lies above m + 1 = {m + 1}")
    dlo, dhi = log_base_interval((lo, hi), m + 1)  # lo >= 1 gives dlo >= 0
    dhi = min(dhi, Fraction(1))
    return DimensionResult(
        dim=(dlo, dhi),
        status=dominance.status,
    )
