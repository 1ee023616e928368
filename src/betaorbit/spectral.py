"""Certified dominant-eigenvalue analysis of the transition matrix.

A is read through its successor lists (at most m+1 entries a row on an orbit
graph), so each product with A and each graph search costs its number of
nonzero entries, not k^2.  Everything below reads one structure, built once
per matrix (_structure) from one Tarjan walk: the strongly connected
components (SCCs), each with its period p and its cyclic classes C_0, ...,
C_{p-1} (every edge of the SCC goes from C_c to C_{c+1 mod p}; C_0 is the
smallest class), and for each SCC with a cycle its diagonal block B and the
matrix B0 = A_01 A_12 ... A_{p-1,0} on C_0, built by sparse p-step walks
(B0 = B when p = 1).

The characteristic polynomial is the block product chi_A = z^(states on no
cycle) * prod chi_B with chi_B(z) = z^(|B| - p|C_0|) chi_B0(z^p), so the
division-checked Faddeev-LeVerrier recurrence (FL) runs only on the B0.  The
route to the dominant eigenvalue is exact: one isolation of the largest
real root of the squarefree part sf(chi_A) = z^eps g(z^p) and bisection to
the requested width.  p = 1 and g = sf(chi_A), counted by Sturm, unless the
graph is one SCC of period p > 1; then g is the squarefree part of chi_B0
without its factors z, and the one walk of isolation nodes
(polys._isolating_nodes) counts the roots of sf(chi_A) from those of g.  At
every period each halving places its midpoint x by x^p against an
isolating interval of alpha^p on g (_PerronRoot), itself halved by
polys.bisect_step, the package's one halving of a real root; the enclosure
is the one isolation on sf(chi_A) gives.

The same recurrence, applied to the vector 1, yields P(z) = adj(zI - A) . 1,
whose value at the Perron root is an eigenvector, nonnegative as alpha*I - A
is a singular M-matrix (after exact division by any common factor vanishing
there, a monic integer polynomial);
its rows are reduced mod the monic squarefree part by integer elimination,
and its entries are evaluated in turn by integer interval Horner at an
enclosure of the root that is bisected further while an entry is too wide,
each entry starting from the enclosure the last one left.  On one SCC of
period p > 1 that is done for B0 alone, at w = alpha^p on C_0, and the
eigenvector is propagated backwards class by class, v_{C_j} =
A_{j,j+1} v_{C_{j+1}} / alpha, in integer interval arithmetic rounded
outward.  Every enclosure stays integer numerators over a denominator
through evaluation and normalisation, and becomes a reduced Fraction only
in the PerronResult.  A rational root is the exact point [r, r] and
evaluates exactly.  perron_eigenvalue runs a root stage and then the
eigenvector stage, and table-format `dimension` runs only the first.
alpha's isolation (chi_A, the _PerronRoot and the isolating interval) is
made once per matrix (_isolation) and kept next to the structure.
Dominance reads the same SCCs: a graph that is one SCC is decided by its
period, and on any other graph the SCCs that attain alpha are those whose
chi_B changes sign across alpha's isolating interval.  Floating point
appears only in display values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from decimal import Decimal, ROUND_CEILING, ROUND_FLOOR, localcontext
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import count
from typing import NamedTuple

from . import polys
from .errors import DominanceNotEstablished, RefinementBudgetExceeded, ZeroMatrix
from .orbit import TransitionMatrix
from .polys import IntInterval, Interval


def char_polynomial(matrix: TransitionMatrix) -> tuple[int, ...]:
    """Exact characteristic polynomial det(lambda*I - A), constant term
    first, as the block product of the matrix's structure (_structure):
    z^(states on no cycle) times chi_B of every SCC with a cycle."""
    structure = _structure(matrix)
    chi = [0] * structure.acyclic + [1]
    for block in structure.blocks:
        chi = _poly_mul(chi, block.chi)
    return tuple(chi)


def _poly_mul(p: list[int], q: tuple[int, ...]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _faddeev_leverrier(matrix: TransitionMatrix) -> tuple[int, ...]:
    """det(lambda*I - B) of one block by the Faddeev-LeVerrier recurrence
    over the integers (every division is by the step index and is checked
    exact).  Products run over the nonzero entries of B only."""
    k = matrix.size
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    m = [[0] * k for _ in range(k)]
    for step in range(1, k + 1):
        # m <- B @ m + c_{k-step+1} * I
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


# ---------------------------------------------------------------------------
# the structure: SCCs, periods, cyclic classes and blocks
# ---------------------------------------------------------------------------

def _sccs(nbrs: list[list[int]]) -> list[tuple[list[int], int, list[int]]]:
    """Strongly connected components by an iterative Tarjan pass (Tarjan
    1972), each with its period (the gcd of its cycle lengths, 0 for a
    single state without a loop) and the cyclic class of each of its states
    (0 throughout for a period <= 1).  A state that leaves the stack with
    its component gets index k, so a later edge into it lowers no link
    value.

    The same walk records each state's depth-first depth (a tree edge sets
    depth(v) = depth(u) + 1).  A component's states form a subtree of the
    depth-first forest, so every depth is, up to one offset, the length of a
    walk from the component's first-visited state.  The period is therefore
    the gcd of |depth(u) + 1 - depth(v)| over the component's edges (u, v):
    a closed walk's length is the sum of these terms along it, and each term
    is the difference of two closed-walk lengths.  Tree edges add 0, and an
    edge to a state still on the stack stays inside the component, so each
    such edge adds its term to a per-state gcd when it is seen.  As p
    divides every term, depth mod p, counted from the first-visited state,
    is a cyclic class: each edge of the component raises it by 1 mod p."""
    k = len(nbrs)
    index, low, depth, g = [-1] * k, [0] * k, [0] * k, [0] * k
    stack: list[int] = []
    comps: list[tuple[list[int], int, list[int]]] = []
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
                    period = reduce(math.gcd, (g[w] for w in comp), 0)
                    phase = [(depth[w] - depth[u]) % period if period > 1 else 0 for w in comp]
                    comps.append((comp, period, phase))
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


class _Block:
    """The diagonal block of one SCC with a cycle.  `matrix` numbers the
    SCC's states in the order of `states` (each row column-ascending, as
    TransitionMatrix requires); `classes` lists the local indices of the
    cyclic classes C_0, ..., C_{p-1}, C_0 the smallest, each ascending."""

    def __init__(self, states: list[int], period: int, matrix: TransitionMatrix,
                 classes: list[list[int]]):
        self.states, self.period, self.matrix, self.classes = states, period, matrix, classes

    @cached_property
    def core(self) -> TransitionMatrix:
        """B0 = A_01 A_12 ... A_{p-1,0} on C_0 (rows and columns in the
        order of C_0), by sparse p-step walks from each state of C_0; the
        block itself when p = 1."""
        if self.period == 1:
            return self.matrix
        c0 = self.classes[0]
        pos = {s: i for i, s in enumerate(c0)}
        rows = []
        for s in c0:
            walk = {s: 1}
            for _ in range(self.period):
                nxt: dict[int, int] = {}
                for t, c in walk.items():
                    for j, v in self.matrix.succ[t]:
                        nxt[j] = nxt.get(j, 0) + c * v
                walk = nxt
            rows.append(tuple(sorted((pos[j], c) for j, c in walk.items())))
        return TransitionMatrix(succ=tuple(rows))

    @cached_property
    def core_chi(self) -> tuple[int, ...]:
        return _faddeev_leverrier(self.core)

    @cached_property
    def chi(self) -> tuple[int, ...]:
        """chi_B(z) = z^(|B| - p|C_0|) chi_B0(z^p) (Horn & Johnson, Matrix
        Analysis, 8.4-8.5: B^p is block diagonal, and its diagonal blocks,
        cyclic products of the A_{j,j+1}, share their nonzero eigenvalues
        with B0)."""
        p, shift = self.period, self.matrix.size - self.period * len(self.classes[0])
        chi = [0] * (self.matrix.size + 1)
        for i, c in enumerate(self.core_chi):
            chi[shift + p * i] = c
        return tuple(chi)


class _Structure(NamedTuple):
    comps: list[tuple[list[int], int, list[int]]]
    blocks: list[_Block]  # the SCCs with a cycle, in the order of comps
    acyclic: int  # the number of states on no cycle


def _structure(matrix: TransitionMatrix) -> _Structure:
    """The SCCs of the matrix's graph from one Tarjan walk, and the block
    of each SCC with a cycle, built once per matrix: the matrix is frozen,
    so the structure is kept in its own __dict__ (as functools.cached_property
    keeps a value) and lives as long as it does."""
    memo = matrix.__dict__
    if "_spectral_structure" not in memo:
        comps = _sccs([[j for j, _ in terms] for terms in matrix.succ])
        blocks = []
        for comp, period, phase in comps:
            if not period:
                continue
            local = {s: i for i, s in enumerate(comp)}
            block = TransitionMatrix(succ=tuple(
                tuple(sorted((local[j], v) for j, v in matrix.succ[s] if j in local))
                for s in comp))
            classes: list[list[int]] = [[] for _ in range(period)]
            for i, c in enumerate(phase):
                classes[c].append(i)
            first = min(range(period), key=lambda c: len(classes[c]))
            blocks.append(_Block(comp, period, block, classes[first:] + classes[:first]))
        memo["_spectral_structure"] = _Structure(
            comps, blocks, matrix.size - sum(len(b.states) for b in blocks))
    return memo["_spectral_structure"]


class DominanceStatus(Enum):
    """How (and whether) the dominant eigenvalue was shown to strictly
    exceed every other eigenvalue modulus."""

    VERIFIED_PRIMITIVE = "VerifiedPrimitive"
    VERIFIED_SPECTRAL_GAP = "VerifiedSpectralGap"
    FAILED_PERIPHERAL_SPECTRUM = "FailedPeripheralSpectrum"


_VERIFIED = (DominanceStatus.VERIFIED_PRIMITIVE, DominanceStatus.VERIFIED_SPECTRAL_GAP)


class DominanceReport(NamedTuple):
    status: DominanceStatus
    strongly_connected: bool
    cycle_gcd: int | None

    @property
    def verified(self) -> bool:
        return self.status in _VERIFIED


class PerronResult(NamedTuple):
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


class DimensionResult(NamedTuple):
    """log_{m+1}(alpha) as a rational enclosure.  `dimension` builds one only
    under a verified dominant eigenvalue, where this equals both the
    expansion-set dimension and the growth rate of prefix counts."""

    dim: Interval
    status: DominanceStatus


def check_dominance(matrix: TransitionMatrix) -> DominanceReport:
    """Decide exactly whether the dominant eigenvalue strictly exceeds all
    other eigenvalue moduli.

    The spectrum of A is that of the diagonal blocks of its strongly
    connected components (SCCs) with a cycle, plus zeros, and the Perron
    root of an irreducible block of period p shares its modulus with
    exactly p of the block's eigenvalues.  So dominance holds iff exactly
    one SCC attains alpha, the largest Perron root, and its period is 1.
    A graph that is one SCC attains it alone and is decided by its period:
    VerifiedPrimitive at period 1, else FailedPeripheralSpectrum.  On any
    other graph a block B attains alpha iff chi_B vanishes there, and the
    sign of chi_B at the ends of alpha's isolating interval on sf(chi_A)
    (_isolation, shared with the root stage) decides it
    (polys.vanishes_at_root): every root of chi_B is a root of sf(chi_A),
    and a root alpha = rho(A) >= rho(B) of chi_B is rho(B), the Perron root
    of the irreducible B, a simple root of chi_B (Horn & Johnson, Matrix
    Analysis, Thm 8.4.4).  One winner of period 1 is VerifiedSpectralGap;
    a tie, a larger period or a graph without cycles is
    FailedPeripheralSpectrum.  The zero matrix has no positive eigenvalue
    to dominate and raises ZeroMatrix.
    """
    if not any(matrix.succ):
        raise ZeroMatrix("transition matrix has no nonzero entry")
    structure = _structure(matrix)
    connected = len(structure.comps) == 1
    winners = structure.blocks
    if not connected:
        _, _, (lo, hi) = _isolation(matrix)
        winners = [b for b in winners if polys.vanishes_at_root(b.chi, lo, hi)]
    gap = len(winners) == 1 and winners[0].period == 1
    verified = DominanceStatus.VERIFIED_PRIMITIVE if connected else DominanceStatus.VERIFIED_SPECTRAL_GAP
    status = verified if gap else DominanceStatus.FAILED_PERIPHERAL_SPECTRUM
    return DominanceReport(status, connected, structure.comps[0][1] if connected else None)


# ---------------------------------------------------------------------------
# dominant eigenvalue and eigenvector
# ---------------------------------------------------------------------------

def perron_eigenvalue(matrix: TransitionMatrix, tol=Fraction(1, 10 ** 12)) -> PerronResult:
    """Isolate the largest real root of the characteristic polynomial to
    width <= tol and take a nonnegative eigenvector from the adjugate: the
    root stage (_perron_root), then the eigenvector stage, which encloses
    adj(alpha*I - A) . 1 and scales it to unit norm.  On one SCC of period
    p > 1 the adjugate is that of B0, at alpha^p, spread over the SCC."""
    tol = Fraction(tol)
    chi, root, alpha = _perron_root(matrix, tol)
    if root.p == 1:
        vec = _adjugate_eigenvector(chi, _adjugate_row_sums(matrix, chi), root, alpha, tol)
    else:
        vec = _cyclic_eigenvector(_structure(matrix).blocks[0], root, alpha, tol)
    return PerronResult(alpha=alpha, eigenvector=_normalize_eigenvector(vec), char_poly=chi)


class _PerronRoot:
    """The Perron root alpha, the largest real root of sf(chi_A).

    sf(chi_A) is z^eps g(z^p): g = sf(chi_A) with p = 1 and eps = 0, or, on
    one SCC of period p > 1, g the squarefree part of chi_B0 with its
    factors z divided out (the roots of g(z^p) are then simple, as its
    derivative is p z^(p-1) g'(z^p), and nonzero).  `w` isolates alpha^p,
    g's largest root, as a bracket (_bracket): _halve places a point x > 0
    by x^p against w, which each placement bisects on g, in place, only as
    far as it must."""

    def __init__(self, g: tuple[int, ...], w: Interval, p: int = 1):
        self.g, self.w, self.p = g, _bracket(g, *w), p


def _bracket(g: tuple[int, ...], lo: Fraction, hi: Fraction) -> list[int]:
    """An isolating interval [lo, hi] of a root of g (from
    polys.isolate_real_roots: an exact point, or open with non-root
    endpoints) as the list [a, b, e, left] for [a/e, b/e], left the sign
    of g at a/e."""
    a, b, e = polys.integer_endpoints(lo, hi)
    return [a, b, e, polys.sign_at(g, a, e)]


def _above(g: tuple[int, ...], iv: list[int], n: int, d: int) -> bool:
    """Whether the root of g that the bracket iv (_bracket) isolates
    exceeds n/d, for d > 0.  iv is bisected in place (polys.bisect_step)
    until n/d leaves its interior."""
    a, b, e, left = iv
    while a * d < n * e < b * d:
        a, b, e = polys.bisect_step(g, a, b, e, left)
    iv[:3] = a, b, e
    return n * e < a * d or n * e == a * d < b * d


def _isolation(matrix: TransitionMatrix) -> tuple[tuple[int, ...], _PerronRoot, Interval]:
    """alpha's isolation, made once per matrix and kept next to its
    structure (_structure) in the matrix's __dict__: the characteristic
    polynomial chi, the Perron root with its squarefree polynomial, and the
    isolating interval of alpha that polys.isolate_real_roots gives on
    sf(chi_A).  On one SCC of period p > 1 the same walk counts roots on
    B0's polynomial (_cyclic_root).  Every comparison of the root is exact,
    so its results do not depend on how far earlier ones have narrowed the
    root's `w`."""
    memo = matrix.__dict__
    if "_spectral_isolation" not in memo:
        chi = char_polynomial(matrix)
        structure = _structure(matrix)
        if len(structure.comps) == 1 and structure.blocks[0].period > 1:
            root, iv = _cyclic_root(structure.blocks[0])
        else:
            chi_sf = polys.squarefree_part_int(chi)
            iv = polys.isolate_real_roots(chi_sf)[-1]  # rho(A) is a real root
            root = _PerronRoot(chi_sf, iv)
        memo["_spectral_isolation"] = chi, root, iv
    return memo["_spectral_isolation"]


def _perron_root(matrix: TransitionMatrix,
                 tol: Fraction) -> tuple[tuple[int, ...], _PerronRoot, Interval]:
    """The root stage: the characteristic polynomial chi, the Perron root
    with its squarefree polynomial, and the enclosure of width <= tol of the
    largest real root, refined from alpha's isolation (_isolation) and
    checked against the Perron row-sum bracket."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not any(matrix.succ):
        raise ZeroMatrix("transition matrix has no nonzero entry")

    chi, root, (lo, hi) = _isolation(matrix)
    # a rational root comes back as the exact point [r, r], which bisection keeps
    lo, hi = _refine(root, lo, hi, tol)

    row_sums = matrix.mul_vec([1] * matrix.size)
    assert lo <= max(row_sums) and hi >= min(row_sums), \
        "dominant root escaped the row-sum bracket"
    return chi, root, (lo, hi)


def _cyclic_root(block: _Block) -> tuple[_PerronRoot, Interval]:
    """For a graph that is the one SCC `block`, of period p > 1: the Perron
    root, with sf(chi_A) = z^eps g(z^p), and its isolating interval on
    sf(chi_A), the first node of polys._isolating_nodes with the integer
    roots (0 when eps = 1, each r with r^p an integer root of g) deflated.
    The roots above x are counted on g's isolating intervals: the p-th roots
    of g's roots above x^p (z -> z^p increases on z >= 0, and on every z for
    p odd), and 0 when eps = 1 and x < 0; for p even the real roots are
    symmetric about 0, so above x < 0 lie all but those at or above -x."""
    p, chi0 = block.period, block.core_chi
    j = next(i for i, c in enumerate(chi0) if c)  # chi_B0 = w^j h(w), h(0) != 0
    g = polys.squarefree_part_int(chi0[j:])
    ivs = polys.isolate_real_roots(g)  # ascending
    root = _PerronRoot(g, ivs[-1], p)
    eps = int(block.matrix.size > p * (len(chi0) - 1 - j))
    exact = [0] * eps
    for lo, hi in ivs:
        r = _iroot(abs(lo.numerator), p) if lo == hi else 0
        if r and r ** p == abs(lo) and (lo > 0 or p % 2):
            exact += [r if lo > 0 else -r] + ([-r] if p % 2 == 0 else [])
    if max(exact, default=0) ** p == root.w[0] == root.w[1]:  # alpha, the top root, is an integer
        return root, (Fraction(max(exact)),) * 2
    roots = [_bracket(g, *iv) for iv in ivs[:-1]] + [root.w]
    work = [0] * (eps + p * (len(g) - 1) + 1)
    work[eps::p] = g

    @cache
    def beyond(y: int, s: int) -> int:  # g's roots above y/s, the last of the ascending `roots`
        return len(roots) - bisect_left(roots, True, key=lambda iv: _above(g, iv, y, s))

    def above(n: int, d: int) -> int:  # the real roots of z^eps g(z^p) above n/d
        if n < 0 and p % 2 == 0:
            return eps + 2 * beyond(0, 1) - above(-n, d) - any(r * d == n for r in exact)
        return eps * (n < 0) + beyond(n ** p, d ** p)

    work = polys.deflate(work, exact)
    a, b, e = next(polys._isolating_nodes(work, exact, above, partial(_halve, root)))
    return root, (Fraction(a, e), Fraction(b, e))


def _iroot(n: int, p: int) -> int:
    """floor(n^(1/p)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // p)
    while True:
        s = ((p - 1) * r + n // r ** (p - 1)) // p
        if s >= r:
            return r
        r = s


def _halve(root: _PerronRoot, a: int, b: int, e: int) -> IntInterval:
    """The half of [a/e, b/e] that holds alpha, by the midpoint
    x = (a + b) / 2e, placed by x^p against w (x <= 0 lies below alpha >= 1).
    With p = 1, w and every enclosure halved here are nodes of one dyadic
    tree grown from alpha's isolating interval, so this is the half that
    polys.bisect_step picks, by no more sign reads.  A rational alpha is
    never halved: isolation returns it as an exact point."""
    mid, e = a + b, 2 * e
    if mid > 0 and not _above(root.g, root.w, mid ** root.p, e ** root.p):
        return 2 * a, mid, e
    return mid, 2 * b, e


def _refine(root: _PerronRoot, lo: Fraction, hi: Fraction, tol: Fraction) -> Interval:
    """Bisect alpha's isolating interval [lo, hi] to width at most tol, in
    integers (_halve).  The number of halvings, ceil(log2((hi - lo) / tol)),
    is known up front: above polys.MAX_HALVINGS this raises
    RefinementBudgetExceeded before the first step."""
    if hi - lo > tol:
        ratio = (hi - lo) / tol
        halvings = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
        if halvings > polys.MAX_HALVINGS:
            raise RefinementBudgetExceeded(
                f"the requested width takes {halvings} halvings of the isolating "
                f"interval, over the budget of {polys.MAX_HALVINGS}")
    a, b, e = polys.integer_endpoints(lo, hi)
    while (b - a) * tol.denominator > tol.numerator * e:
        a, b, e = _halve(root, a, b, e)
    return Fraction(a, e), Fraction(b, e)


def _adjugate_eigenvector(chi: tuple[int, ...], adj_one: list[list[int]], root: _PerronRoot,
                          alpha: Interval, tol: Fraction) -> list[IntInterval]:
    """Enclosures of the nonnegative P(alpha) for P = adj(zI - A) . 1, each
    as integers (lo, hi, s) for [lo/s, hi/s], for a matrix that is not one
    SCC of period > 1 (root.p = 1, root.g = sf(chi_A)).

    (alpha*I - A) P(alpha) = chi(alpha) . 1 = 0, so P(alpha) is an eigenvector
    once it is nonzero.  When every P_i vanishes at alpha (possible only at
    geometric multiplicity >= 2), t = gcd(chi_sf, P_1, ..., P_k) has alpha as
    a root and P/t solves (zI - A) P/t = chi/t . 1; repeat.  Since
    (zI - A)^-1 . 1 has a pole at the Perron root of order equal to its
    index, this stops before chi/t loses that root.  No sign needs fixing
    (alpha*I - A is a singular M-matrix; Berman & Plemmons, ch. 6): for
    z > alpha = rho(A), (zI - A)^-1 >= 0 and chi(z), t(z) > 0, so P/t >= 0
    at alpha, as a limit from the right.
    """
    chi_sf = root.g
    vec, rest = adj_one, list(chi)
    eps = Fraction(1, 2 ** 48)
    at = polys.integer_endpoints(*alpha)  # each evaluation below narrows it and hands it on
    while True:
        reduced = [polys.divmod_monic(p, chi_sf)[1] for p in vec]
        rough, at = _evaluate_at_root(reduced, root, at, eps)
        if any(lo > 0 or hi < 0 for lo, hi, _ in rough):
            break
        # every enclosure meets 0: divide out a common factor at alpha if
        # there is one, else some entry is nonzero but tiny, so look closer;
        # t divides chi_sf, whose root `alpha` isolates, so two signs decide
        t = chi_sf
        for p in reduced:
            t = polys.gcd_int(t, p)
        if polys.vanishes_at_root(t, *alpha):
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
        assert polys.vanishes_at_root(polys.gcd_int(rest, chi_sf), *alpha), \
            "common-factor division removed the Perron root"
    # the largest |endpoint| n/d, compared by cross-multiplying
    n, d = 0, 1
    for lo, hi, s in rough:
        m = max(-lo, hi)  # max(|lo|, |hi|), as lo <= hi
        if m * d > n * s:
            n, d = m, s
    ivs, _ = _evaluate_at_root(reduced, root, at, tol * Fraction(n, d))
    assert all(hi >= 0 for _, hi, _ in ivs), "adjugate eigenvector is not nonnegative"
    return ivs


def _cyclic_eigenvector(block: _Block, root: _PerronRoot, alpha: Interval,
                        tol: Fraction) -> list[IntInterval]:
    """The Perron eigenvector of a graph that is the one SCC `block`, of
    period p > 1, as integers (lo, hi, s) for [lo/s, hi/s], each entry at
    most tol times the largest upper bound wide.

    B0 is primitive, so its Perron root w = alpha^p is simple and
    adj(wI - B0) . 1 is a positive eigenvector of B0 on C_0: its rows,
    reduced mod g, are evaluated at the p-th power of alpha's enclosure and
    spread over the SCC (_spread).  While some entry is too wide, the
    entries on C_0 are enclosed more tightly and alpha's enclosure is
    halved four times, since both widen the spread vector."""
    chi0 = block.core_chi
    reduced = [polys.divmod_monic(q, root.g)[1] for q in _adjugate_row_sums(block.core, chi0)]
    a, b, e = polys.integer_endpoints(*alpha)
    while a < 0:  # alpha >= 1: take p-th powers only where they increase
        a, b, e = _halve(root, a, b, e)
    eps = None  # the first pass evaluates at alpha's enclosure as it is
    while True:
        v0, (a, b, e) = _evaluate_at_root(reduced, root, (a, b, e), eps)
        vec = _spread(block, v0, (a, b, e))
        _, top, den = max(vec, key=lambda iv: Fraction(iv[1], iv[2]))
        bound = tol.numerator * top
        if all((hi - lo) * den * tol.denominator <= bound * s for lo, hi, s in vec):
            break
        target = tol * max(Fraction(hi, s) for _, hi, s in v0)
        eps = min(eps or target, target) / 16
        for _ in range(4):
            a, b, e = _halve(root, a, b, e)
    assert all(hi >= 0 for _, hi, _ in vec), "adjugate eigenvector is not nonnegative"
    return vec


def _spread(block: _Block, v0: list[IntInterval], at: IntInterval) -> list[IntInterval]:
    """The Perron vector of a graph that is the one SCC `block`, from v0,
    its part on C_0, with alpha in [a/e, b/e] = `at`, a >= 0, in the order
    of the graph's states.

    v_{C_j} = A_{j,j+1} v_{C_{j+1}} / alpha, so alpha^(p-1) v is
    alpha^(p-1) v0 on C_0 and alpha^(j-1) A_{j,j+1} ... A_{p-1,0} v0 on C_j
    (j >= 1); the products are taken class by class from C_{p-1} back to
    C_1, and as A >= 0 the bounds of each are the products of the bounds.
    v0 and every entry of the result are rounded outward (_round_out)."""
    a, b, e = at
    p = block.period
    v0 = [_round_out(*iv) for iv in v0]
    den = math.lcm(*(s for _, _, s in v0))
    x: list[tuple[int, int]] = [(0, 0)] * len(block.states)
    for i, (lo, hi, s) in zip(block.classes[0], v0):
        x[i] = (lo * (den // s), hi * (den // s))
    for cls in reversed(block.classes[1:]):
        for i in cls:
            terms = block.matrix.succ[i]
            x[i] = (sum(v * x[t][0] for t, v in terms), sum(v * x[t][1] for t, v in terms))
    out: list[IntInterval] = [(0, 0, 1)] * len(block.states)
    den *= e ** (p - 1)
    for j, cls in enumerate(block.classes):
        t = j - 1 if j else p - 1  # the power of alpha on C_j
        lo_pow, hi_pow, scale = a ** t, b ** t, e ** (p - 1 - t)
        for i in cls:
            lo, hi = x[i]
            out[block.states[i]] = _round_out(lo * (lo_pow if lo >= 0 else hi_pow) * scale,
                                              hi * (hi_pow if hi >= 0 else lo_pow) * scale, den)
    return out


def _power(p: int, a: int, b: int, e: int) -> IntInterval:
    """[a/e, b/e] itself for p = 1, else the enclosure [a^p, b^p] / e^p of
    its p-th power (a >= 0), rounded outward (_round_out)."""
    return (a, b, e) if p == 1 else _round_out(a ** p, b ** p, e ** p)


def _round_out(lo: int, hi: int, s: int) -> IntInterval:
    """[lo/s, hi/s] rounded outward to the dyadic grid polys.ROUND_OUT_BITS
    bits finer than its width, so the sizes of the integers follow the
    width, not the arithmetic behind them; an exact point is kept."""
    if lo == hi:
        return lo, hi, s
    k = max(0, s.bit_length() - (hi - lo).bit_length() + polys.ROUND_OUT_BITS)
    return (lo << k) // s, -((-hi << k) // s), 1 << k


def _evaluate_at_root(ps: list[list[int]], root: _PerronRoot, at: IntInterval,
                      eps: Fraction | None) -> tuple[list[IntInterval], IntInterval]:
    """Enclose q(alpha^p) to width <= eps for each q in ps by integer
    interval Horner (polys.horner_interval_int) at the p-th power of an
    enclosure [a/e, b/e] = `at` of the Perron root alpha (a >= 0 when
    p > 1), bisecting `at` while an entry is too wide (an exact point
    [r, r] evaluates exactly; eps = None evaluates once, without
    bisecting).  Returns the enclosures as integers (lo, hi, s) for
    [lo/s, hi/s] and the narrowed `at` for the next call.

    The width test cross-multiplies, and a bisection step doubles e and
    keeps the numerators (_halve).  With p = 1 every endpoint is the
    rational that Fraction bisection and rational interval Horner give;
    with p > 1 the power of the enclosure is rounded outward first
    (_power)."""
    a, b, e = at
    out = []
    for q in ps:
        if not q:
            out.append((0, 0, 1))
            continue
        vlo, vhi, s = polys.horner_interval_int(q, *_power(root.p, a, b, e))
        rounds = 0
        while eps is not None and (vhi - vlo) * eps.denominator > eps.numerator * s:
            if rounds == 100_000:
                raise RefinementBudgetExceeded("eigenvector entry did not reach the requested width")
            a, b, e = _halve(root, a, b, e)
            vlo, vhi, s = polys.horner_interval_int(q, *_power(root.p, a, b, e))
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

def _ln_bounds(x: Fraction) -> Interval:
    """Enclosure of ln(x) for x > 0 via the decimal module at 50 digits.
    The quotient is rounded outward, but Decimal.ln rounds half-even
    whatever the context's rounding, so its result is stepped one unit
    outward.  ln(1) = 0 is exact and kept; the log of any other rational is
    irrational (Lindemann), so its rounding is never exact."""
    if x <= 0:
        raise ValueError("ln of a nonpositive value")
    bounds = []
    for rounding, step in ((ROUND_FLOOR, Decimal.next_minus), (ROUND_CEILING, Decimal.next_plus)):
        with localcontext() as ctx:
            ctx.prec = 50
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
