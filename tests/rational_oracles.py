"""Rational references for the integer kernels in betaorbit.

The package reads every sign by integer Horner (polys.sign_at), takes the
squarefree part of a monic integer polynomial in the integers
(polys.squarefree_part_int), builds the Sturm chain and the gcd as
primitive remainder sequences (polys.sturm_chain_int, polys.gcd_int),
inverts a field element by fraction-free elimination
(FieldElement.inverse), and keeps the Perron eigenvector's enclosures as
integer numerators over one denominator until they are printed
(spectral._evaluate_at_root, spectral._normalize_eigenvector,
polys.sqrt_bounds_int, polys.decimal_str).  The textbook rational forms below,
the polynomial ring over Q, the extended euclidean inverse and the
Fraction eigenvector routines included, are what the tests compare those
kernels against; the package itself never calls them.  Whether a factor
of an isolated polynomial vanishes at the isolated root is read from two
signs in the package (polys.vanishes_at_root); the Sturm count of roots in
an interval is kept here as its oracle.

The package also builds the characteristic polynomial from the blocks of
the strongly connected components, bisects alpha in integers
(spectral._refine) and, on a graph that is one component of period p > 1,
isolates alpha on B0's polynomial and spreads B0's eigenvector over the
cyclic classes.  The whole-matrix routes it replaced there
(Faddeev-LeVerrier on all of A, isolation on sf(chi_A), Fraction
bisection, and the adjugate of A) are kept below as oracles.

The orbit search runs on integer keys and encloses beta*x from a
fixed-point table of powers of beta (ExpansionParams._images).  The
FieldElement search it replaced, beta*x by field multiplication and
enclosed on the field's ladder by approx_int, is kept below as its oracle.
"""

from fractions import Fraction

from betaorbit import orbit, polys, spectral
from betaorbit.errors import CapHit, DivisionByZero, OutsideInterval, RefinementBudgetExceeded
from betaorbit.field import FieldElement


# --- the polynomial ring over Q (normalized Fraction tuples) ---

def normalize(coeffs) -> tuple[Fraction, ...]:
    """Coerce to Fractions and strip trailing zero coefficients."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p) -> int:
    """Degree of a normalized polynomial; the zero polynomial has degree -1."""
    return len(p) - 1


def derivative(p) -> tuple[Fraction, ...]:
    return normalize([i * p[i] for i in range(1, len(p))])


def add(p, q) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    return normalize([
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)
    ])


def negate(p) -> tuple[Fraction, ...]:
    return tuple(-c for c in p)


def mul(p, q) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


def divmod_poly(p, q) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact euclidean division over the rationals."""
    p = list(normalize(p))
    q = normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq, lead = degree(q), q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    while len(p) - 1 >= dq and p:
        shift = len(p) - 1 - dq
        factor = p[-1] / lead
        quot[shift] = factor
        for i in range(dq + 1):
            p[shift + i] -= factor * q[i]
        while p and p[-1] == 0:
            p.pop()
    return normalize(quot), tuple(p)


def monic(p) -> tuple[Fraction, ...]:
    p = normalize(p)
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def gcd_poly(p, q) -> tuple[Fraction, ...]:
    """Monic gcd over the rationals by the euclidean algorithm."""
    a, b = normalize(p), normalize(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
        b = monic(b) if b else b  # renormalize to tame coefficient growth
    return monic(a)


# --- evaluation, squarefree part, Sturm chain ---

def evaluate(p, x: Fraction) -> Fraction:
    """p(x) by Horner's rule over the rationals."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_part(p) -> tuple[Fraction, ...]:
    """p / gcd(p, p'), monic."""
    p = normalize(p)
    g = gcd_poly(p, derivative(p))
    if degree(g) == 0:
        return monic(p)
    return monic(divmod_poly(p, g)[0])


def sturm_chain(p) -> list[tuple[Fraction, ...]]:
    """Sturm chain of a squarefree polynomial over the rationals, each
    remainder negated and divided by the absolute value of its leading
    coefficient (a positive scaling keeps the sign-variation counts)."""
    p = normalize(p)
    chain = [p, derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        scale = abs(rem[-1])
        chain.append(tuple(-c / scale for c in rem))
    return [c for c in chain if c]


def count_roots_in_interval(p, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the squarefree integer polynomial p in
    [lo, hi], endpoints included, by a Sturm count (polys.sturm_chain_int):
    the oracle of polys.vanishes_at_root, which reads two signs."""
    nums = polys._strip(p)
    if len(nums) < 2:
        return 0
    at_lo = polys.sign_at(nums, lo.numerator, lo.denominator) == 0
    if lo == hi:
        return int(at_lo)
    return at_lo + polys.count_roots_between(polys.sturm_chain_int(nums), lo, hi)


# --- field inverse ---

def inverse(elem):
    """The inverse of a nonzero FieldElement by the extended euclidean
    algorithm on (element polynomial, defining polynomial) over Q."""
    if elem.is_zero():
        raise DivisionByZero("inverse of zero")
    r0, r1 = elem.field.min_poly.coeffs, normalize(elem.coeffs)
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, add(t0, negate(mul(q, t1)))
    if degree(r0) > 0:
        raise DivisionByZero(
            "zero divisor: element shares a factor with the (reducible) defining polynomial"
        )
    g = r0[0]
    # deg t0 < deg of the defining polynomial, so no reduction is needed
    return elem.field.element([c / g for c in t0])


# --- the Perron eigenvector in Fraction arithmetic ---

def evaluate_at_root(ps, chi_sf, at, eps):
    """Enclose p(alpha) to width <= eps for each p by rational interval
    Horner at an enclosure `at` = (lo, hi) of a root alpha of chi_sf,
    bisecting `at` on chi_sf while an entry is too wide.  Returns the
    enclosures and the narrowed `at`."""
    lo, hi = at
    out = []
    for p in ps:
        vlo, vhi = polys.evaluate_interval(p, lo, hi)
        rounds = 0
        while vhi - vlo > eps:
            if rounds == 100_000:
                raise RefinementBudgetExceeded("eigenvector entry did not reach the requested width")
            lo, hi = polys.bisect_step(chi_sf, lo, hi)
            vlo, vhi = polys.evaluate_interval(p, lo, hi)
            rounds += 1
        out.append((vlo, vhi))
    return out, (lo, hi)


def normalize_eigenvector(intervals):
    """Scale the largest entry's midpoint to 1, then divide every entry by
    an enclosure of the euclidean norm over the whole box, by the
    four-quotient interval division."""
    nums, _ = polys.common_denominator([x for iv in intervals for x in iv])
    pairs = list(zip(nums[::2], nums[1::2]))
    top = max(abs(a + b) for a, b in pairs)
    if top == 0:
        return tuple(intervals)
    sq_lo = Fraction(4 * sum(0 if a <= 0 <= b else min(a * a, b * b) for a, b in pairs), top * top)
    sq_hi = Fraction(4 * sum(max(a * a, b * b) for a, b in pairs), top * top)
    intervals = [(Fraction(2 * a, top), Fraction(2 * b, top)) for a, b in pairs]
    iters = 6 + len(intervals).bit_length()
    nlo = sqrt_bounds(sq_lo, iters)[0]
    nhi = sqrt_bounds(sq_hi, iters)[1]
    return tuple(polys.interval_div(iv, (nlo, nhi)) for iv in intervals)


def sqrt_bounds(value: Fraction, iters: int = 4):
    """Enclosure of sqrt(value) for value >= 0 by Heron iteration in
    Fractions, each iterate rounded up to a multiple of 2^-96."""
    if value == 0:
        return Fraction(0), Fraction(0)
    hi = polys.round_up((value + 1) / 2, 96)
    for _ in range(iters):
        hi = polys.round_up((hi + value / hi) / 2, 96)
    return polys.round_down(value / hi, 96), hi


def decimal_str(x: Fraction, places: int, direction: int) -> str:
    """Directed decimal rendering through a Fraction product: direction < 0
    rounds down, > 0 rounds up."""
    scaled = x * 10 ** places
    n = scaled.numerator // scaled.denominator
    if direction > 0 and n * scaled.denominator != scaled.numerator:
        n += 1
    sign = "-" if n < 0 else ""
    intpart, fracpart = divmod(abs(n), 10 ** places)
    return f"{sign}{intpart}.{str(fracpart).zfill(places)}"


# --- the whole-matrix Perron route ---

def refine_to_width(p, lo, hi, width):
    """Fraction bisection of [lo, hi] on p (polys.bisect_step) to width at
    most `width`."""
    while hi - lo > width:
        lo, hi = polys.bisect_step(p, lo, hi)
    return lo, hi


def whole_matrix_perron_root(matrix, tol):
    """(chi, sf(chi), alpha) by Faddeev-LeVerrier on the whole matrix, one
    isolation of the largest real root of sf(chi) and bisection to width
    tol."""
    chi = spectral._faddeev_leverrier(matrix)
    chi_sf = polys.squarefree_part_int(chi)
    alpha = refine_to_width(chi_sf, *polys.isolate_real_roots(chi_sf)[-1], tol)
    return chi, chi_sf, alpha


def whole_matrix_eigenvector(matrix, tol):
    """alpha and the unit eigenvector from the adjugate adj(alpha*I - A) . 1
    of the whole matrix, each entry at most tol times the largest wide
    before normalisation."""
    chi, chi_sf, alpha = whole_matrix_perron_root(matrix, tol)
    vec = spectral._adjugate_eigenvector(chi, spectral._adjugate_row_sums(matrix, chi),
                                         spectral._PerronRoot(chi_sf, list(alpha)), alpha, tol)
    return alpha, spectral._normalize_eigenvector(vec)


# --- the orbit search on FieldElements ---

BRANCH_EPS = Fraction(1, 1 << 12)


def branches(params, x):
    """The pairs (i, beta*x - i), digits ascending, for the digits i whose
    image stays in [0, R]: beta*x is one field product, its 2^-12 enclosure
    on the field's ladder settles every digit except a bound it cannot
    decide, and that bound goes to an exact comparison."""
    bx = params.beta * x
    blo, bhi, bd = bx.approx_int(BRANCH_EPS)
    rlo, rhi, rd = params._right_enclosure
    n0, rest, den = bx.nums[0], bx.nums[1:], bx.den
    field, zero, right = params.field, params.field.zero, params.right_endpoint
    first = max(0, -((rhi * bd - blo * rd) // (bd * rd)))
    last = min(params.m, bhi // bd)
    out = []
    for i in range(first, last + 1):
        img = FieldElement(field, (n0 - i * den,) + rest, den)
        if i * bd > blo and img.compare(zero) < 0:
            continue
        if (bhi - i * bd) * rd > rlo * bd and img.compare(right) > 0:
            continue
        out.append((i, img))
    if not out:
        raise OutsideInterval(f"{x!r} lies outside [0, m/(beta-1)]")
    return tuple(out)


def compute_orbit(params, x, state_cap=100_000, depth_cap=1_000):
    """(states, edges, discovery depths) of the BFS from x over the digits
    of branches, deduplicated on FieldElements, with orbit.compute_orbit's
    caps and CapHit counts."""
    states, index, depth = [x], {x: 0}, [0]
    bits = orbit._bits(x)
    edges = []
    qpos = 0
    while qpos < len(states):
        if depth[qpos] >= depth_cap:
            raise CapHit(len(states), "depth")
        for digit, img in branches(params, states[qpos]):
            j = index.get(img)
            if j is None:
                if len(states) >= state_cap:
                    raise CapHit(len(states) + 1, "state")
                bits += orbit._bits(img)
                if bits > orbit.MAX_ORBIT_BITS:
                    raise CapHit(len(states) + 1, "bits")
                j = len(states)
                index[img] = j
                states.append(img)
                depth.append(depth[qpos] + 1)
            edges.append((qpos, digit, j))
        qpos += 1
    return states, edges, depth
