"""Exact arithmetic and ordering in Q(beta) for an algebraic base beta.

A NumberField is presented by a monic squarefree integer polynomial together
with a chosen real root beta > 1 (selected by rank among the real roots).
A field element is a rational vector in the power basis 1, beta, ...,
beta^(d-1), stored as integer numerators over one common denominator,
(nums, den) with den > 0 and gcd(den, *nums) == 1.  That reduced form is
unique, so equality, hashing and deduplication compare it directly, and each
ring operation ends with one gcd normalisation.

Ordering and approximation share one ladder of rational enclosures of beta,
kept as integer endpoints (a, b, e) for [a/e, b/e]: rungs, each at least
256 times narrower than the one before, and last the current enclosure.
Both run integer interval Horner (polys.horner_interval_int) on the
numerators; den > 0 does not change a sign.  Interval Horner is
inclusion-isotone and the rungs are nested, so the enclosure at a finer
rung lies inside the one at a coarser rung.  Hence compare reads the sign at
the current enclosure, which decides every sign a coarser rung decides, and
refines beta one bisection at a time until the sign is certain.  approx
returns the first rung, coarse to fine, whose enclosure is narrow enough
(the rungs that fit form a suffix of the ladder): it starts at the rung the
last request with the same width returned, mostly checks that rung and the
one before it, and walks on into refinement when no rung fits.  Its integer
core, approx_int, returns the enclosure as integers (alo, ahi, den); approx
builds Fractions only for the interval it returns.  On the orbit path the
ladder serves the exact compares, the enclosure of m/(beta-1) and the state
labels.  beta*x is enclosed in dynamics from a table of powers of beta that
reads the first rung and never refines the ladder: the ladder's state when
the labels run picks the enclosure each label reads.

The d-1 conjugates of beta are kept as one list of upper-half-plane boxes:
a real conjugate is the zero-height box of its isolating interval, refined
by bisection, and a complex pair is the pairwise disjoint certified box of
its upper root (polys.propose_and_certify_complex_roots), refined by
interval Newton.

All values are immutable after construction.  The mutable state is the
per-field enclosure cache: the ladder, whose last rung is beta's only
stored enclosure, and the conjugate boxes.  Their refinement is monotone
narrowing and guarded by a lock, so any snapshot a concurrent reader sees
is a valid enclosure; the ladder list is replaced, never changed in place,
so compare, approx and beta_interval read it without the lock.  The
per-width rung hint is advisory: any hint gives the same interval, so it
needs no lock either.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from . import polys
from .errors import (
    DegreeZero,
    DivisionByZero,
    NoRealRootAboveOne,
    NotSquarefree,
    RefinementBudgetExceeded,
)
from .polys import Box, Interval

_CMP_BUDGET = 4096
_ZERO_TEST_AFTER = 65  # refinements before suspecting a reducible modulus


class IntPolynomial:
    """Monic integer polynomial, constant term first; immutable, hashable
    and equal by value."""

    def __init__(self, coeffs: tuple[int, ...]):
        cs = tuple(int(c) for c in coeffs)
        for c, n in zip(coeffs, cs):
            if c != n:
                raise ValueError(f"coefficient {c} is not an integer")
        object.__setattr__(self, "coeffs", cs)
        if len(cs) < 2:
            raise DegreeZero("defining polynomial must have degree >= 1")
        if cs[-1] != 1:
            raise ValueError("defining polynomial must be monic")

    def __setattr__(self, name, value):
        raise AttributeError(f"IntPolynomial is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntPolynomial is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is IntPolynomial else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        return _format_terms(reversed(list(enumerate(self.coeffs))), "z")


class PisotCertificate(NamedTuple):
    """Outcome of the Pisot test: base bracket plus conjugate modulus bound.

    status is "pisot", "not_pisot", or "unknown" (refinement budget hit while
    some conjugate modulus still straddles 1).
    """

    status: str
    beta_lower: Fraction
    beta_upper: Fraction
    max_conjugate_modulus_upper: Fraction
    budget: int

    @property
    def is_pisot(self) -> bool:
        return self.status == "pisot"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "is_pisot": self.is_pisot,
            "beta_lower": str(self.beta_lower),
            "beta_upper": str(self.beta_upper),
            "max_conjugate_modulus_upper": str(self.max_conjugate_modulus_upper),
            "budget": self.budget,
        }


class NumberField:
    """Q(beta) for the rank-th largest real root beta > 1 of a monic squarefree
    integer polynomial."""

    def __init__(self, min_poly: IntPolynomial | Sequence[int], root_rank: int = 0):
        if not isinstance(min_poly, IntPolynomial):
            min_poly = IntPolynomial(tuple(min_poly))
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.root_rank = root_rank
        try:
            isolations = polys.isolate_real_roots(min_poly.coeffs)
        except NotSquarefree:
            raise NotSquarefree(f"{min_poly} shares a root with its derivative") from None
        self._real_root_intervals = isolations
        by_rank = list(reversed(isolations))  # largest first
        if root_rank < 0 or root_rank >= len(by_rank):
            raise NoRealRootAboveOne(
                f"{min_poly} has {len(by_rank)} real roots; rank {root_rank} does not exist"
            )
        lo, hi = by_rank[root_rank]
        # settle the root against 1 (irrational roots cannot equal 1, and
        # rational roots come back as exact points)
        while lo < 1 < hi:
            lo, hi = polys.bisect_step(min_poly.coeffs, lo, hi)
        if hi <= 1:
            raise NoRealRootAboveOne(
                f"selected root of {min_poly} lies in [{lo}, {hi}], not above 1"
            )
        self._chosen_index = isolations.index(by_rank[root_rank])
        # the one enclosure ladder, as integer endpoints (a, b, e) for
        # [a/e, b/e]: the first _ladder_len entries are rungs, each at least
        # 256 times narrower than the one before, and the last entry is
        # always the current enclosure (itself a rung when it was kept as
        # one).  Replaced, never mutated, so a reader needs no lock.
        self._rungs: list[tuple[int, int, int]] = [polys.integer_endpoints(lo, hi)]
        self._ladder_len = 1
        # advisory: per eps (numerator, denominator), the rung approx last
        # returned; any hint gives the same interval
        self._rung_hint: dict[tuple[int, int], int] = {}
        self._lock = threading.RLock()
        # upper-half-plane boxes of the conjugates, once materialized
        self._conjugates: list[Box] | None = None

        # beta^j for j = d .. 2d-2 has integer coordinates since the defining
        # polynomial is monic; these power rows make reduction after products
        # a small integer combination.
        d = self.degree
        tail = [-c for c in min_poly.coeffs[:-1]]
        rows = [tail]
        for _ in range(d - 2):
            prev = rows[-1]
            nxt = [0] + prev[:-1]
            top = prev[-1]
            if top:
                nxt = [nxt[i] + top * tail[i] for i in range(d)]
            rows.append(nxt)
        self._power_rows = [tuple(r) for r in rows]

        self.zero = FieldElement(self, (0,) * d)
        self.one = FieldElement(self, (1,) + (0,) * (d - 1))

    # -- presentation -----------------------------------------------------

    def __repr__(self) -> str:
        lo, hi = self.beta_interval()
        return f"NumberField({self.min_poly}, root in [{_bound_str(lo, -1)}, {_bound_str(hi, +1)}])"

    @property
    def beta(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.min_poly.coeffs[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def element(self, coeffs: Iterable) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        cs += [Fraction(0)] * (self.degree - len(cs))
        nums, den = polys.common_denominator(cs)
        return FieldElement(self, tuple(nums), den)

    def from_rational(self, value) -> "FieldElement":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def _reduce(self, nums: list[int], den: int) -> "FieldElement":
        """The element nums(beta) / den for an integer vector nums of length
        at most 2d - 1, reduced by the integer power rows."""
        d = self.degree
        out = nums[:d] + [0] * (d - len(nums))
        for j in range(d, len(nums)):
            cj = nums[j]
            if cj:
                row = self._power_rows[j - d]
                for t in range(d):
                    out[t] += cj * row[t]
        return _canonical(self, out, den)

    # -- enclosure management ---------------------------------------------

    def beta_interval(self) -> Interval:
        """Beta's current enclosure, the last rung, as Fractions."""
        a, b, e = self._rungs[-1]
        return Fraction(a, e), Fraction(b, e)

    def refine_beta(self) -> Interval:
        """One bisection of beta's enclosure, kept as a rung too when it is
        at least 256 times narrower than the last rung."""
        with self._lock:
            lo, hi = self.beta_interval()
            if lo == hi:
                return lo, hi
            lo, hi = polys.bisect_step(self.min_poly.coeffs, lo, hi)
            keep = self._ladder_len
            a, b, e = self._rungs[keep - 1]
            cur = polys.integer_endpoints(lo, hi)
            if (b - a) * cur[2] >= 256 * (cur[1] - cur[0]) * e:
                self._ladder_len = keep + 1
            self._rungs = self._rungs[:keep] + [cur]
            return lo, hi

    def evaluates_to_zero(self, elem: "FieldElement") -> bool:
        """Exact test for elem(beta) == 0, sound even when the defining
        polynomial is reducible (the vector test alone is not, then).
        elem(beta) = 0 iff g = gcd(elem, min_poly) vanishes at beta, and g
        divides the squarefree min_poly, whose isolating interval of beta
        the field keeps, so two signs decide (polys.vanishes_at_root)."""
        if elem.is_zero():
            return True
        lo, hi = self.beta_interval()
        return polys.vanishes_at_root(polys.gcd_int(elem.nums, self.min_poly.coeffs), lo, hi)

    # -- conjugates and the Pisot test --------------------------------------

    def _materialize_conjugates(self) -> list[Box]:
        """The d-1 conjugates as upper-half-plane boxes: each real conjugate
        as the zero-height box of its isolating interval, then the pairwise
        disjoint certified boxes of the complex pairs."""
        with self._lock:
            if self._conjugates is not None:
                return self._conjugates
            zero = (Fraction(0), Fraction(0))
            boxes: list[Box] = [(iv, zero) for i, iv in enumerate(self._real_root_intervals)
                                if i != self._chosen_index]
            n_real = len(self._real_root_intervals)
            assert (self.degree - n_real) % 2 == 0
            boxes += polys.propose_and_certify_complex_roots(self.min_poly.coeffs,
                                                             (self.degree - n_real) // 2)
            # the d-1 conjugates: a real one is its own box, a pair its upper box
            assert sum(2 if box[1][1] else 1 for box in boxes) == self.degree - 1
            self._conjugates = boxes
            return boxes

    def _refine_conjugate(self, i: int) -> Box:
        """One refinement of conjugate box i: a bisection step for a real
        conjugate (zero height), an interval Newton step otherwise."""
        p = self.min_poly.coeffs
        box = self._conjugates[i]
        if box[1][1] == 0:
            box = polys.bisect_step(p, *box[0]), box[1]
        else:
            box = polys.newton_box(p, polys.derivative(p), box)[0]
        self._conjugates[i] = box
        return box

    def is_pisot(self, budget: int = 96) -> PisotCertificate:
        """Refine each conjugate box until its modulus is certified below 1,
        certified at or above 1, or still straddles 1 at the precision
        budget.  The status is "not_pisot" when some modulus is at or above
        1, else "unknown" when some modulus straddles 1, else "pisot";
        max_conjugate_modulus_upper bounds the modulus of every conjugate.

        budget is in bits: an enclosure of squared modulus narrower than
        2**-budget that still straddles 1 stops refining (a conjugate exactly
        on the unit circle can never be resolved).  A budget above
        polys.MAX_HALVINGS raises ValueError before any refinement.
        """
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        if budget > polys.MAX_HALVINGS:
            raise ValueError(f"budget must be at most {polys.MAX_HALVINGS}")
        with self._lock:
            beta_lo, beta_hi = self.beta_interval()
            while beta_lo <= 1 or beta_hi - beta_lo > Fraction(1, 1 << 20):
                beta_lo, beta_hi = self.refine_beta()

            cutoff = Fraction(1, 1 << budget)
            worst = Fraction(0)
            status = "pisot"
            if self.degree > 1:
                for i, box in enumerate(self._materialize_conjugates()):
                    prev_width = None
                    while True:
                        m2lo, m2hi = polys.box_mod2_bounds(box)
                        if m2hi < 1:
                            worst = max(worst, m2hi)
                            break
                        if m2lo >= 1:
                            worst = max(worst, m2hi)
                            status = "not_pisot"
                            break
                        width = m2hi - m2lo
                        if width < cutoff or (prev_width is not None and width >= prev_width):
                            worst = max(worst, m2hi)
                            status = "unknown" if status == "pisot" else status
                            break
                        prev_width = width
                        box = self._refine_conjugate(i)
            num, den = worst.numerator, worst.denominator
            max_mod_upper = Fraction(polys.sqrt_bounds_int(num, den)[1] if num else 0, 1 << 96)
            return PisotCertificate(
                status=status,
                beta_lower=beta_lo,
                beta_upper=beta_hi,
                max_conjugate_modulus_upper=max_mod_upper,
                budget=budget,
            )


def _canonical(field: NumberField, nums, den: int) -> "FieldElement":
    """The element nums / den (den > 0) in its reduced form."""
    g = gcd(den, *nums)
    if g != 1:
        return FieldElement(field, tuple(n // g for n in nums), den // g)
    return FieldElement(field, tuple(nums), den)


class FieldElement:
    """Element of Q(beta): integer numerators nums over one denominator den.

    (nums, den) is reduced, den > 0 and gcd(den, *nums) == 1, so it is the
    unique representation and equality compares it directly.  `coeffs` is a
    read-only view as Fractions.
    """

    __slots__ = ("field", "nums", "den", "_hash")

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int = 1):
        self.field = field
        self.nums = nums
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- plumbing -----------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _aligned(self, o: "FieldElement") -> tuple[Sequence[int], Sequence[int], int]:
        """The numerators of self and o over their common denominator."""
        da, db = self.den, o.den
        if da == db:
            return self.nums, o.nums, da
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return [n * fa for n in self.nums], [n * fb for n in o.nums], da * fa

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.field), self.nums, self.den))
            self._hash = h
        return h

    def __eq__(self, other):
        if other is self:
            return True
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    # -- ring and field operations -------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, den = self._aligned(o)
        return _canonical(self.field, [x + y for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, den = self._aligned(o)
        return _canonical(self.field, [x - y for x, y in zip(a, b)], den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-n for n in self.nums), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        field = self.field
        den = self.den * o.den
        d = field.degree
        if d == 1:
            return _canonical(field, (a[0] * b[0],), den)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return field._reduce(conv, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by integer elimination.  Column j of the
        integer matrix N holds the numerators of self * beta^j, all over den,
        so the inverse y solves N y = den e_0.  Fraction-free Gauss-Jordan
        elimination with row swaps (Bareiss 1968) divides every update
        exactly by the previous pivot and ends with det(PN) on the diagonal
        and det(PN) N^-1 e_0 in the last column.  A column without a pivot
        makes N singular: self is a zero divisor of a reducible modulus.

        A rational n0/den (every coordinate past the constant one is zero)
        has the diagonal N = n0 I, on which the elimination would build
        entries of about n0^d, so its inverse den/n0 is read off directly;
        gcd(den, n0) = 1 already."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        field = self.field
        d = field.degree
        n0 = self.nums[0]
        if not any(self.nums[1:]):
            sign = 1 if n0 > 0 else -1
            return FieldElement(field, (sign * self.den,) + (0,) * (d - 1), sign * n0)
        cols = [field._reduce([0] * j + list(self.nums), 1).nums for j in range(d)]
        rows = [[*r, int(i == 0)] for i, r in enumerate(zip(*cols))]
        prev = 1
        for k in range(d):
            piv = next((i for i in range(k, d) if rows[i][k]), None)
            if piv is None:
                raise DivisionByZero(
                    "zero divisor: element shares a factor with the (reducible) defining polynomial"
                )
            rows[k], rows[piv] = rows[piv], rows[k]
            pk, pivot = rows[k], rows[k][k]
            for r in rows:
                if r is not pk:
                    c = r[k]
                    r[k + 1:] = [(pivot * a - c * b) // prev for a, b in zip(r[k + 1:], pk[k + 1:])]
            prev = pivot
        sign = 1 if prev > 0 else -1
        return _canonical(field, [sign * self.den * r[d] for r in rows], sign * prev)

    # -- ordering and approximation -------------------------------------------

    def compare(self, other) -> int:
        """-1, 0, or +1; exact.  Equality is identity of the reduced form.
        The numerator vector of the difference over the common denominator
        has the sign of the difference, so integer interval Horner on it at
        the current enclosure of beta reads the sign, and beta is refined
        one bisection at a time until it does.  Interval Horner is
        inclusion-isotone and the rungs are nested, so a sign that any
        coarser rung decides is decided at the current enclosure too."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other).__name__}")
        a, b, _ = self._aligned(o)
        p = [x - y for x, y in zip(a, b)]
        if not any(p):
            return 0
        while not p[-1]:
            p.pop()
        field = self.field
        kernel = polys.horner_interval_int
        alo, ahi, _ = kernel(p, *field._rungs[-1])
        rounds = 0
        while alo <= 0 <= ahi:
            if rounds == _ZERO_TEST_AFTER and field.evaluates_to_zero(self - o):
                raise RefinementBudgetExceeded(
                    "distinct representations coincide at the chosen root; "
                    "the defining polynomial is reducible"
                )
            if rounds == _CMP_BUDGET:
                raise RefinementBudgetExceeded("sign of a nonzero difference did not resolve")
            field.refine_beta()
            alo, ahi, _ = kernel(p, *field._rungs[-1])
            rounds += 1
        return 1 if alo > 0 else -1

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def approx(self, eps=Fraction(1, 10 ** 12)) -> Interval:
        """Rational interval of width <= eps containing the real value: the
        enclosure of approx_int as a pair of Fractions."""
        alo, ahi, den = self.approx_int(eps)
        return Fraction(alo, den), Fraction(ahi, den)

    def approx_int(self, eps=Fraction(1, 10 ** 12)) -> tuple[int, int, int]:
        """Integers (alo, ahi, den), den > 0, with the real value in
        [alo/den, ahi/den] and (ahi - alo)/den <= eps.

        Interval Horner runs on the integer numerators; their enclosure is
        den times the value's, so it is accepted at width <= eps * den.  The
        answer is the first rung of the ladder, coarse to fine, that gives
        that width (the rungs that do form a suffix, see the module
        docstring); the search starts at the rung this eps last needed.
        When no rung fits, the walk goes on refining beta until the current
        enclosure, the last rung, does."""
        if not isinstance(eps, Fraction):
            eps = Fraction(eps)
        en, ed = eps.numerator, eps.denominator
        if en <= 0:
            raise ValueError("eps must be positive")
        p = self.nums
        if not any(p):
            return 0, 0, 1
        den = self.den
        limit = en * den  # the width test (ahi - alo) / scale <= eps * den, times ed * scale
        field = self.field
        kernel = polys.horner_interval_int
        rungs = field._rungs
        last = len(rungs) - 1
        key = (en, ed)
        i = min(field._rung_hint.get(key, last), last)
        alo, ahi, scale = kernel(p, *rungs[i])
        if alo == ahi:
            # beta >= 1 on every rung, so a point enclosure means every
            # nonconstant coefficient is zero and every rung gives this point
            return alo, ahi, den * scale
        if (ahi - alo) * ed <= limit * scale:
            while i:
                clo, chi, cscale = kernel(p, *rungs[i - 1])
                if (chi - clo) * ed > limit * cscale:
                    break
                i -= 1
                alo, ahi, scale = clo, chi, cscale
        else:
            # up the ladder, then on into refinement: the last rung is always
            # the current enclosure
            refined = 0
            while True:
                if i < last:
                    i += 1
                else:
                    if refined == 100_000:
                        raise RefinementBudgetExceeded(
                            "approximation did not reach the requested width")
                    field.refine_beta()
                    refined += 1
                    rungs = field._rungs
                    i = last = len(rungs) - 1
                alo, ahi, scale = kernel(p, *rungs[i])
                if (ahi - alo) * ed <= limit * scale:
                    break
        field._rung_hint[key] = i
        return alo, ahi, den * scale

    def __float__(self) -> float:
        lo, hi = self.approx(Fraction(1, 10 ** 17))
        return float((lo + hi) / 2)

    # -- presentation -----------------------------------------------------------

    def __repr__(self):
        return f"<{format_element(self)}>"

    def to_json(self) -> dict:
        """{"coeffs": [...]}, each coefficient as str(Fraction) gives it
        ("-4/7", "0", "3"), formed from the integers."""
        den = self.den
        out = []
        for n in self.nums:
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return {"coeffs": out}


def format_element(elem: FieldElement) -> str:
    """Human-readable polynomial-in-b form, e.g. '1/2 - b + b^2'."""
    return _format_terms(enumerate(elem.coeffs), "b")


# a number of at least _LONG prints in mantissa-exponent form: its integer
# part has more digits than the least int-to-str limit Python allows (640)
_LONG = 10 ** 600


def _sci_str(x: int | Fraction, direction: int) -> str:
    """x >= 1 as d.dddddde+E, six places rounded down (direction <= 0) or up
    (direction > 0), by integer arithmetic on x's numerator and denominator
    alone."""
    n, d = x.numerator, x.denominator
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000  # about log10(x)
    while n < d * 10 ** e:
        e -= 1
    while n >= d * 10 ** (e + 1):
        e += 1
    q, r = divmod(n * 10 ** 6, d * 10 ** e)  # 10^6 <= q < 10^7
    if direction > 0 and r:
        q += 1
        if q == 10 ** 7:
            q, e = 10 ** 6, e + 1
    digits = str(q)
    return f"{digits[0]}.{digits[1:]}e+{e}"


def _bound_str(x: Fraction, direction: int) -> str:
    """x >= 1 rounded down (direction < 0) or up (> 0): to six decimal
    places, or in mantissa-exponent form from _LONG on."""
    return polys.decimal_str(x, 6, direction) if x < _LONG else _sci_str(x, direction)


def _format_terms(terms: Iterable[tuple[int, int | Fraction]], var: str) -> str:
    """The terms (exponent, coefficient), in the order given, as signed
    monomials in var, zero terms left out, e.g. 'z^2 - z - 1'; '0' when
    every coefficient is zero.  A coefficient of magnitude at least _LONG
    prints in mantissa-exponent form, rounded towards zero."""
    parts = []
    for i, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        text = str(mag) if mag < _LONG else _sci_str(mag, -1)
        if i == 0:
            body = text
        else:
            mono = var if i == 1 else f"{var}^{i}"
            body = mono if mag == 1 else f"{text}*{mono}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def sort_elements(elems: Iterable[FieldElement]) -> list[FieldElement]:
    """Ascending exact sort by comparison."""
    return sorted(elems, key=cmp_to_key(lambda a, b: a.compare(b)))
