"""Exception types shared across the package, grouped by the layer that
raises them."""


class BetaOrbitError(Exception):
    """Base class for all package-specific errors."""


# --- number field construction and arithmetic ---

class DegreeZero(BetaOrbitError):
    """The defining polynomial has degree zero."""


class NotSquarefree(BetaOrbitError):
    """The defining polynomial shares a factor with its derivative."""


class NoRealRootAboveOne(BetaOrbitError):
    """No real root greater than one exists at the requested rank."""


class DivisionByZero(BetaOrbitError, ZeroDivisionError):
    """Inversion of zero, or of a zero divisor in a reducible quotient ring."""


class RefinementBudgetExceeded(BetaOrbitError):
    """A refinement loop hit its hard cap.

    For enclosures of beta this is unreachable for honest nonzero
    differences; it guards misuse with reducible defining polynomials where
    two representations coincide at the root.  It also ends the proposal,
    certification and separation of complex conjugate roots.
    """


# --- dynamics and orbits ---

class OutsideInterval(BetaOrbitError):
    """The point lies outside the expansion interval [0, m/(beta-1)]."""


class CapHit(BetaOrbitError):
    """An orbit search or a brute-force count passed its "state" or "depth"
    cap, or an orbit search its "bits" cap, before the orbit closed."""

    def __init__(self, states_found: int, cap_hit: str):
        super().__init__(f"{states_found} states found, {cap_hit} cap hit")
        self.states_found, self.cap_hit = states_found, cap_hit


# --- spectral ---

class ZeroMatrix(BetaOrbitError):
    """The transition matrix has no nonzero entry."""


class DominanceNotEstablished(BetaOrbitError):
    """Dimension requested without a verified dominant eigenvalue."""


# --- spacing ---

class TooLarge(BetaOrbitError):
    """Spectrum enumeration would exceed the memory guard."""


class TooFewPoints(BetaOrbitError):
    """Gap statistics need at least two spectrum points."""
