"""Rational references for the integer kernels in betaorbit.polys.

The package reads every sign by integer Horner (polys.sign_at), takes the
squarefree part of a monic integer polynomial in the integers
(polys.squarefree_part_int) and builds the Sturm chain as a primitive
remainder sequence (polys.sturm_chain_int).  The textbook rational forms
below are what the tests compare those kernels against; the package itself
never calls them.
"""

from fractions import Fraction

from betaorbit import polys


def evaluate(p, x: Fraction) -> Fraction:
    """p(x) by Horner's rule over the rationals."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_part(p) -> tuple[Fraction, ...]:
    """p / gcd(p, p'), monic."""
    p = polys.normalize(p)
    g = polys.gcd_poly(p, polys.derivative(p))
    if polys.degree(g) == 0:
        return polys.monic(p)
    return polys.monic(polys.divmod_poly(p, g)[0])


def sturm_chain(p) -> list[tuple[Fraction, ...]]:
    """Sturm chain of a squarefree polynomial over the rationals, each
    remainder negated and divided by the absolute value of its leading
    coefficient (a positive scaling keeps the sign-variation counts)."""
    p = polys.normalize(p)
    chain = [p, polys.derivative(p)]
    while chain[-1]:
        rem = polys.divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        scale = abs(rem[-1])
        chain.append(tuple(-c / scale for c in rem))
    return [c for c in chain if c]
