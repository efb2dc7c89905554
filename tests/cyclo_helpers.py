"""Test-side helpers on exact cyclotomic values."""

from fractions import Fraction

from adelic.cyclotomic import Cyclo


def abs2(z: Cyclo) -> Cyclo:
    """|z|^2 as an exact Cyclo (z times its conjugate)."""
    return z * z.conjugate()


def as_fraction(z: Cyclo) -> Fraction | None:
    """The exact rational value of z, or None if it is irrational: a
    rational value has conductor 1 in the stored form."""
    n, den, numerators = z.coordinates()
    if n != 1:
        return None
    return Fraction(numerators.get(0, 0), den)
