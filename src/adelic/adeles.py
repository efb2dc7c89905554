"""Adeles and ideles as finitely-supported restricted-product points.

An ``Adele`` stores the real component, an explicit finite map of prime
components, and a rational *tail value* giving the component at every
unlisted prime.  The restricted-product constraint requires the tail value
to be p-integral at every unlisted prime, so all primes dividing its
denominator must be listed.  A principal adele is simply tail = r with the
denominator primes listed; this keeps evaluation of test functions well
defined at every prime while equality still has a canonical form (listed
components equal to the tail are dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .padic import padic_norm
from .primes import factorize, rational_primes, require_prime

RealLike = float | Fraction


def _canonical_components(
    components: dict[int, Fraction], tail: Fraction, unit_tail: bool
) -> dict[int, Fraction]:
    out = {}
    for p, c in sorted(components.items()):
        require_prime(p)
        c = Fraction(c)
        keep = c != tail
        if not keep:
            # droppable only where the tail satisfies the tail guarantee
            nt = padic_norm(tail, p)
            keep = (nt != 1) if unit_tail else (nt > 1)
        if keep:
            out[p] = c
    return out


def _check_tail(tail: Fraction, listed: dict[int, Fraction], unit_tail: bool):
    if tail == 0:
        if unit_tail:
            raise ValueError("idele tail value must be nonzero")
        return
    for p in factorize(tail.denominator):
        if p not in listed:
            raise ValueError(
                f"tail value {tail} is not integral at unlisted prime {p}"
            )
    if unit_tail:
        for p in factorize(tail.numerator):
            if p not in listed:
                raise ValueError(
                    f"tail value {tail} is not a unit at unlisted prime {p}"
                )


@dataclass(frozen=True)
class Adele:
    """A point of the adele ring with finite explicit support."""

    real: RealLike
    components: dict[int, Fraction] = field(default_factory=dict)
    tail: Fraction = Fraction(0)

    def __post_init__(self):
        tail = Fraction(self.tail)
        comps = {p: Fraction(c) for p, c in self.components.items()}
        _check_tail(tail, comps, unit_tail=False)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(
            self, "components", _canonical_components(comps, tail, unit_tail=False)
        )

    def component(self, p: int) -> Fraction:
        """The exact p-component (explicit entry or the tail value)."""
        return self.components.get(p, self.tail)

    def norm_at(self, p: int) -> Fraction:
        return padic_norm(self.component(p), p)

    @property
    def listed_primes(self) -> list[int]:
        return sorted(self.components)

    def __eq__(self, other):
        if not isinstance(other, Adele):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.real == other.real
            and self.tail == other.tail
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.real, self.tail, tuple(sorted(self.components.items()))))


@dataclass(frozen=True, eq=False)
class Idele(Adele):
    """An invertible adele: nonzero everywhere, unit norm on the tail."""

    def __post_init__(self):
        tail = Fraction(self.tail)
        comps = {p: Fraction(c) for p, c in self.components.items()}
        if self.real == 0:
            raise ValueError("idele real component must be nonzero")
        for p, c in comps.items():
            if c == 0:
                raise ValueError(f"idele component at p={p} must be nonzero")
        _check_tail(tail, comps, unit_tail=True)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(
            self, "components", _canonical_components(comps, tail, unit_tail=True)
        )


def principal_adele(r: Fraction | int) -> Adele:
    """The diagonal embedding of a rational into the adeles."""
    r = Fraction(r)
    listed = {} if r == 0 else {p: r for p in factorize(r.denominator)}
    return Adele(real=r, components=listed, tail=r)


def principal_idele(r: Fraction | int) -> Idele:
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 is not an idele")
    listed = {p: r for p in rational_primes(r)}
    return Idele(real=r, components=listed, tail=r)


def zero_adele() -> Adele:
    return principal_adele(0)


def norm_product(r: Fraction | int, omit: int | None = None) -> Fraction:
    """|r|_inf * prod_p |r|_p over primes dividing numerator*denominator,
    without the place p = omit when one is given.

    Exact rational arithmetic; equals 1 for every nonzero rational, so with
    a prime omitted it is 1 / |r|_omit.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("norm product needs r != 0")
    prod = abs(r)
    for p in rational_primes(r):
        if p != omit:
            prod *= padic_norm(r, p)
    return prod
