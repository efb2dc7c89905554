"""Small integer number theory: primality, factorization, prime sieves.

Primality is Miller-Rabin on the thirteen prime bases 2..41, which is
deterministic below 3.317e24; above that bound a True from ``is_prime``
means a probable prime.  Factorization is trial division by the smallest
primes and then Pollard's rho.  Rho
needs about sqrt(q) steps to split off the prime q, so a product of two
large primes (a 31-digit semiprime, say) would take minutes: ``factorize``
counts its rho steps against ``RHO_MAX_STEPS`` and raises a ValueError
naming the number past that bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Miller-Rabin witnesses, deterministic for n < 3.317e24 (the bases 2..37
# alone only below 3.18e23); a larger n that passes is a probable prime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """Validate a prime argument, returning it for chaining."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"expected a prime number, got {p!r}")
    return p


# Pollard-rho steps (three modular squarings and a gcd each) that one
# factorization may take.  On a 2-core Xeon with Python 3.11, 2**18 steps
# take 0.7 s on a 31-digit number and 0.8 s on a 41-digit one, and one
# command factors the same rational at most about four times.  Every input
# in the tests and the README needs at most 122 steps, 3,000 products of
# two primes near 10**6 at most 2,600, and 1000000007 * 1000000009 27,573.
RHO_MAX_STEPS = 2**18


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """(d, steps): a nontrivial factor d of the odd composite n, found in
    ``steps`` rho steps, or d = 0 once ``budget`` steps found none."""
    x, c, steps = 2, 1, 0
    while True:
        y, d = x, 1
        while d == 1:
            if steps == budget:
                return 0, steps
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, steps
        x, c = x + 1, c + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.

    A ValueError past ``RHO_MAX_STEPS`` rho steps in all."""
    if n == 0:
        raise ValueError("cannot factor 0")
    number = n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    steps = 0
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, used = _pollard_rho(m, RHO_MAX_STEPS - steps)
        steps += used
        if not d:
            raise ValueError(
                f"cannot factor {number} within {RHO_MAX_STEPS} Pollard-rho steps")
        stack.append(d)
        stack.append(m // d)
    return out


def rational_primes(r: Fraction) -> list[int]:
    """Sorted primes dividing numerator or denominator of a nonzero rational."""
    if r == 0:
        raise ValueError("0 has no finite prime support")
    ps = set(factorize(r.numerator)) | set(factorize(r.denominator))
    return sorted(ps)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1
