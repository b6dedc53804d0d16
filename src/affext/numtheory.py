"""Primality, factorisation, and the prime-structure predicates behind
exponent generation.

Everything here is deterministic.  Primality testing uses Miller-Rabin with
the first twelve prime bases, which is exact for all inputs below
3.3 * 10**24, far beyond the 2**61 modulus cap.  Factorisation runs trial
division first and falls back to Brent's variant of Pollard rho with a fixed
parameter schedule, so repeated calls always produce the same factor tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Moduli stay below 2**61 so products fit in 128-bit intermediates and the
# vectorised kernels in batch.py stay exact.
MAX_MODULUS = 1 << 61

# Deterministic Miller-Rabin bases, exact below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial-divide completely below this bound; larger cofactors go to rho.
_TRIAL_LIMIT = 10**6

# Typicality of a prime modulus q: omega(q-1) <= max(floor, c * ln ln q).
# The floor keeps small moduli from being rejected for having the handful of
# prime factors that any small number has.
TYPICAL_C = 2.0
TYPICAL_FLOOR = 3


def check_modulus(q: int) -> None:
    """Reject moduli outside the supported range [2, 2**61)."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError(f"modulus must be an int, got {type(q).__name__}")
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if q >= MAX_MODULUS:
        raise ValueError(f"modulus must be below 2**61, got {q}")


@functools.cache
def _small_primes() -> tuple[int, ...]:
    # primes up to 1000, enough to trial-divide anything below _TRIAL_LIMIT
    return tuple(primes_up_to(1000).tolist())


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n, deterministically."""
    if n % 2 == 0:
        return 2
    # fixed schedule of (x0, c) pairs; cycles until a factor splits off
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor schedule exhausted for {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """n = prod p**e over factors, stored as ((p, e), ...) with p increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"can only factor positive integers, got {self.n}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("prime factors must be strictly increasing")
            if e < 1:
                raise ValueError("multiplicities must be positive")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)


def factorize(n: int) -> Factorization:
    """Full prime factorisation; factorize(1) has an empty factor list."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    counts: dict[int, int] = {}
    rest = n
    for p in _small_primes():
        if p * p > rest:
            break
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    # rest is now 1, a prime, or has no factor below 1000
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT or is_prime(m):
            # below the trial limit the remaining cofactor must be prime,
            # since all divisors up to sqrt(10**6) were removed
            counts[m] = counts.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(n, tuple(sorted(counts.items())))


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.n in strictly decreasing order."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs, reverse=True)


def first_primes_coprime(m: int, count: int) -> list[int]:
    """The smallest `count` primes p with gcd(p, m) = 1, in increasing order."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    out: list[int] = []
    p = 2
    while len(out) < count:
        if is_prime(p) and math.gcd(p, m) == 1:
            out.append(p)
        p += 1
    return out


@dataclass(frozen=True)
class PrimeModulus:
    """A prime q below 2**61 together with the factorisation of q - 1."""

    q: int
    factors_q_minus_1: Factorization

    def __post_init__(self) -> None:
        check_modulus(self.q)
        if self.factors_q_minus_1.n != self.q - 1:
            raise ValueError("factorisation does not describe q - 1")

    @property
    def omega(self) -> int:
        return self.factors_q_minus_1.omega

    @property
    def typical(self) -> bool:
        """Whether omega(q-1) <= typicality_threshold(q).

        Almost all primes are typical; atypical moduli still work but force
        larger exponents, so planning warns about them.
        """
        return self.omega <= typicality_threshold(self.q)


def typicality_threshold(q: int) -> float:
    """Largest omega(q-1) still considered typical for modulus q."""
    return max(float(TYPICAL_FLOOR), TYPICAL_C * math.log(math.log(q)))


def prime_modulus(q: int) -> PrimeModulus:
    """Validate q and package it with the factorisation of q - 1."""
    check_modulus(q)
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return PrimeModulus(q, factorize(q - 1))


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (simple sieve)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def prachar_average(limit: int) -> tuple[int, float, int]:
    """Sum of omega(q - 1) over primes q <= limit, its normalised value, and
    the number of those q that are atypical (see typicality_threshold).

    The normalisation divides by limit * ln ln limit / ln limit, the order of
    growth of the sum, so the second component should sit within a small
    constant band around 1 for large limits.
    """
    if limit < 10:
        raise ValueError(f"limit must be at least 10, got {limit}")
    primes = primes_up_to(limit)
    omega = np.zeros(limit, dtype=np.uint8)
    for p in primes:
        omega[int(p)::int(p)] += 1
    # omega[i] = number of distinct prime factors of i, for 0 <= i < limit;
    # q - 1 <= limit - 1 stays in range for every prime q <= limit
    counts = omega[primes - 1]
    total = int(counts.sum())
    norm = total / (limit * math.log(math.log(limit)) / math.log(limit))
    atypical = sum(
        1 for q, w in zip(primes.tolist(), counts.tolist()) if w > typicality_threshold(q)
    )
    return total, norm, atypical


__all__ = [
    "Factorization",
    "PrimeModulus",
    "check_modulus",
    "divisors",
    "factorize",
    "first_primes_coprime",
    "is_prime",
    "MAX_MODULUS",
    "prachar_average",
    "prime_modulus",
    "primes_up_to",
    "typicality_threshold",
]
