"""Scalar arithmetic in prime fields F_q.

Field elements are plain Python integers in canonical form 0 <= a < q; the
modulus travels as a separate argument instead of being wrapped per element.
Nothing else in the package imports these helpers: the modulus check lives in
numtheory, and the extractor and the sweep do their arithmetic inline or in
numpy.  They remain only until their tests are retired.

Operations assume canonical inputs and do not validate them; power(0, 0, q)
is defined as 1.
"""

from __future__ import annotations


def add(a: int, b: int, q: int) -> int:
    return (a + b) % q


def sub(a: int, b: int, q: int) -> int:
    return (a - b) % q


def mul(a: int, b: int, q: int) -> int:
    return (a * b) % q


def neg(a: int, q: int) -> int:
    return (-a) % q


def inv(a: int, q: int) -> int:
    """Multiplicative inverse of a nonzero residue; q must be prime."""
    if a % q == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {q}")
    return pow(a, -1, q)


def power(a: int, e: int, q: int) -> int:
    """a**e mod q by square-and-multiply; e >= 0, and power(0, 0, q) = 1."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    return pow(a, e, q)
