"""Unit tests for modular arithmetic helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affext import field

PRIMES = [2, 3, 5, 13, 31, 101, 2**31 - 1, 2**61 - 1]


def elements(q):
    return st.integers(min_value=0, max_value=q - 1)


class TestScalarOps:
    @given(st.sampled_from(PRIMES), st.data())
    def test_add_sub_mul_match_int_arithmetic(self, q, data):
        a = data.draw(elements(q))
        b = data.draw(elements(q))
        assert field.add(a, b, q) == (a + b) % q
        assert field.sub(a, b, q) == (a - b) % q
        assert field.mul(a, b, q) == (a * b) % q
        assert field.neg(a, q) == (-a) % q

    @given(st.sampled_from(PRIMES), st.data())
    def test_inverse_is_two_sided(self, q, data):
        a = data.draw(st.integers(min_value=1, max_value=q - 1))
        inv = field.inv(a, q)
        assert 0 < inv < q
        assert (a * inv) % q == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field.inv(0, 13)

    def test_inverse_matches_fermat(self):
        q = 101
        for a in range(1, q):
            assert field.inv(a, q) == pow(a, q - 2, q)

    @given(st.sampled_from(PRIMES), st.data())
    def test_power_matches_builtin_pow(self, q, data):
        a = data.draw(elements(q))
        e = data.draw(st.integers(min_value=0, max_value=10**6))
        assert field.power(a, e, q) == pow(a, e, q)

    def test_zero_to_the_zero_is_one(self):
        assert field.power(0, 0, 13) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            field.power(2, -1, 13)
