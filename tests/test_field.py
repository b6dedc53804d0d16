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


class TestVectorOps:
    def test_power_vector_componentwise(self):
        q = 13
        xs = [0, 1, 2, 5, 12]
        exps = [35, 7, 5, 3, 2]
        out = field.power_vector(xs, exps, q)
        assert tuple(out) == tuple(pow(x, e, q) for x, e in zip(xs, exps))

    def test_power_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            field.power_vector([1, 2], [3], 13)

    @given(st.sampled_from([3, 13, 31]), st.data())
    def test_dot_matches_int_arithmetic(self, q, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        u = data.draw(st.lists(elements(q), min_size=n, max_size=n))
        v = data.draw(st.lists(elements(q), min_size=n, max_size=n))
        assert field.dot(u, v, q) == sum(a * b for a, b in zip(u, v)) % q

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            field.dot([1, 2], [1], 13)

    @given(st.sampled_from([3, 13, 31]), st.data())
    def test_vector_mod_canonicalizes(self, q, data):
        v = data.draw(
            st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=6)
        )
        out = field.vector_mod(v, q)
        assert all(0 <= c < q for c in out)
        assert tuple(out) == tuple(c % q for c in v)
