"""Unit tests for primality, factorisation, and prime-structure predicates.

sympy serves as the independent oracle for primality, factor trees, divisor
lists, and the prime-counting sums.
"""

import math
import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from affext import numtheory
from affext.numtheory import (
    Factorization,
    PrimeModulus,
    check_modulus,
    divisors,
    factorize,
    first_primes_coprime,
    is_prime,
    prachar_average,
    prime_modulus,
    primes_up_to,
    typicality_threshold,
)


class TestModulusValidation:
    def test_accepts_odd_prime_sized_moduli(self):
        for q in [2, 3, 5, 13, 31, 101, 2**31 - 1, 2**61 - 1]:
            check_modulus(q)

    def test_rejects_small_and_huge(self):
        with pytest.raises(ValueError):
            check_modulus(1)
        with pytest.raises(ValueError):
            check_modulus(0)
        with pytest.raises(ValueError):
            check_modulus((1 << 61) + 1)


class TestIsPrime:
    def test_small_range_matches_sympy(self):
        for n in range(0, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_strong_pseudoprimes_rejected(self):
        # composite but a strong pseudoprime to bases 2, 3, 5, 7
        assert not is_prime(3215031751)
        assert 3215031751 == 151 * 751 * 28351

    def test_large_known_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 - 3)

    @given(st.integers(min_value=2, max_value=10**12))
    def test_matches_sympy_on_random_integers(self, n):
        assert is_prime(n) == sympy.isprime(n)


class TestFactorize:
    def test_exhaustive_small(self):
        for n in range(1, 3000):
            f = factorize(n)
            assert f.n == n
            assert dict(f.factors) == sympy.factorint(n)

    @pytest.mark.slow
    def test_exhaustive_to_one_hundred_thousand(self):
        for n in range(1, 100_001):
            assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_random_large_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(2, 10**14)
            assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_semiprime_of_large_primes(self):
        p, r = 1_000_003, 1_000_033
        f = factorize(p * r)
        assert f.factors == ((p, 1), (r, 1))

    def test_prime_power_of_large_prime(self):
        p = 999_983
        f = factorize(p**3)
        assert f.factors == ((p, 3),)

    def test_one_has_empty_factor_list(self):
        f = factorize(1)
        assert f.factors == ()
        assert f.omega == 0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_determinism(self):
        n = 2**31 - 3
        assert factorize(n) == factorize(n)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_factors_reconstruct_n(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n


class TestFactorizationValidation:
    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            Factorization(10, ((2, 1), (3, 1)))

    def test_rejects_unsorted_factors(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Factorization(2, ((2, 1), (3, 0)))

    def test_omega_counts_distinct_primes(self):
        assert factorize(12).omega == 2
        assert factorize(30).omega == 3
        assert factorize(2**10).omega == 1


class TestDivisors:
    def test_matches_sympy_descending(self):
        for n in (1, 2, 12, 30, 210, 2310, 96577):
            assert divisors(factorize(n)) == sorted(sympy.divisors(n), reverse=True)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_every_entry_divides(self, n):
        ds = divisors(factorize(n))
        assert ds[0] == n and ds[-1] == 1
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(ds, reverse=True)


class TestFirstPrimesCoprime:
    def test_frozen_examples(self):
        assert first_primes_coprime(12, 3) == [5, 7, 11]
        assert first_primes_coprime(30, 3) == [7, 11, 13]
        assert first_primes_coprime(1, 4) == [2, 3, 5, 7]
        assert first_primes_coprime(30, 0) == []

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=8),
    )
    def test_output_is_prime_coprime_increasing(self, m, count):
        ps = first_primes_coprime(m, count)
        assert len(ps) == count
        assert all(sympy.isprime(p) for p in ps)
        assert all(math.gcd(p, m) == 1 for p in ps)
        assert ps == sorted(ps)
        # minimality: no smaller coprime prime was skipped
        if ps:
            skipped = [
                r for r in sympy.primerange(2, ps[-1]) if math.gcd(r, m) == 1
            ]
            assert skipped == ps[:-1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            first_primes_coprime(0, 1)
        with pytest.raises(ValueError):
            first_primes_coprime(5, -1)


class TestPrimeModulus:
    def test_packaging(self):
        mod = prime_modulus(31)
        assert mod.q == 31
        assert mod.factors_q_minus_1.factors == ((2, 1), (3, 1), (5, 1))
        assert mod.omega == 3

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            prime_modulus(32)

    def test_threshold_formula(self):
        q = 10**9 + 7
        assert typicality_threshold(q) == max(3.0, 2.0 * math.log(math.log(q)))
        assert typicality_threshold(31) == 3.0  # the floor

    def test_typicality_flags(self):
        # omega(30) = 3 <= 3, typical; omega(2310) = 5 > threshold(2311) ~ 4.08
        assert prime_modulus(31).typical
        atypical = prime_modulus(2311)
        assert atypical.omega == 5
        assert not atypical.typical
        # typicality is derived from q and the factorisation, never stored
        assert PrimeModulus(2311, factorize(2310)).typical is False
        with pytest.raises(TypeError):
            PrimeModulus(2311, factorize(2310), typical=True)


class TestPrimesUpTo:
    def test_matches_sympy(self):
        got = primes_up_to(10_000).tolist()
        assert got == list(sympy.primerange(2, 10_001))

    def test_edge_cases(self):
        assert primes_up_to(1).size == 0
        assert primes_up_to(2).tolist() == [2]


class TestPracharAverage:
    def test_tiny_limit_by_hand(self):
        # primes <= 10 are 2, 3, 5, 7; q - 1 in (1, 2, 4, 6) has
        # omega values 0, 1, 1, 2 summing to 4
        total, norm, atypical = prachar_average(10)
        assert total == 4
        expected_norm = 4 / (10 * math.log(math.log(10)) / math.log(10))
        assert norm == pytest.approx(expected_norm, rel=1e-12)
        # every omega is below the floor threshold of 3
        assert atypical == 0

    def test_total_matches_direct_sum(self):
        limit = 20_000
        total, _, atypical = prachar_average(limit)
        omegas = {p: len(sympy.factorint(p - 1)) for p in sympy.primerange(2, limit + 1)}
        assert total == sum(omegas.values())
        assert atypical == sum(1 for p, w in omegas.items() if w > typicality_threshold(p))

    def test_normalized_value_is_order_one(self):
        _, norm, _ = prachar_average(10**6)
        assert 0.5 <= norm <= 2.0

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            prachar_average(9)


def test_module_exports_resolve():
    for name in numtheory.__all__:
        assert getattr(numtheory, name) is not None
