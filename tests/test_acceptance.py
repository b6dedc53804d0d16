"""Acceptance checks: one test per numbered criterion, run in order.

Each test records one PASS/FAIL line; conftest replays them in a summary
section at the end of the run so every criterion gets a visible verdict.
Heavy sweeps are cached at module level and reused by the later criteria
that compare their outputs.
"""

import math
import os
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from affext.analysis import (
    ExhaustiveSubspaces,
    SampledSubspaces,
    deligne_battery,
    deligne_bound_check,
    output_distribution,
    reports_csv_lines,
    statistical_distance,
    verify_extractor,
    zero_coordinate_bound,
)
from affext.batch import batch_route
from affext.extractor import (
    build_matrix,
    build_spec,
    evaluate_batch,
    gen_exponents,
    verify_mds,
)
from affext.numtheory import first_primes_coprime, is_prime
from affext.subspace import (
    canonicalize,
    count_affine_subspaces,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    parametrize,
    random_subspace,
)

SEED = 20260815
_CACHE: dict = {}
_ANNOUNCEMENTS: list[str] = []  # replayed by the terminal-summary hook


def _announce(line: str) -> None:
    _ANNOUNCEMENTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException as exc:
        verdict = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
        _announce(f"ACCEPTANCE CRITERION {num:02d}: {verdict} - {desc} ({exc})")
        raise
    _announce(f"ACCEPTANCE CRITERION {num:02d}: PASS - {desc}")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _exhaustive_sweep(q: int, n: int, workers: int = 1):
    """Cached exhaustive k=2, m=1 sweep with the XOR-lemma checks."""
    key = (q, n, workers)
    if key not in _CACHE:
        spec = build_spec(q, n, 2, 1)
        (result, elapsed) = _timed(
            lambda: verify_extractor(
                spec,
                ExhaustiveSubspaces(),
                checks=("sd", "char_max", "xor"),
                workers=workers,
                collect="violations",
            )
        )
        _CACHE[key] = (result, reports_csv_lines(result), elapsed)
    return _CACHE[key]


def _change_of_vars_sweep():
    """Cached 500-subspace seeded change-of-variables sweep (all nonzero c)."""
    if "cov" not in _CACHE:
        spec = build_spec(13, 3, 2, 1)
        (result, elapsed) = _timed(
            lambda: verify_extractor(
                spec,
                SampledSubspaces(count=500, seed=SEED),
                checks=("change_of_vars",),
                collect="full",
            )
        )
        _CACHE["cov"] = (result, reports_csv_lines(result), elapsed)
    return _CACHE["cov"]


def test_criterion_01_exact_uniformity_on_full_space():
    desc = "full-space output distribution exactly uniform for 3 instances"
    with criterion(1, desc):
        for q, n, k, m in [(13, 3, 3, 1), (31, 3, 3, 1), (13, 4, 4, 2)]:
            spec = build_spec(q, n, k, m)
            V = canonicalize((0,) * n, np.eye(n, dtype=int).tolist(), q)
            (dist, elapsed) = _timed(lambda: output_distribution(spec, V))
            assert statistical_distance(dist) == Fraction(0), (q, n, k, m)
            assert (dist.counts == q ** (n - m)).all()
            assert elapsed < 10.0, f"({q},{n},{k},{m}) took {elapsed:.1f}s"


def test_criterion_02_exponent_generator_conformance():
    desc = "exponent premises hold for 200 random primes below 10**6, n in 1..64"
    with criterion(2, desc):
        rng = random.Random(SEED)
        t0 = time.perf_counter()
        for _ in range(200):
            while True:
                q = rng.randrange(3, 10**6) | 1
                if is_prime(q):
                    break
            n = rng.randint(1, 64)
            ev = gen_exponents(n, q)
            assert len(ev.d) == n
            assert all(d > 1 for d in ev.d)
            assert all(a > b for a, b in zip(ev.d, ev.d[1:]))
            assert all(math.gcd(d, q - 1) == 1 for d in ev.d)
            count = math.ceil(math.log2(n + 1))
            assert ev.lcm == math.prod(first_primes_coprime(q - 1, count))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_vandermonde_is_mds():
    desc = "all minors nonsingular for m <= 4, n <= 10, q in {13, 31, 101}"
    with criterion(3, desc):
        t0 = time.perf_counter()
        checked = 0
        for q in (13, 31, 101):
            for n in range(1, 11):
                for m in range(1, min(4, n) + 1):
                    assert verify_mds(build_matrix(m, n, q)), (m, n, q)
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 3 * sum(min(4, n) for n in range(1, 11))
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_04_xor_aggregation_exhaustive():
    desc = "sd <= char_max * q**(m/2) + 1e-6 on both exhaustive sweeps"
    with criterion(4, desc):
        r31, _, t31 = _exhaustive_sweep(31, 3)
        assert r31.total_subspaces == 30_783
        assert r31.processed == 30_783
        assert r31.violations["xor"] == 0
        assert r31.ok

        r13, _, t13 = _exhaustive_sweep(13, 4)
        assert r13.total_subspaces == count_affine_subspaces(4, 2, 13) == 5_257_590
        assert r13.processed == 5_257_590
        assert r13.violations["xor"] == 0
        assert r13.ok
        assert t31 + t13 < 300.0, f"took {t31 + t13:.1f}s"


def test_criterion_05_change_of_variables_identity():
    desc = "residue counts equal along both routes, 500 subspaces x all nonzero c"
    with criterion(5, desc):
        result, _, elapsed = _change_of_vars_sweep()
        assert result.processed == 500
        assert result.violations["change_of_vars"] == 0
        rows = [r for r in result.reports if r.check == "change_of_vars"]
        assert len(rows) == 500
        assert all(r.quantity == 0 and r.satisfied for r in rows)
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_06_substitution_form():
    desc = "pivot identity on full grids and degree inequality on 500 subspaces"
    with criterion(6, desc):
        # (a) pointwise pivot identity on full parameter grids, k <= 2
        for k, count in ((2, 500), (1, 100)):
            spec = build_spec(13, 3, k, 1)
            result = verify_extractor(
                spec,
                SampledSubspaces(count=count, seed=SEED),
                checks=("substitution_form",),
                collect="full",
            )
            assert result.processed == count
            assert result.violations["substitution_form"] == 0
        # (b) exponent inequality d_j * D_i < D over criterion 5's subspace set
        spec = build_spec(13, 3, 2, 1)
        for i in range(500):
            V = random_subspace(3, 2, 13, seed=SEED + i)
            D = math.lcm(*(spec.d[j] for j in V.pivots))
            for j in range(3):
                if j in V.pivots:
                    continue
                later = sum(1 for p in V.pivots if p < j)
                if later == 0:
                    continue
                D_i = D // spec.d[V.pivots[later - 1]]
                assert spec.d[j] * D_i < D, (i, j, V.pivots)


def test_criterion_07_zero_coordinate_bound():
    desc = "c^T A has at most m-1 zeros for all nonzero c, two matrices"
    with criterion(7, desc):
        t0 = time.perf_counter()
        for m, n, q in [(2, 6, 13), (3, 6, 31)]:
            A = build_matrix(m, n, q)
            digits = np.stack(
                np.meshgrid(*([np.arange(q)] * m), indexing="ij"), axis=-1
            ).reshape(-1, m)
            for c in digits[1:]:
                rep = zero_coordinate_bound(A, tuple(int(v) for v in c))
                assert rep.satisfied, (m, n, q, c)
                assert rep.quantity <= m - 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_08_deligne_battery():
    desc = "character-sum bound holds on the full battery (>= 20 cases)"
    with criterion(8, desc):
        t0 = time.perf_counter()
        battery = deligne_battery()
        assert len(battery) >= 20
        assert all(f.num_vars <= 2 for f, _ in battery)
        assert all(f.degree <= 7 for f, _ in battery)
        assert all(f.q <= 101 for f, _ in battery)
        for f, b in battery:
            rep = deligne_bound_check(f, b, tolerance=1e-6)
            assert rep.satisfied, rep
        # the q=7 cubic lands on 1 + 6*cos(2*pi/7) against 2*sqrt(7)
        [target] = [
            (f, b) for f, b in battery
            if (f.q, f.num_vars, f.degree, f.lower_terms, b) == (7, 1, 3, (), 1)
        ]
        rep = deligne_bound_check(*target)
        assert rep.quantity == pytest.approx(4.7409, abs=1e-4)
        assert rep.bound == pytest.approx(5.2915, abs=1e-4)
        assert rep.quantity <= rep.bound + 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_subspace_machinery():
    desc = "enumeration counts and parametrization images are exact"
    with criterion(9, desc):
        for n, k, q in [(2, 1, 3), (3, 2, 5), (3, 1, 7)]:
            subs = list(enumerate_subspaces(n, k, q))
            assert len(subs) == gaussian_binomial(n, k, q) * q ** (n - k)
            assert len({(V.offset, V.basis) for V in subs}) == len(subs)
            for V in subs:
                P = parametrize(V)
                image = {P.evaluate(t) for t in product(range(q), repeat=k)}
                assert image == set(enumerate_points(V))
        # larger instances, still below the q**k <= 10**4 exhaustive cap
        for n, k, q, seed in [(4, 3, 13, 1), (3, 2, 31, 2), (6, 2, 7, 3)]:
            V = random_subspace(n, k, q, seed=seed)
            P = parametrize(V)
            assert q**k <= 10**4
            image = {P.evaluate(t) for t in product(range(q), repeat=k)}
            assert image == set(enumerate_points(V))
            assert len(image) == q**k


def test_criterion_10_performance_and_worker_equivalence():
    route = batch_route(2**31 - 1)
    desc = f"10**6-vector batch below 5 s (batch_route = {route}); worker counts give identical reports"
    with criterion(10, desc):
        spec = build_spec(2**31 - 1, 64, 64, 2)
        rng = np.random.default_rng(SEED)
        xs = rng.integers(0, 2**31 - 1, size=(10**6, 64), dtype=np.int64)
        evaluate_batch(spec, xs[:64])  # warm the kernel
        (out, elapsed) = _timed(lambda: evaluate_batch(spec, xs))
        assert out.shape == (10**6, 2)
        assert elapsed < 5.0, f"batch took {elapsed:.2f}s on the {route!r} kernel"
        # spot-check the kernel against the scalar path
        from affext.extractor import evaluate

        for i in (0, 12345, 999_999):
            assert tuple(out[i]) == evaluate(spec, tuple(int(v) for v in xs[i]))

        _, lines1, _ = _exhaustive_sweep(31, 3, workers=1)
        _, lines4, _ = _exhaustive_sweep(31, 3, workers=4)
        assert lines1 == lines4


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"needs 4 logical CPUs, found {os.cpu_count() or 1}: criterion 10 is unverified here",
)
def test_criterion_10_parallel_speedup():
    desc = "exhaustive sweep speeds up >= 3x on 4 workers, identical bytes"
    with criterion(10, desc):
        _, lines1, t1 = _exhaustive_sweep(13, 4, workers=1)
        _, lines4, t4 = _exhaustive_sweep(13, 4, workers=4)
        assert lines1 == lines4
        assert t1 / t4 >= 3.0, f"speedup only {t1 / t4:.2f}x"


def test_criterion_11_reruns_are_byte_identical():
    desc = "repeating the sweeps with the same seeds reproduces every byte"
    with criterion(11, desc):
        # fresh reruns, no cache: same inputs must give the same CSV bytes
        for q, n in [(31, 3), (13, 4)]:
            _, cached_lines, _ = _exhaustive_sweep(q, n)
            spec = build_spec(q, n, 2, 1)
            rerun = verify_extractor(
                spec,
                ExhaustiveSubspaces(),
                checks=("sd", "char_max", "xor"),
                collect="violations",
            )
            assert reports_csv_lines(rerun) == cached_lines, (q, n)

        _, cov_lines, _ = _change_of_vars_sweep()
        spec = build_spec(13, 3, 2, 1)
        rerun = verify_extractor(
            spec,
            SampledSubspaces(count=500, seed=SEED),
            checks=("change_of_vars",),
            collect="full",
        )
        assert reports_csv_lines(rerun) == cov_lines
