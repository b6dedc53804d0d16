"""Unit tests for output statistics, structural checks, and the sweep engine.

The sweep engine's batched table-lookup pipeline is cross-validated against
the plain per-point reference path (output_distribution / evaluate) on small
exhaustive cases, and character magnitudes against direct complex sums.
"""

import dataclasses
import functools
import io
import itertools
import math
import re
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affext.analysis import (
    CHECK_ORDER,
    BoundReport,
    CharacterSum,
    DiagonalPolynomial,
    ExhaustiveSubspaces,
    ExplicitSubspaces,
    SampledSubspaces,
    OutputDistribution,
    character_magnitude,
    character_sum_subspace,
    decode_output,
    deligne_battery,
    deligne_bound_check,
    encode_output,
    normalize_checks,
    output_distribution,
    reports_csv_lines,
    statistical_distance,
    summary_lines,
    verify_extractor,
    write_reports_csv,
    write_summary,
    zero_coordinate_bound,
    _chunk_plan,
    _PointCounts,
)
from affext import analysis, batch, cli
from affext.config import Budgets, BudgetExceededError
from affext.extractor import build_matrix, build_spec, evaluate, evaluate_batch, verify_mds
from affext.subspace import (
    basis_at,
    canonicalize,
    count_affine_subspaces,
    enumerate_points,
    enumerate_subspaces,
    offsets_for_pattern,
    parametrize,
    pattern_blocks,
    random_subspace,
)
from conftest import HAVE_CC


def _count_routes():
    """Each count route as the count_route to patch in: the C kernel where a
    compiler exists, then numpy."""
    routes = {"c": batch.count_route} if HAVE_CC else {}
    routes["numpy"] = lambda: "numpy (forced)"
    return routes


def _canonical(c, q, m):
    """The canonical c of the +- pair of each encoded c: c itself if its last
    nonzero digit lies in 1..(q-1)/2, else -c."""
    digits = np.array([decode_output(int(e), q, m) for e in np.ravel(c)]).reshape(-1, m)
    last = np.array([next((d for d in row[::-1] if d), 0) for row in digits.tolist()])
    neg = (-digits % q) @ (q ** np.arange(m - 1, -1, -1))
    return np.where(2 * last <= q, np.ravel(c), neg).reshape(np.shape(c))


def _half_spectrum(dist, budget=10**8):
    """The sweep's transform of one exact distribution: its characters, and
    |E[w^<c,Z>]| for each of them."""
    chars = analysis._Characters(dist.q, dist.m, budget)
    return chars, chars.magnitudes(dist.counts, dist.total)


def _spectrum(dist, budget=10**8):
    """The sweep's transform read through the canonical map: |E[w^<c,Z>]|
    for c = 1, 2, ... encoded, q**m - 1 entries, each read at the canonical
    c of its +- pair."""
    chars, half = _half_spectrum(dist, budget)
    every = np.arange(1, dist.q**dist.m)
    return half[np.searchsorted(chars.c, _canonical(every, dist.q, dist.m))]


def _phase_tables(chars):
    """The phase tables <z, c> mod q of chars, _CHAR_CHUNK canonical c at a time."""
    for lo in range(0, len(chars.c), analysis._CHAR_CHUNK):
        c = chars.digits[chars.c[lo : lo + analysis._CHAR_CHUNK]]
        yield (chars.digits @ c.T) % chars.q


def _spy_phase_tables(chars):
    """Record the shape of each phase table chars.magnitudes() builds: it
    reads the powers of w through each table once.  Returns the list."""
    shapes = []

    class Omega(np.ndarray):
        def __getitem__(self, index):
            shapes.append(np.shape(index))
            return np.asarray(self)[index]

    chars.omega = chars.omega.view(Omega)
    return shapes


@pytest.fixture(scope="module")
def spec13():
    return build_spec(13, 3, 2, 1)


@pytest.fixture(scope="module")
def spec13_m2():
    return build_spec(13, 3, 2, 2)


class TestEncoding:
    def test_round_trip(self):
        for q, m in [(3, 1), (5, 2), (13, 3)]:
            for enc in range(q**m):
                assert encode_output(decode_output(enc, q, m), q) == enc

    def test_big_endian(self):
        assert encode_output((1, 2), 5) == 7
        assert decode_output(7, 5, 2) == (1, 2)

    @given(st.integers(min_value=2, max_value=31), st.data())
    def test_encode_inverts_decode(self, q, data):
        m = data.draw(st.integers(min_value=1, max_value=4))
        z = data.draw(
            st.lists(st.integers(min_value=0, max_value=q - 1), min_size=m, max_size=m)
        )
        assert decode_output(encode_output(z, q), q, m) == tuple(z)


class TestStatisticalDistance:
    def test_hand_example(self):
        dist = OutputDistribution(
            q=3, m=1, counts=np.array([6, 2, 1], dtype=np.int64), total=9
        )
        assert statistical_distance(dist) == Fraction(1, 3)

    def test_uniform_gives_zero(self):
        dist = OutputDistribution(
            q=5, m=1, counts=np.full(5, 7, dtype=np.int64), total=35
        )
        assert statistical_distance(dist) == 0

    def test_point_mass_gives_complement(self):
        counts = np.zeros(25, dtype=np.int64)
        counts[3] = 10
        dist = OutputDistribution(q=5, m=2, counts=counts, total=10)
        assert statistical_distance(dist) == Fraction(24, 25)

    def test_matches_probability_definition(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=27).astype(np.int64)
        counts[0] += 1  # nonzero total
        dist = OutputDistribution(q=3, m=3, counts=counts, total=int(counts.sum()))
        direct = sum(
            abs(Fraction(int(c), dist.total) - Fraction(1, 27)) for c in counts
        ) / 2
        assert statistical_distance(dist) == direct

    def test_count_validation(self):
        with pytest.raises(ValueError):
            OutputDistribution(q=3, m=1, counts=np.array([1, 2], dtype=np.int64), total=3)
        with pytest.raises(ValueError):
            OutputDistribution(q=3, m=1, counts=np.array([1, 1, 1], dtype=np.int64), total=4)


class TestOutputDistribution:
    def test_counts_match_direct_tally(self, spec13_m2):
        V = random_subspace(3, 2, 13, seed=3)
        dist = output_distribution(spec13_m2, V)
        tally = {}
        for x in enumerate_points(V):
            z = evaluate(spec13_m2, x)
            tally[z] = tally.get(z, 0) + 1
        for enc in range(13**2):
            assert int(dist.counts[enc]) == tally.get(decode_output(enc, 13, 2), 0)
        assert dist.total == 13**2

    def test_full_space_is_exactly_uniform(self):
        # k = n restrictions are bijections composed with an onto linear map,
        # so every output cell is hit exactly q**(n-m) times
        spec = build_spec(13, 3, 3, 1)
        V = canonicalize((0, 0, 0), np.eye(3, dtype=int).tolist(), 13)
        dist = output_distribution(spec, V)
        assert (dist.counts == 13**2).all()
        assert statistical_distance(dist) == 0

    def test_budget_guard(self, spec13):
        V = random_subspace(3, 2, 13, seed=0)
        with pytest.raises(BudgetExceededError):
            output_distribution(spec13, V, budget=12)

    def test_modulus_mismatch_rejected(self, spec13):
        with pytest.raises(ValueError, match="modulus"):
            output_distribution(spec13, random_subspace(3, 2, 5, seed=0))
        with pytest.raises(ValueError, match="n="):
            output_distribution(spec13, random_subspace(4, 2, 13, seed=0))


class TestCharacterSums:
    def test_cubic_residue_magnitude(self):
        # x -> x**3 over F_7 has image counts 1/3/3 on residues 0/1/6, so the
        # character sum is 1 + 6*cos(2*pi/7)
        counts = np.zeros(7, dtype=np.int64)
        for x in range(7):
            counts[pow(x, 3, 7)] += 1
        cs = CharacterSum(q=7, residue_counts=counts, total=7)
        want = abs(1 + 6 * math.cos(2 * math.pi / 7)) / 7
        assert character_magnitude(cs) == pytest.approx(want, abs=1e-12)

    def test_uniform_residues_cancel(self):
        cs = CharacterSum(q=5, residue_counts=np.full(5, 3, dtype=np.int64), total=15)
        assert character_magnitude(cs) == pytest.approx(0.0, abs=1e-12)

    def test_subspace_sum_matches_distribution_projection(self, spec13_m2):
        V = random_subspace(3, 2, 13, seed=8)
        dist = output_distribution(spec13_m2, V)
        mags = _spectrum(dist)
        for c in [(1, 0), (0, 1), (5, 7), (12, 12)]:
            cs = character_sum_subspace(spec13_m2, V, c)
            assert character_magnitude(cs) == pytest.approx(
                mags[encode_output(c, 13) - 1], abs=1e-9
            )

    def test_parseval_identity(self, spec13_m2):
        # sum_c |S_c|^2 = q**m * sum_z counts[z]**2 for exact counts; S_0 = total,
        # and the half spectrum holds one c of each +- pair, so counts it twice
        V = random_subspace(3, 2, 13, seed=4)
        dist = output_distribution(spec13_m2, V)
        chars, mags = _half_spectrum(dist)
        assert len(chars.c) == (13**2 - 1) // 2
        lhs = 2 * ((mags * dist.total) ** 2).sum() + dist.total**2
        rhs = 13**2 * float((dist.counts.astype(np.int64) ** 2).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("sweep", ("edge_shapes", "exhaustive", "sampled"))
    def test_reported_c_is_canonical_and_attains_the_maximum(self, sweep):
        # each char_max and xor row names one canonical c, the same for both,
        # whose |S(c)| by the point oracle is within 1e-12 of the largest
        # magnitude over every nonzero c, from a full dense spectrum
        if sweep == "edge_shapes":
            runs = [(build_spec(*args), ExplicitSubspaces((V,))) for args, V in EDGE_SHAPES]
        elif sweep == "exhaustive":
            runs = [(build_spec(5, 3, 2, 2), ExhaustiveSubspaces())]
        else:
            runs = [(build_spec(7, 3, 2, 1), SampledSubspaces(20, 3))]
        for spec, source in runs:
            q, m = spec.modulus, spec.m
            res = verify_extractor(spec, source, checks=("char_max", "xor"), collect="full")
            subspaces = (source.subspaces if isinstance(source, ExplicitSubspaces)
                         else list(enumerate_subspaces(spec.n, spec.k, q))
                         if isinstance(source, ExhaustiveSubspaces)
                         else [random_subspace(spec.n, spec.k, q, seed=3 + i) for i in range(20)])
            digits = np.array([decode_output(e, q, m) for e in range(q**m)])
            phases = np.exp(2j * np.pi * ((digits @ digits.T) % q) / q)[:, 1:]  # every c != 0
            rows = list(res.reports)
            for char, xor in zip(rows[::2], rows[1::2]):
                V, c = subspaces[char.subspace_id], char.c_encoded
                assert (char.check, xor.check, xor.c_encoded) == ("char_max", "xor", c)
                assert 0 < c < q**m and _canonical(c, q, m) == c
                dist = output_distribution(spec, V)
                top = (np.abs(dist.counts @ phases) / dist.total).max()
                got = character_magnitude(character_sum_subspace(spec, V, decode_output(c, q, m)))
                assert abs(got - top) <= 1e-12 and abs(char.quantity - top) <= 1e-12
            assert _canonical(res.max_char_c, q, m) == res.max_char_c

    def test_character_index_length_checked(self, spec13):
        V = random_subspace(3, 2, 13, seed=1)
        for c in [(1, 2), (1, 2, 3), ()]:
            with pytest.raises(ValueError, match="does not match m=1"):
                character_sum_subspace(spec13, V, c)

    def test_character_table_budget(self, spec13_m2):
        # the sweep's rule: 169 outputs by 84 canonical characters = 14196 entries
        res = verify_extractor(spec13_m2, SampledSubspaces(1, 0), checks=("char_max",),
                               budgets=Budgets(points=14196))
        assert res.processed == 1
        with pytest.raises(BudgetExceededError, match="phase table needs 14196 entries"):
            verify_extractor(spec13_m2, SampledSubspaces(1, 0), checks=("char_max",),
                             budgets=Budgets(points=14195))

    def test_a_run_gets_the_bits_of_lone_blocks(self, monkeypatch):
        # magnitudes() on a run (blocks, rows, q**m), on the representative
        # rows of an exhaustive run or on every row, equals, bit for bit, the
        # transform of each block alone over the canonical c, whether a tile
        # stacks one block or the whole run, and builds each phase table once
        # per run, not once per block
        def runs():
            # three consecutive blocks of an exhaustive sweep, all their offsets:
            # one phase table at 13/3/k2/m1, two at 23/3/k2/m2 (264 > 256 canonical c)
            for q, n, k, m in ((13, 3, 2, 1), (23, 3, 2, 2)):
                state = _exhaustive_state(build_spec(q, n, k, m))
                block = pattern_blocks(n, k, q)[0]
                bases = basis_at(block, 0, 3, q, n)
                offsets, partner = state.pattern(block.pattern).offsets
                counts = state.counter.counts(block.pattern, bases, offsets,
                                              state.pattern(block.pattern).direct, partner)
                run = counts.reshape(3, len(offsets), -1)
                yield q, m, run, q**k, analysis._representatives(partner)
                yield q, m, run, q**k, None
            # the edge shapes: V's counts, and two rearrangements of them as blocks
            for (q, n, k, m), V in EDGE_SHAPES:
                c = output_distribution(build_spec(q, n, k, m), V).counts
                yield q, m, np.stack([c, np.roll(c, 1), c[::-1]])[:, None], q**k, None

        for (q, m, run, total, rows), tile in itertools.product(runs(), (1, analysis._CHAR_TILE)):
            monkeypatch.setattr(analysis, "_CHAR_TILE", tile)
            chars = analysis._Characters(q, m, 10**8)
            picked = run if rows is None else run[:, rows]
            lone = np.stack([np.concatenate([np.abs(block.astype(np.float64) @ chars.omega[phase])
                                             / total for phase in _phase_tables(chars)], axis=-1)
                             for block in picked])
            tables = _spy_phase_tables(chars)
            got = chars.magnitudes(run, total, rows)
            assert len(tables) == math.ceil(len(chars.c) / 256) == 1 + (q**m > 513), (q, m)
            assert got.shape == (*picked.shape[:2], (q**m - 1) // 2)
            assert (got.view(np.int64) == lone.view(np.int64)).all(), (q, m)
            for block, want in zip(run, got):  # a lone block, and a lone row, keep their shapes
                alone = chars.magnitudes(block, total, rows)
                assert (alone.view(np.int64) == want.view(np.int64)).all()
                assert chars.magnitudes(block[0], total).shape == ((q**m - 1) // 2,)

    def test_phase_tables_stay_within_the_guard(self, monkeypatch):
        # the guard counts q**m outputs by min(256, (q**m - 1) / 2) canonical
        # characters, one of each +- pair; no table is wider than that
        real = analysis._Characters.__init__
        shapes = []

        def spy(self, *args):
            real(self, *args)
            shapes.append(_spy_phase_tables(self))

        monkeypatch.setattr(analysis._Characters, "__init__", spy)
        for (q, n, k, m), budget, want in [
            ((13, 3, 2, 2), 169 * 84, [(169, 84)]),
            ((7, 3, 3, 3), 343 * 171, [(343, 171)]),
            ((11, 3, 3, 3), 1331 * 256, [(1331, 256), (1331, 256), (1331, 153)]),
        ]:
            dist = output_distribution(build_spec(q, n, k, m), random_subspace(n, k, q, seed=3))
            shapes.clear()
            mags = _spectrum(dist, budget=budget)
            assert shapes == [want] and mags.shape == (q**m - 1,)
            with pytest.raises(BudgetExceededError, match=f"phase table needs {budget} entries"):
                _spectrum(dist, budget=budget - 1)


class TestXorBound:
    def test_reports_exact_sd_and_scaled_bound(self, spec13):
        V = random_subspace(3, 2, 13, seed=6)
        dist = output_distribution(spec13, V)
        res = verify_extractor(spec13, ExplicitSubspaces((V,)), checks=("sd", "char_max", "xor"),
                               collect="full")
        sd, char, xor = res.reports
        assert xor.check == "xor"
        assert xor.quantity == sd.quantity == float(statistical_distance(dist))
        eps = max(character_magnitude(character_sum_subspace(spec13, V, (c,)))
                  for c in range(1, 13))
        assert char.quantity == pytest.approx(eps, abs=1e-12)
        assert xor.bound == pytest.approx(eps * 13**0.5, abs=1e-12)
        assert xor.satisfied and xor.c_encoded == char.c_encoded

    def test_holds_on_many_random_subspaces(self, spec13_m2):
        vs = tuple(random_subspace(3, 2, 13, seed=seed) for seed in range(40))
        res = verify_extractor(spec13_m2, ExplicitSubspaces(vs), checks=("xor",))
        assert res.violations == {"xor": 0} and res.processed == 40


# (spec arguments q, n, k, m; subspace) at the edge shapes of the count
# primitive: a generic plane, k = n, k = 1, m = k twice (the second with
# 7**3 - 1 = 342 nonzero c, more than one block of characters) and a k = 0 point
EDGE_SHAPES = (
    ((13, 3, 2, 1), random_subspace(3, 2, 13, seed=12)),
    ((13, 3, 3, 1), canonicalize((0, 0, 0), np.eye(3, dtype=int).tolist(), 13)),
    ((13, 3, 1, 1), random_subspace(3, 1, 13, seed=3)),
    ((13, 3, 2, 2), random_subspace(3, 2, 13, seed=5)),
    ((7, 4, 3, 3), random_subspace(4, 3, 7, seed=1)),
    ((13, 3, 2, 1), canonicalize((5, 2, 7), [], 13)),
)


def _structural_oracle(spec, V):
    """change_of_vars and substitution_form of V, point by point through
    parametrize(V).evaluate and evaluate.  With u_i = t_i**D_i: per output z
    (encoded order) the count of F(l(t)) = z minus the count of F(l(u)) = z;
    per nonzero c (encoded order) the worst residue-count gap of <c, F(l(t))>
    against <c, F(l(u))>; the pivot mismatches x_{j_i}**d_{j_i} != t_i**D at
    x = l(u), plus the non-pivot coordinates whose substituted degree reaches
    D; and D."""
    q, m = spec.modulus, spec.m
    D, D_per_pivot = analysis._pivot_degrees(spec, V.pivots)
    par = parametrize(V)
    grid = list(itertools.product(range(q), repeat=V.k))
    moved = [par.evaluate(tuple(pow(t_i, D_i, q) for t_i, D_i in zip(t, D_per_pivot)))
             for t in grid]
    direct = np.array([evaluate(spec, par.evaluate(t)) for t in grid]).reshape(-1, m)
    substituted = np.array([evaluate(spec, x) for x in moved]).reshape(-1, m)
    diff = [0] * q**m
    for zd, zs in zip(direct.tolist(), substituted.tolist()):
        diff[encode_output(zd, q)] += 1
        diff[encode_output(zs, q)] -= 1
    gaps = []
    for enc in range(1, q**m):
        c = np.array(decode_output(enc, q, m))
        tally = (np.bincount(direct @ c % q, minlength=q)
                 - np.bincount(substituted @ c % q, minlength=q))
        gaps.append(int(np.abs(tally).max()))
    form = sum(pow(x[j], spec.d[j], q) != pow(t_i, D, q)
               for t, x in zip(grid, moved) for t_i, j in zip(t, V.pivots))
    for j in set(range(V.n)) - set(V.pivots):
        # x_j is linear in the t_i of the pivots left of it, so its degree is
        # d_j times the largest of their D_i
        left = [D_i for D_i, p in zip(D_per_pivot, V.pivots) if p < j]
        form += bool(left) and spec.d[j] * max(left) >= D
    return diff, gaps, int(form), D


def _assert_structural_rows_match_the_oracle(spec, V, rows=None):
    """The sweep's change_of_vars and substitution_form rows for V, by
    default from a sweep of V alone, against _structural_oracle;
    change_of_vars names the first output z with the worst count gap.  The
    character route witnesses the verdict: by Fourier inversion the count
    rows agree exactly when no nonzero c has a residue-count gap."""
    cov, form = rows or verify_extractor(spec, ExplicitSubspaces((V,)), collect="full",
                                         checks=("change_of_vars", "substitution_form")).reports
    diff, gaps, bad, D = _structural_oracle(spec, V)
    worst = max(map(abs, diff))
    assert (cov.check, cov.quantity, cov.satisfied) == ("change_of_vars", worst, worst == 0)
    assert cov.c_encoded == ([abs(g) for g in diff].index(worst) if worst else None)
    assert cov.satisfied == (max(gaps) == 0)
    assert (form.check, form.quantity, form.satisfied) == ("substitution_form", bad, bad == 0)
    assert form.detail == f"D={D}"


def _exhaustive_state(spec):
    """The sweep state of an exhaustive sd sweep of spec: state.pattern(pivots)
    is the per-pattern record, and state.counter the count primitive."""
    header = analysis.SweepResult(spec.modulus, spec.n, spec.k, spec.m, "exhaustive",
                                  ("sd",), "full", 1e-6, 0)
    return analysis._SweepState(spec, ExhaustiveSubspaces(), Budgets(), header)


def _identity(q, k):
    """The identity value rows of k parameters: the lexicographic grid."""
    return np.tile(np.arange(q, dtype=np.int64), (k, 1))


def _count_blocks():
    """(spec, pivots, bases, offsets, partner, subspaces) for one counts() call each:
    every EDGE_SHAPES entry; then exhaustive runs, every offset with its +-
    pair: at m = 1, 3 bases whose row 0 changes at the second and not at the
    third, which the C kernel counts by lines, at 7/3/k2, 7/4/k2 (n - k = 2),
    5/4/k3 (k = 3) and 7/3/k3 (k = n, whose one basis, the identity, is taken
    twice); then up to 3 consecutive blocks of one pivot pattern of
    7/3/k2/m2, 7 offsets each.  Subspaces in row order (basis-major).  At
    m = 1 a basis row that is zero on the free columns makes every count of
    its planes uniform, which a wrong line table would not change, so the
    m = 1 bases have no such row."""
    for spec_args, V in EDGE_SHAPES:
        yield (build_spec(*spec_args), V.pivots, V.basis_array()[None],
               V.offset_array().reshape(1, -1), None, [V])
    for q, n, k in ((7, 3, 2), (7, 4, 2), (5, 4, 3), (7, 3, 3)):
        spec, block = build_spec(q, n, k, 1), pattern_blocks(n, k, q)[0]
        if block.cells:  # row 0's cells come first: row 0 changes every q**rest bases
            step = q ** sum(row > 0 for row, _ in block.cells)
            ones = (step - 1) // (q - 1)  # every cell below row 0 is 1
            bases = np.concatenate([basis_at(block, i, i + 1, q, n)
                                    for i in (step + ones, 2 * step + ones, 2 * step + 2 * ones)])
            assert (bases[1, 0] != bases[0, 0]).any() and (bases[2, 0] == bases[1, 0]).all()
            assert np.delete(bases, block.pattern, axis=2).any(axis=2).all()
        else:
            bases = np.stack([basis_at(block, 0, 1, q, n)[0]] * 2)
        offsets, partner = _exhaustive_state(spec).pattern(block.pattern).offsets
        subspaces = [canonicalize(tuple(o), basis.tolist(), q)
                     for basis in bases for o in offsets.tolist()]
        yield spec, block.pattern, bases, offsets, partner, subspaces
    spec, blocks = build_spec(7, 3, 2, 2), pattern_blocks(3, 2, 7)
    state = _exhaustive_state(spec)
    for linear in range(0, count_affine_subspaces(3, 2, 7) // 7, 8):
        block = next(b for b in blocks if linear < b.start + b.count)
        bases = basis_at(block, linear, min(linear + 3, block.start + block.count), 7, 3)
        offsets, partner = state.pattern(block.pattern).offsets
        subspaces = [canonicalize(tuple(o), basis.tolist(), 7)
                     for basis in bases for o in offsets.tolist()]
        yield spec, block.pattern, bases, offsets, partner, subspaces


class TestChangeOfVars:
    def test_direct_route_matches_reference_distribution(self, monkeypatch):
        # every count route: the C kernel where a compiler exists, then numpy;
        # on the direct value rows and the substituted ones, a permutation of them
        for route in ["c"] * HAVE_CC + ["numpy"]:
            if route == "numpy":
                monkeypatch.setattr(batch, "count_route", lambda: "numpy (forced)")
            assert batch.count_route().startswith(route)
            runs = 0
            for spec, pivots, bases, offsets, partner, subspaces in _count_blocks():
                counter, record = _PointCounts(spec, 10**8), _exhaustive_state(spec).pattern(pivots)
                want = np.array([output_distribution(spec, V).counts for V in subspaces])
                for values in (record.direct, record.substituted):
                    got = counter.counts(pivots, bases, offsets, values, partner)
                    assert got.shape == want.shape and (got == want).all(), (route, spec, bases)
                runs += len(bases) > 1
            # multi-basis runs: 4 of m = 1, and 6 of 7/3/k2/m2, one per 8
            # linear subspaces below 49
            assert runs == 10

    def test_exact_equality_on_random_subspaces(self, spec13):
        # every nonzero c of every subspace: no residue-count gap at all
        vs = tuple(random_subspace(3, 2, 13, seed=seed) for seed in range(25))
        res = verify_extractor(spec13, ExplicitSubspaces(vs), checks=("change_of_vars",),
                               collect="full")
        assert res.violations == {"change_of_vars": 0} and res.processed == 25
        rows = [(r.quantity, r.c_encoded, r.satisfied) for r in res.reports]
        assert rows == [(0, None, True)] * 25

    def test_k_equals_n_and_k_zero(self):
        spec = build_spec(13, 3, 3, 1)
        V = canonicalize((0, 0, 0), np.eye(3, dtype=int).tolist(), 13)
        point = canonicalize((5, 2, 7), [], 13)
        res = verify_extractor(spec, ExplicitSubspaces((V, point)),
                               checks=("change_of_vars", "substitution_form"), collect="full")
        assert [(r.subspace_id, r.quantity, r.satisfied) for r in res.reports] == [
            (0, 0, True), (0, 0, True), (1, 0, True), (1, 0, True)]
        assert [r.detail for r in list(res.reports)[1::2]] == [f"D={math.lcm(*spec.d)}", "D=1"]
        # the counts of both, on either value rows and either route: the kernel body
        # for (m, n - k) = (1, 0), then the generic one at n - k = 3
        state = _exhaustive_state(spec)
        for W in (V, point):
            want = output_distribution(spec, W).counts
            record = state.pattern(W.pivots)
            for route, kernel in _count_routes().items():
                with mock.patch.object(batch, "count_route", kernel):
                    for values in (record.direct, record.substituted):
                        got = state.counter.counts(W.pivots, W.basis_array(),
                                                   W.offset_array()[None], values)
                        assert (got[0] == want).all(), (route, W.k)

    def test_encodes_c(self, spec13_m2, doubled_degrees):
        # the c column of a failing row is the first output z with the worst
        # count gap, big-endian encoded
        V = random_subspace(3, 2, 13, seed=2)
        diff, _, _, _ = _structural_oracle(spec13_m2, V)
        gap = [abs(g) for g in diff]
        res = verify_extractor(spec13_m2, ExplicitSubspaces((V,)), checks=("change_of_vars",),
                               collect="full")
        (row,) = res.reports
        assert row.quantity == max(gap) == 6 and gap.index(6) == row.c_encoded
        assert row.c_encoded == encode_output((4, 5), 13) == 4 * 13 + 5

    def test_budget_guard(self, spec13):
        V = random_subspace(3, 2, 13, seed=0)
        # the 3 * (2q - 1) = 75 power-table entries are checked before use
        for checks in (("change_of_vars",), ("substitution_form",)):
            with pytest.raises(BudgetExceededError, match="power tables"):
                verify_extractor(spec13, ExplicitSubspaces((V,)), checks=checks,
                                 budgets=Budgets(points=50))


class TestCountRoutes:
    """Dispatch, guards and fallback of _PointCounts.counts.  Both routes
    against the oracle: TestChangeOfVars::test_direct_route_matches_reference_distribution."""

    def test_int64_guard_boundary(self):
        # a precondition of both routes, checked on (q, n) alone: n*(q-1)**2 = 2**63 - 1
        # (n = 2**63 - 1, q = 2) fits; 2**63 (n = 2, q = 2**31 + 1) does not
        analysis._check_int64_sums(2, 2**63 - 1)
        with pytest.raises(ValueError, match=rf"n\*\(q-1\)\*\*2 = {2**63} overflows"):
            analysis._check_int64_sums(2**31 + 1, 2)

    def test_counts_checks_the_int64_guard_first(self, monkeypatch):
        spec = build_spec(13, 3, 2, 1)
        counter = _PointCounts(spec, 10**8)
        V = random_subspace(3, 2, 13, seed=1)
        seen = []

        def guard(q, n):
            seen.append((q, n))
            raise ValueError("guard")

        monkeypatch.setattr(analysis, "_check_int64_sums", guard)
        # on both routes, and before the point checks would reject the offset
        for route in (batch.count_route, lambda: "numpy (forced)"):
            monkeypatch.setattr(batch, "count_route", route)
            with pytest.raises(ValueError, match="guard"):
                counter.counts(V.pivots, V.basis_array(), np.array([(13, 12, 12)]),
                               _identity(13, 2))
        assert seen == [(13, 3), (13, 3)]

    def test_malformed_points_are_rejected(self, monkeypatch):
        spec = build_spec(13, 3, 2, 1)
        counter = _PointCounts(spec, 10**8)
        V = random_subspace(3, 2, 13, seed=1)
        basis, grid, origin = V.basis_array(), _identity(13, 2), np.zeros((1, 3), dtype=np.int64)
        big, negative = basis.copy(), grid.copy()
        big[1, 2], negative[1, 5] = 13, -1
        # a precondition of both routes: the C kernel reads these unchecked
        for route in (batch.count_route, lambda: "numpy (forced)"):
            monkeypatch.setattr(batch, "count_route", route)
            for offset in ((13, 12, 12), (-1, 0, 0)):
                with pytest.raises(ValueError, match="outside"):
                    counter.counts(V.pivots, basis, np.array([offset]), grid)
            for bases, points in ((big, grid), (big[None], grid), (basis, negative)):
                with pytest.raises(ValueError, match="outside"):
                    counter.counts(V.pivots, bases, origin, points)
            assert counter.counts(V.pivots, basis, origin, grid).sum() == 13**2
        with pytest.raises(ValueError, match="3 coordinates"):
            counter.counts(V.pivots, V.basis_array(), np.array([[1, 2]]), grid)
        for rows in (grid[:1], grid[:, :12], grid.T):
            with pytest.raises(ValueError, match="one row of 13 per basis row"):
                counter.counts(V.pivots, basis, origin, rows)
        with pytest.raises(ValueError, match="one row per offset"):
            counter.counts(V.pivots, basis, origin, grid, partner=np.array([0, 0]))

    def test_pivot_columns_are_a_precondition(self, monkeypatch):
        # the kernel reads pivot coordinate j_i of offset + t.B as t_i, so a
        # basis that is not the identity on the pivots, or an offset nonzero
        # there, is refused before any work, on both routes
        spec = build_spec(13, 3, 2, 1)
        counter = _PointCounts(spec, 10**8)
        V = random_subspace(3, 2, 13, seed=1)
        basis, offset, grid = V.basis_array(), V.offset_array()[None], _identity(13, 2)
        (free,) = set(range(3)) - set(V.pivots)
        scaled, swapped, moved = basis.copy(), basis[::-1].copy(), offset.copy()
        scaled[0, V.pivots[0]] = 2
        moved[0, V.pivots[1]] = 1
        assert moved[0, free] == offset[0, free]
        ran = []

        def spy(*args):
            ran.append(args)
            return 0

        monkeypatch.setattr(batch, "count_blocks", spy)  # both routes run inside it
        for route in (lambda: "c", lambda: "numpy (forced)"):
            monkeypatch.setattr(batch, "count_route", route)
            for bases, offsets in ((scaled, offset), (swapped, offset), (basis, moved),
                                   (np.stack([basis, scaled]), offset)):
                with pytest.raises(ValueError, match=re.escape(
                        f"a basis is not the identity or an offset not zero "
                        f"on the pivot columns {V.pivots}")):
                    counter.counts(V.pivots, bases, offsets, grid)
            for pivots in ((0,), (0, 0), (0, 3), (-1, 0), (0, 1, 2)):
                with pytest.raises(ValueError, match="are not 2 distinct columns below 3"):
                    counter.counts(pivots, basis, offset, grid)
        assert ran == []

    def test_value_rows_are_a_precondition(self, monkeypatch):
        # the kernel reads the value rows unchecked, the line loop needs each
        # to fix 0, and the +- fill needs each to be odd: a row that is not
        # is refused before any work, on both routes.  On this exhaustive
        # block of 11/3/k2/m1, s -> s**2 (which fixes 0 but is even) with
        # partners would fill 5 of the basis's 11 rows wrongly
        spec = build_spec(11, 3, 2, 1)
        counter, block = _PointCounts(spec, 10**8), pattern_blocks(3, 2, 11)[0]
        basis = basis_at(block, 5, 6, 11, 3)
        offsets, partner = _exhaustive_state(spec).pattern(block.pattern).offsets
        s = np.arange(11)
        cases = []  # (value rows, partner, what the refusal says)
        for i, cell, bad in ((1, 4, 11), (0, 2, -1), (1, 10, 2**40)):
            rows = _identity(11, 2)
            rows[i, cell] = bad
            cases += [(rows, None, "outside"), (rows, partner, "outside")]
        for shifted in ((s + 1) % 11, (s + 3) % 11):
            cases.append((np.stack([s, shifted]), None, "does not map 0 to 0"))
        squared = np.stack([s**2 % 11, s])
        cases += [(squared, partner, "is not odd"), (squared[::-1], partner, "is not odd")]
        ran = []

        def spy(*args):
            ran.append(args)
            return 0

        monkeypatch.setattr(batch, "count_blocks", spy)  # both routes run inside it
        for route in (lambda: "c", lambda: "numpy (forced)"):
            monkeypatch.setattr(batch, "count_route", route)
            for rows, pair, what in cases:
                with pytest.raises(ValueError, match=what):
                    counter.counts(block.pattern, basis, offsets, rows, pair)
        assert ran == []
        # an even row counts every offset itself, and then runs
        counter.counts(block.pattern, basis, offsets, squared)
        assert len(ran) == 1

    def test_numpy_route_over_several_slices(self, monkeypatch):
        # at two offset rows per slice (n * T = 3 * 49 elements each), each basis of
        # a 7/3/k2/m2 run takes 4 slices of its 7 offsets, or 2 of its 4 representatives
        monkeypatch.setattr(batch, "_ELEM_SLICE", 2 * 3 * 49)
        real, slices = np.bincount, []
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: slices.append(1) or real(*a, **kw))
        for spec, pivots, bases, offsets, partner, subspaces in list(_count_blocks())[-6:]:
            counter = _PointCounts(spec, 10**8)
            want = np.array([output_distribution(spec, V).counts for V in subspaces])
            assert offsets.shape == (7, 3) and len(bases) in (1, 2, 3)
            for pair in (None, partner):
                for route, kernel in _count_routes().items():
                    slices.clear()
                    with mock.patch.object(batch, "count_route", kernel):
                        got = counter.counts(pivots, bases, offsets, _identity(7, 2), pair)
                    assert (got == want).all(), (route, pair is None)
                    assert len(slices) == (route == "numpy") * len(bases) * (4 if pair is None else 2)

    def test_no_compiler_gives_identical_reports_and_one_warning(
        self, fresh_c_build, monkeypatch, tmp_path
    ):
        spec = build_spec(7, 3, 2, 2)

        def run(path):
            res = verify_extractor(spec, ExhaustiveSubspaces(), checks=CHECK_ORDER, collect="full")
            write_reports_csv(res, path)
            return res, (reports_csv_lines(res) + summary_lines(res), repr(res.reports),
                         path.read_bytes())

        res, compiled = run(tmp_path / "compiled.csv")
        if HAVE_CC:
            assert batch.report_route() == "c"
        monkeypatch.setattr(batch, "_find_compiler", lambda: None)
        batch.c_build.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(tmp_path / "python.csv")[1] == compiled  # the report writer too
            assert [w.category for w in caught] == [RuntimeWarning]  # from the counts
            evaluate_batch(spec, [[1, 2, 3]])  # the batch kernel shares that warning
        assert len(caught) == 1 and "no C compiler" in str(caught[0].message)
        assert batch.count_route().startswith("numpy (C kernels unavailable: no C compiler")
        assert batch.report_route().startswith("python (C kernels unavailable: no C compiler")

    def test_no_compiler_threads_warn_once_and_match_one_worker(
        self, fresh_c_build, monkeypatch
    ):
        # the kernels are resolved before the pool starts, so no two threads
        # race on c_build or on the warning flag
        spec = build_spec(13, 3, 2, 1)
        src = SampledSubspaces(count=20, seed=5)  # 20 chunks
        monkeypatch.setattr(batch, "_find_compiler", lambda: None)

        def lines(workers):
            res = verify_extractor(spec, src, checks=CHECK_ORDER, workers=workers, collect="full")
            assert res.chunks == 20
            return reports_csv_lines(res) + summary_lines(res), repr(res.reports)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            threaded = lines(2)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "no C compiler" in str(caught[0].message)
        assert lines(1) == threaded


@st.composite
def _small_shapes(draw):
    """(q, n, k, m, seed) with n < q, 1 <= m <= k <= n <= 3."""
    q = draw(st.sampled_from((5, 7, 11, 13)))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    return q, n, k, draw(st.integers(1, k)), draw(st.integers(0, 2**16))


class TestTransformProperties:
    # the C count kernel has a body per (m, n - k) in {1, 2} x {0, 1, 2} and a
    # generic one; the examples run each of them
    @given(_small_shapes())
    @example((13, 3, 3, 1, 0))  # k = n; (m, n - k) = (1, 0)
    @example((13, 3, 2, 1, 4))  # (1, 1)
    @example((11, 3, 1, 1, 1))  # k = 1; (1, 2)
    @example((7, 3, 1, 1, 5))  # (1, 2)
    @example((5, 2, 2, 2, 3))  # m = k; (2, 0)
    @example((7, 3, 2, 2, 6))  # (2, 1)
    @example((7, 4, 2, 2, 7))  # (2, 2)
    @example((7, 3, 3, 3, 2))  # m = k = n, generic: 342 nonzero c, two blocks of characters
    @example((7, 4, 1, 1, 8))  # generic: n - k = 3
    def test_count_routes_and_transform_match_the_oracles(self, shape):
        q, n, k, m, seed = shape
        spec, V = build_spec(q, n, k, m), random_subspace(n, k, q, seed=seed)
        want = output_distribution(spec, V)
        counter, record = _PointCounts(spec, 10**6), _exhaustive_state(spec).pattern(V.pivots)
        for route, kernel in _count_routes().items():
            with mock.patch.object(batch, "count_route", kernel):
                assert batch.count_route().startswith(route)
                for values in (record.direct, record.substituted):  # a permutation of the grid
                    counts = counter.counts(V.pivots, V.basis_array(),
                                            V.offset_array().reshape(1, -1), values)
                    assert (counts[0] == want.counts).all(), route
        mags = _spectrum(want)
        for enc in np.random.default_rng(seed).integers(1, q**m, size=4).tolist():
            cs = character_sum_subspace(spec, V, decode_output(enc, q, m))
            assert abs(mags[enc - 1] - character_magnitude(cs)) <= 1e-12, enc
        _assert_structural_rows_match_the_oracle(spec, V)


class TestNegationPairs:
    """Every d_j and D_i is odd, so F(-x) = -F(x): the counts of -o + W are
    those of o + W with each output z read at -z."""

    @given(_small_shapes())
    @example((13, 3, 3, 1, 0))  # k = n: one offset, its own partner; (m, n - k) = (1, 0)
    @example((13, 3, 2, 1, 4))  # (1, 1)
    @example((11, 3, 1, 1, 1))  # k = 1; (1, 2)
    @example((7, 3, 1, 1, 5))  # (1, 2)
    @example((5, 2, 2, 2, 3))  # (2, 0)
    @example((7, 3, 2, 2, 2))  # m = k; (2, 1)
    @example((7, 4, 2, 2, 7))  # (2, 2)
    @example((5, 3, 3, 3, 3))  # m = k = n, generic
    @example((7, 4, 1, 1, 8))  # generic: n - k = 3
    def test_partner_rows_are_negated_representatives(self, shape):
        q, n, k, m, seed = shape
        spec, blocks = build_spec(q, n, k, m), pattern_blocks(n, k, q)
        linear = int(np.random.default_rng(seed).integers(sum(b.count for b in blocks)))
        block = next(b for b in blocks if linear < b.start + b.count)
        basis = basis_at(block, linear, linear + 1, q, n)[0]
        state = _exhaustive_state(spec)
        record = state.pattern(block.pattern)
        offsets, partner = record.offsets
        reps, O = analysis._representatives(partner), q ** (n - k)
        assert ((offsets + offsets[partner]) % q == 0).all() and (partner[partner] == np.arange(O)).all()
        assert partner[0] == 0 and len(reps) == (O + 1) // 2  # 0 and one of each pair
        assert sorted([*reps, *partner[reps]]) == [0, *range(O)]
        counter = state.counter
        want = np.array([output_distribution(spec, canonicalize(tuple(o), basis.tolist(), q)).counts
                         for o in offsets.tolist()])
        for route, kernel in _count_routes().items():
            with mock.patch.object(batch, "count_route", kernel):
                assert batch.count_route().startswith(route)
                for values in (record.direct, record.substituted):
                    full = counter.counts(block.pattern, basis, offsets, values)
                    assert (full[partner] == full[:, counter.negenc]).all(), route
                    assert (counter.counts(block.pattern, basis, offsets, values, partner)
                            == full).all(), route
                    assert (full == want).all(), route  # the substitution permutes the grid

    @pytest.mark.parametrize("shape", sorted({args for args, _ in EDGE_SHAPES}))
    def test_partner_rows_copy_their_representative(self, shape):
        # an exhaustive sweep forms sd, char_max and xor once per +- pair of
        # offsets: each partner row's cells are its representative's, bit for bit
        q, n, k, m = shape
        spec, checks = build_spec(q, n, k, m), ("sd", "char_max", "xor")
        res = verify_extractor(spec, ExhaustiveSubspaces(), checks=checks, collect="full")
        cells = {(r.check, r.subspace_id): repr((r.c_encoded, r.quantity, r.bound, r.satisfied,
                                                 r.detail)) for r in res.reports}
        state, O = _exhaustive_state(spec), q ** (n - k)
        pairs = 0
        for block in pattern_blocks(n, k, q):
            _, partner = state.pattern(block.pattern).offsets
            for linear in range(block.start, block.start + block.count):
                for o, p in enumerate(partner.tolist()):
                    pairs += o < p
                    for check in checks:
                        assert cells[check, linear * O + p] == cells[check, linear * O + o]
        assert 2 * pairs == res.processed - res.processed // O  # every row but o = 0 pairs

    @pytest.mark.parametrize("q", (2, 3, 5, 7, 11, 13, 17, 31, 101, 2**31 - 1))
    def test_every_pivot_pattern_has_odd_degrees(self, q):
        # for odd q every d_j is coprime to the even q - 1, so D = lcm of the
        # pivot exponents and each D_i = D / d_j are odd, and t -> t**D_i
        # commutes with negation: the substituted value rows are odd, and
        # change_of_vars may fill partner rows on it.  q = 2 admits only
        # n = 1, so D_i = 1 (while D = d_0 = 2)
        for n in range(1, min(q - 1, 6) + 1):
            for k in range(1, n + 1):
                spec = build_spec(q, n, k, 1)
                state = _exhaustive_state(spec) if q < 10**4 else None
                for pivots in itertools.combinations(range(n), k):
                    D, D_per_pivot = analysis._pivot_degrees(spec, pivots)
                    assert all(Di % 2 for Di in D_per_pivot) and (D % 2 or q == 2), (n, pivots)
                    if state is not None:
                        u = state.pattern(pivots).substituted
                        assert (u[:, -np.arange(q) % q] == -u % q).all(), (n, pivots)


class TestSubstitutionForm:
    def test_holds_on_random_subspaces(self, spec13):
        vs = tuple(random_subspace(3, k, 13, seed=seed) for seed in range(25) for k in (1, 2))
        res = verify_extractor(spec13, ExplicitSubspaces(vs), checks=("substitution_form",),
                               collect="full")
        assert res.violations == {"substitution_form": 0} and res.processed == 50
        for V, rep in zip(vs, res.reports):
            assert rep.satisfied and rep.quantity == 0
            D = math.lcm(*(spec13.d[j] for j in V.pivots))
            assert rep.detail == f"D={D}"

    @pytest.mark.parametrize("fault", [False, True])
    def test_count_matches_a_recount_over_the_full_grid(self, fault, request):
        # the count reads each value row once and weighs a mismatch by the
        # q**(k-1) grid points that share it; here every one of the q**k grid
        # points is recounted, pivot by pivot
        if fault:
            request.getfixturevalue("doubled_degrees")
        for (q, n, k, m), V in EDGE_SHAPES:
            spec = build_spec(q, n, k, m)
            record = _exhaustive_state(spec).pattern(V.pivots)
            D, D_per_pivot = record.degrees
            bad = sum(pow(pow(t, Di, q), spec.d[j], q) != pow(t, D, q)
                      for point in itertools.product(range(q), repeat=V.k)
                      for t, Di, j in zip(point, D_per_pivot, V.pivots))
            for i, (lo, hi) in enumerate(zip(V.pivots, (*V.pivots[1:], n))):
                bad += sum(spec.d[j] * D_per_pivot[i] >= D for j in range(lo + 1, hi))
            assert type(record.substitution_form) is int and record.substitution_form == bad
            assert bool(bad) == (fault and V.k > 0), (q, n, k, m, V.k)

    def test_pivot_identity_by_hand(self, spec13):
        # on the substituted parametrization, pivot coordinate j_i is
        # exactly s_i**D_i, so x_{j_i}**d_{j_i} = s_i**D
        V = random_subspace(3, 2, 13, seed=17)
        par = parametrize(V)
        D = math.lcm(*(spec13.d[j] for j in V.pivots))
        for s in [(2, 5), (12, 7), (0, 3)]:
            u = tuple(
                pow(si, D // spec13.d[j], 13) for si, j in zip(s, V.pivots)
            )
            x = par.evaluate(u)
            for si, j in zip(s, V.pivots):
                assert pow(x[j], spec13.d[j], 13) == pow(si, D, 13)

    def test_full_grid_checked_within_budget(self, doubled_degrees):
        # every one of the q**k = 28561 points is checked: under the fault,
        # pivot i fails exactly where s_i**(2D) != s_i**D, i.e. s_i not in {0, 1},
        # so 4 * 11 * 13**3 mismatches, more than a 10**4-point sample can show
        spec = build_spec(13, 4, 4, 1)
        V = canonicalize((0,) * 4, np.eye(4, dtype=int).tolist(), 13)
        runs = [verify_extractor(spec, ExplicitSubspaces((V,)), checks=("substitution_form",),
                                 budgets=Budgets(points=points), collect="full")
                for points in (13**4, 13**4 - 1)]
        (rep,) = runs[0].reports
        assert (rep.quantity, rep.satisfied) == (4 * 11 * 13**3, False)
        # one point over the budget: the sweep skips V and records why
        (rep,) = runs[1].reports
        assert (runs[1].processed, runs[1].budget_errors) == (0, 1)
        assert (rep.check, rep.quantity, rep.bound) == ("budget_error", 13**4, 13**4 - 1)

    def test_each_block_reads_its_own_basis(self):
        # rows share good's pivot pattern, but their pivot entry is 2 (not RREF),
        # where the checks would read pivot coordinate 2 u_0 as u_0: that form
        # cannot be built, and its canonical form, a second basis of the same
        # pattern, reads its own basis on any worker count
        spec = build_spec(13, 4, 2, 1)
        good = random_subspace(4, 2, 13, seed=1)
        rows = ((2, *good.basis[0][1:]), good.basis[1])
        with pytest.raises(ValueError, match="reduced row echelon form"):
            dataclasses.replace(good, basis=rows)
        same_pattern = canonicalize(good.offset, rows, 13)
        assert same_pattern.pivots == good.pivots and same_pattern.basis != good.basis
        for workers in (1, 2):
            res = verify_extractor(spec, ExplicitSubspaces((good, same_pattern)), workers=workers,
                                   checks=("substitution_form",), collect="full")
            assert [r.quantity for r in res.reports] == [0, 0], workers

    def test_degree_inequality_is_checked(self):
        # build an artificial spec-like failure: if a non-pivot exponent tied
        # the pivot degree the check would flag it; with the real exponent
        # rule the strict inequality holds everywhere, so craft the premise
        # directly instead
        spec = build_spec(13, 3, 2, 1)
        for pivots in [(0, 1), (0, 2), (1, 2)]:
            D = math.lcm(*(spec.d[j] for j in pivots))
            for j in range(3):
                if j in pivots:
                    continue
                i = sum(1 for p in pivots if p < j)
                if i:
                    assert spec.d[j] * (D // spec.d[pivots[i - 1]]) < D


def _scale_degrees(monkeypatch, factor):
    """D_i -> factor * D_i in every pivot pattern."""
    real = analysis._pivot_degrees

    def scaled(spec, pivots):
        D, D_per_pivot = real(spec, pivots)
        return D, [factor * Di for Di in D_per_pivot]

    monkeypatch.setattr(analysis, "_pivot_degrees", scaled)


@pytest.fixture
def doubled_degrees(monkeypatch):
    """D_i -> 2 D_i: s -> s**(2 D_i) is two-to-one on F_q for odd q, so both
    structural checks must fail."""
    _scale_degrees(monkeypatch, 2)


@pytest.fixture
def tripled_degrees(monkeypatch):
    """D_i -> 3 D_i: three-to-one on F_q when 3 divides q - 1, so both
    structural checks must fail; and each D_i stays odd, as every real one
    is, so an exhaustive sweep's +- fill of the substituted counts holds."""
    _scale_degrees(monkeypatch, 3)


class TestStructuralChecksCanFail:
    # expected values come from the per-point evaluate()/parametrize route

    def test_explicit_sweep_reports_the_exact_fault_counts(self, doubled_degrees):
        checks = ("change_of_vars", "substitution_form")
        spec = build_spec(13, 3, 2, 2)
        V = random_subspace(3, 2, 13, seed=4)
        diff, gaps, _, _ = _structural_oracle(spec, V)
        assert gaps[encode_output((1, 1), 13) - 1] == 9
        assert diff[0] == -3 and max(map(abs, diff)) == 3  # z = (0, 0)
        cov, form = verify_extractor(spec, ExplicitSubspaces((V,)), checks=checks).reports
        assert (cov.quantity, cov.c_encoded, cov.satisfied) == (3, 0, False)
        assert (form.quantity, form.detail, form.satisfied) == (286, "D=35", False)
        spec = build_spec(13, 4, 2, 1)
        V = random_subspace(4, 2, 13, seed=4)
        diff, gaps, _, _ = _structural_oracle(spec, V)
        assert gaps[0] == 12  # c = (1,)
        assert abs(diff[12]) == max(map(abs, diff)) == 12  # z = (12,)
        cov, form = verify_extractor(spec, ExplicitSubspaces((V,)), checks=checks).reports
        assert (cov.quantity, cov.c_encoded) == (12, 12)
        assert (form.quantity, form.detail) == (287, "D=385")

    def test_sweep_reports_the_fault(self, doubled_degrees):
        spec = build_spec(13, 3, 2, 2)
        src = SampledSubspaces(60, seed=1)
        res = verify_extractor(spec, src, checks=CHECK_ORDER, collect="full")
        assert res.violations == {
            "xor": 0,
            "zero_coordinate": 0,
            "change_of_vars": 60,
            "substitution_form": 60,
        }
        first = next(l for l in reports_csv_lines(res) if l.startswith("change_of_vars,"))
        assert first == "change_of_vars,0,15,6,0,false"
        for name in ("change_of_vars", "substitution_form"):
            quiet = verify_extractor(spec, src, checks=(name,), collect="none")
            assert quiet.violations == {name: 60} and quiet.processed == 60

    def test_an_even_substitution_is_refused_where_offsets_pair(self, doubled_degrees):
        # s -> s**(2 D_i) is even, so the +- fill of an exhaustive block's
        # substituted counts would be wrong: the sweep stops instead.  A
        # sampled sweep pairs no offsets and counts it (test_sweep_reports_the_fault)
        with pytest.raises(ValueError, match="a value row is not odd"):
            verify_extractor(build_spec(7, 3, 2, 2), ExhaustiveSubspaces(),
                             checks=("change_of_vars",))

    def test_collect_violations_keeps_only_failed_rows(self, tripled_degrees):
        # tripled, not doubled: the exhaustive case pairs offsets, which needs
        # odd D_i (test_an_even_substitution_is_refused_where_offsets_pair)
        cases = [
            (build_spec(13, 3, 2, 2), SampledSubspaces(60, seed=1)),
            (build_spec(7, 3, 2, 2), ExhaustiveSubspaces()),  # many offsets per block
        ]
        for spec, src in cases:
            runs = {
                collect: verify_extractor(spec, src, checks=CHECK_ORDER, collect=collect)
                for collect in ("full", "violations", "none")
            }
            failed = [r for r in runs["full"].reports if r.satisfied is False]
            assert failed
            assert runs["violations"].reports == failed
            assert runs["none"].reports == []
            names = runs["full"].violations
            per_check = {name: sum(r.check == name for r in failed) for name in names}
            for res in runs.values():
                assert res.violations == per_check

    def test_sweep_rows_match_the_point_oracle(self, request):
        for fault in (False, True):
            if fault:
                request.getfixturevalue("doubled_degrees")
            for spec_args, V in EDGE_SHAPES:
                _assert_structural_rows_match_the_oracle(build_spec(*spec_args), V)

    @pytest.mark.parametrize("fault", [False, True])
    def test_exhaustive_rows_match_the_point_oracle(self, fault, request):
        # substitution_form is one value per pivot pattern; every subspace's
        # own parametrization, on each basis and offset, must give that value
        if fault:  # 3 divides q - 1 = 6
            request.getfixturevalue("tripled_degrees")
        spec = build_spec(7, 3, 2, 2)
        res = verify_extractor(spec, ExhaustiveSubspaces(), collect="full",
                               checks=("change_of_vars", "substitution_form"))
        rows, subspaces = list(res.reports), list(enumerate_subspaces(3, 2, 7))
        assert len(rows) == 2 * len(subspaces) == 2 * 399
        for i, V in enumerate(subspaces):
            cov, form = rows[2 * i : 2 * i + 2]
            assert cov.subspace_id == form.subspace_id == i
            _assert_structural_rows_match_the_oracle(spec, V, (cov, form))
        assert res.violations == {"change_of_vars": 399 * fault, "substitution_form": 399 * fault}


class TestZeroCoordinate:
    def test_hand_example(self):
        A = build_matrix(2, 3, 13)
        rep = zero_coordinate_bound(A, (1, 12))
        # b = (1 + 12*r) mod 13 = (0, 12, 11) on seeds 1, 2, 3
        assert rep.quantity == 1
        assert rep.bound == 1
        assert rep.satisfied
        assert rep.c_encoded == encode_output((1, 12), 13)

    def test_exhaustive_small_matrix(self):
        A = build_matrix(2, 6, 13)
        for enc in range(1, 13**2):
            c = decode_output(enc, 13, 2)
            rep = zero_coordinate_bound(A, c)
            # oracle: zeros of the degree-<m polynomial sum_i c_i y**i at seeds
            roots = sum(
                1
                for r in A.seed_points
                if sum(ci * pow(r, i, 13) for i, ci in enumerate(c)) % 13 == 0
            )
            assert rep.quantity == roots
            assert rep.satisfied

    def test_zero_c_rejected(self):
        A = build_matrix(2, 3, 13)
        with pytest.raises(ValueError, match="nonzero"):
            zero_coordinate_bound(A, (0, 0))
        with pytest.raises(ValueError, match="length"):
            zero_coordinate_bound(A, (1,))


class TestDeligne:
    def test_quadratic_gauss_sums_have_magnitude_sqrt_q(self):
        # independent analytic oracle: |sum_x w^(b x^2)| = sqrt(q) exactly
        for q in (5, 13, 17, 29, 101):
            for b in (1, 2):
                rep = deligne_bound_check(DiagonalPolynomial(q, 1, 2, (1,)), b)
                assert rep.quantity == pytest.approx(math.sqrt(q), abs=1e-9)
                assert rep.satisfied

    def test_cubic_example_value(self):
        rep = deligne_bound_check(DiagonalPolynomial(7, 1, 3, (1,)), 1)
        assert rep.quantity == pytest.approx(abs(1 + 6 * math.cos(2 * math.pi / 7)), abs=1e-9)
        assert rep.bound == pytest.approx(2 * math.sqrt(7), abs=1e-12)
        assert rep.satisfied

    def test_linear_sums_vanish(self):
        rep = deligne_bound_check(DiagonalPolynomial(13, 1, 1, (5,)), 3)
        assert rep.quantity == pytest.approx(0.0, abs=1e-9)

    def test_constant_shift_preserves_magnitude(self):
        base = deligne_bound_check(DiagonalPolynomial(13, 1, 2, (1,)), 1)
        shifted = deligne_bound_check(
            DiagonalPolynomial(13, 1, 2, (1,), (((0,), 7),)), 1
        )
        assert shifted.quantity == pytest.approx(base.quantity, abs=1e-9)

    def test_two_variable_sums_factor(self):
        # diagonal sums over independent variables multiply
        one = deligne_bound_check(DiagonalPolynomial(11, 1, 3, (1,)), 1)
        two = deligne_bound_check(DiagonalPolynomial(11, 2, 3, (1, 1)), 1)
        assert two.quantity == pytest.approx(one.quantity**2, rel=1e-9)

    def test_residues_grid_matches_evaluate(self):
        f = DiagonalPolynomial(13, 2, 5, (1, 1), (((1, 1), 1),))
        grid = f.residues_grid()
        idx = 0
        for x in range(13):
            for y in range(13):
                assert int(grid[idx]) == f.evaluate((x, y))
                idx += 1

    def test_battery_is_large_and_all_pass(self):
        battery = deligne_battery()
        assert len(battery) >= 20
        qs = {f.q for f, _ in battery}
        assert len(qs) >= 5
        assert any(f.num_vars == 2 for f, _ in battery)
        for f, b in battery:
            assert deligne_bound_check(f, b).satisfied

    def test_exact_ties_are_recognised(self):
        # |S| == bound exactly: two linear sums (0 against 0) and four Gauss
        # sums; the integer test is one-sided, and a square one off is no tie
        ties = []
        for idx, (f, b) in enumerate(deligne_battery()):
            counts = np.bincount((b * f.residues_grid()) % f.q, minlength=f.q)
            square = (f.degree - 1) ** (2 * f.num_vars) * f.q**f.num_vars
            if analysis._squared_magnitude_is(counts, square):
                ties.append(idx)
            assert not analysis._squared_magnitude_is(counts, square + 1)
            assert not (square and analysis._squared_magnitude_is(counts, square - 1))
            assert deligne_bound_check(f, b, tolerance=0).satisfied
        assert ties == [2, 3, 4, 7, 13, 16]

    def test_tie_test_is_refused_over_its_budget(self):
        # the exact test costs about q**2 and runs only when the float |S| fails
        f, b = deligne_battery()[7]  # |S| = sqrt(17); its float lands just above
        assert deligne_bound_check(f, b, budget=17**2, tolerance=0).satisfied
        with pytest.raises(BudgetExceededError) as exc:
            deligne_bound_check(f, b, budget=17**2 - 1, tolerance=0)
        assert str(exc.value) == "tie test needs q**2 = 289 operations, budget is 288"
        # a large q is refused before the test starts, not run
        big = DiagonalPolynomial(10007, 1, 1, (1,))  # S = 0 = bound; its float is not 0
        with pytest.raises(BudgetExceededError, match=r"^tie test needs q\*\*2 = 100140049 "):
            deligne_bound_check(big, 1, tolerance=0)
        assert deligne_bound_check(big, 1).satisfied  # no tie test at the default tolerance
        assert deligne_bound_check(big, 1, budget=10007**2, tolerance=0).satisfied

    def test_validation(self):
        with pytest.raises(ValueError, match="characteristic"):
            DiagonalPolynomial(7, 1, 14, (1,))
        with pytest.raises(ValueError, match="must be prime"):
            DiagonalPolynomial(8, 1, 3, (1,))
        with pytest.raises(ValueError, match="nonzero"):
            DiagonalPolynomial(7, 1, 3, (0,))
        with pytest.raises(ValueError, match="total degree"):
            DiagonalPolynomial(7, 1, 3, (1,), (((3,), 1),))
        with pytest.raises(ValueError, match="duplicate"):
            DiagonalPolynomial(7, 1, 3, (1,), (((1,), 1), ((1,), 2)))
        with pytest.raises(ValueError, match="b must be"):
            deligne_bound_check(DiagonalPolynomial(7, 1, 3, (1,)), 0)
        with pytest.raises(BudgetExceededError):
            deligne_bound_check(DiagonalPolynomial(101, 2, 3, (1, 1)), 1, budget=100)


class TestNormalizeChecks:
    def test_reorders_to_canonical(self):
        assert normalize_checks(["xor", "sd"]) == ("sd", "xor")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            normalize_checks(["sd", "nope"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no checks"):
            normalize_checks([])


class TestChunkPlan:
    def test_covers_range_exactly(self):
        # at most 192 chunks, and every chunk but the last a whole number of full runs
        for total in (0, 1, 5, 191, 192, 193, 1000, 30783):
            for run_units in (1, 7, 119, 272, 5000):
                plan = _chunk_plan(total, run_units)
                covered = []
                for idx, (i, lo, hi) in enumerate(plan):
                    assert i == idx
                    covered.extend(range(lo, hi))
                assert covered == list(range(total))
                assert len(plan) <= 192
                assert all((hi - lo) % run_units == 0 and hi > lo for _, lo, hi in plan[:-1])

    def test_sweep_plans(self, monkeypatch):
        # (spec, run units, chunks, runs): a run is at most 2**18 count cells of
        # q**(n-k) offsets by q**m outputs, and at most 2**23 points, q**k per offset.
        # At 13/4/k2 the 31110 linear subspaces need chunks of at least 163 to stay
        # within 192 chunks; rounded up to whole runs that is 238 at m = 1 (131 chunks
        # and 267 runs, where chunks of 163 split a run of 119 in each and made 191
        # chunks and 386 runs) and 171 at m = 2 (182 chunks, not 191).  At k = 3 the
        # points bind (2380 units of 13 * 13**3 points; 5220 of 17 * 17**3), so a sweep
        # with a large grid keeps enough chunks for a pool: 9 and 53, not 2 and 6.
        # 31/3/k2/m1 (sweep_m1) and 17/3/k2/m2 keep the plans they had before chunks
        # were rounded to whole runs
        runs = []
        monkeypatch.setattr(analysis._SweepState, "analyze_block",
                            lambda self, bases, *args: runs.append(len(bases)))
        for args, run_units, chunks, n_runs in (
            ((31, 3, 2, 1), 272, 4, 6), ((17, 3, 2, 2), 53, 6, 8), ((7, 3, 2, 1), 5349, 1, 3),
            ((13, 4, 2, 1), 119, 131, 267), ((13, 4, 2, 2), 9, 182, 3462),
            ((13, 4, 3, 1), 293, 9, 12), ((17, 4, 3, 1), 100, 53, 56),
        ):
            state = _exhaustive_state(build_spec(*args))
            q, n, k, _ = args
            total = count_affine_subspaces(n, k, q) // state.per_unit
            plan = _chunk_plan(total, state.run_units)
            assert (state.run_units, len(plan)) == (run_units, chunks), args
            size = run_units * math.ceil(math.ceil(total / 192) / run_units)
            assert plan == [(i, lo, min(lo + size, total))
                            for i, lo in enumerate(range(0, total, size))], args
            runs.clear()
            res = verify_extractor(build_spec(*args), ExhaustiveSubspaces(), checks=("sd",),
                                   collect="none")
            assert (len(runs), res.chunks) == (n_runs, chunks), args


@pytest.fixture(scope="module")
def small_sweep():
    spec = build_spec(5, 3, 2, 1)
    result = verify_extractor(
        spec,
        ExhaustiveSubspaces(),
        checks=("sd", "char_max", "xor", "zero_coordinate"),
        collect="full",
    )
    return spec, result


class TestSweepEngine:
    def test_processes_every_subspace_in_order(self, small_sweep):
        spec, result = small_sweep
        total = count_affine_subspaces(3, 2, 5)
        assert result.total_subspaces == result.processed == total == 155
        sd_rows = [r for r in result.reports if r.check == "sd"]
        assert [r.subspace_id for r in sd_rows] == list(range(total))

    def test_agrees_with_reference_path_everywhere(self, small_sweep):
        spec, result = small_sweep
        rows = {}
        for r in result.reports:
            rows.setdefault(r.subspace_id, {})[r.check] = r
        for sid, V in enumerate(enumerate_subspaces(3, 2, 5)):
            dist = output_distribution(spec, V)
            sd = statistical_distance(dist)
            # the point oracle over every nonzero c; +c and -c always tie, so
            # the row's c need only attain the maximum
            mags = [character_magnitude(character_sum_subspace(spec, V, (c,)))
                    for c in range(1, 5)]
            eps_star = max(mags)
            got = rows[sid]
            assert got["sd"].quantity == float(sd)
            assert abs(got["char_max"].quantity - eps_star) <= 1e-12
            for name in ("char_max", "xor"):
                assert mags[got[name].c_encoded - 1] >= eps_star - 1e-12, (sid, name)
            assert got["xor"].quantity == float(sd)
            assert got["xor"].bound == pytest.approx(eps_star * 5**0.5, abs=1e-9)
            assert got["xor"].satisfied

    def test_char_max_keeps_the_first_of_tied_characters(self):
        # F(0) = 0, so <c, F> = 0 for every c and each of the (7**3 - 1) / 2 =
        # 171 canonical magnitudes is exactly 1.0; c = 1 = (0, 0, 1) is the first
        spec = build_spec(7, 4, 3, 3)
        origin = canonicalize((0, 0, 0, 0), [], 7)
        result = verify_extractor(
            spec, ExplicitSubspaces(subspaces=(origin,)), checks=("char_max",), collect="full"
        )
        (row,) = result.reports
        assert (row.quantity, row.c_encoded) == (1.0, 1)
        assert (result.max_char, result.max_char_c) == (1.0, 1)

    def test_sd_detail_is_exact_fraction(self, small_sweep):
        spec, result = small_sweep
        for r in result.reports:
            if r.check != "sd":
                continue
            num, den = r.detail.removeprefix("exact=").split("/")
            frac = Fraction(int(num), int(den))
            assert r.quantity == float(frac)
        # and the exact values agree with the reference computation
        vs = list(enumerate_subspaces(3, 2, 5))
        sd_rows = [r for r in result.reports if r.check == "sd"]
        for r in sd_rows[:40]:
            num, den = r.detail.removeprefix("exact=").split("/")
            want = statistical_distance(output_distribution(spec, vs[r.subspace_id]))
            assert Fraction(int(num), int(den)) == want

    def test_summary_maxima_match_full_scan(self, small_sweep):
        spec, result = small_sweep
        sds = [
            float(statistical_distance(output_distribution(spec, V)))
            for V in enumerate_subspaces(3, 2, 5)
        ]
        assert result.max_sd == pytest.approx(max(sds), abs=1e-12)
        assert result.max_sd_subspace == int(np.argmax(sds))
        assert float(result.max_sd_exact) == pytest.approx(result.max_sd, abs=1e-12)
        assert result.ok

    def test_zero_coordinate_rows_pivot_restricted(self, small_sweep):
        spec, result = small_sweep
        zc = {r.subspace_id: r for r in result.reports if r.check == "zero_coordinate"}
        digits = [decode_output(e, 5, 1) for e in range(1, 5)]
        for sid, V in enumerate(enumerate_subspaces(3, 2, 5)):
            worst = max(
                sum(
                    1
                    for j in V.pivots
                    if sum(ci * row[j] for ci, row in zip(c, spec.A.rows)) % 5 == 0
                )
                for c in digits
            )
            assert zc[sid].quantity == worst
            assert zc[sid].bound == spec.m - 1

    def test_zero_coordinate_rows_name_the_first_worst_c(self):
        # m = 3: up to m - 1 = 2 zeros of c^T A on the pivots of one subspace
        spec = build_spec(7, 4, 3, 3)
        vs = tuple(random_subspace(4, k, 7, seed=s) for s in range(4) for k in (1, 2, 3))
        res = verify_extractor(spec, ExplicitSubspaces(vs), checks=("zero_coordinate",),
                               collect="full")
        for V, rep in zip(vs, res.reports):
            zeros = [sum(sum(ci * row[j] for ci, row in zip(c, spec.A.rows)) % 7 == 0
                         for j in V.pivots)
                     for c in map(lambda e: decode_output(e, 7, 3), range(1, 7**3))]
            assert (rep.quantity, rep.c_encoded) == (max(zeros), zeros.index(max(zeros)) + 1)
        assert max(r.quantity for r in res.reports) == 2

    def test_explicit_source_and_structure_checks(self, spec13):
        vs = tuple(random_subspace(3, 2, 13, seed=s) for s in range(12))
        result = verify_extractor(
            spec13,
            ExplicitSubspaces(vs),
            checks=("change_of_vars", "substitution_form"),
            collect="full",
        )
        assert result.processed == 12
        assert result.ok
        assert result.violations == {"change_of_vars": 0, "substitution_form": 0}
        for r in result.reports:
            assert r.satisfied and r.quantity == 0 and r.bound == 0
        _assert_structural_rows_match_the_oracle(spec13, vs[0])

    def test_sampled_source_reproducible_and_seed_offsets(self, spec13):
        src = SampledSubspaces(count=15, seed=42)
        r1 = verify_extractor(spec13, src, collect="full")
        r2 = verify_extractor(spec13, src, collect="full")
        assert reports_csv_lines(r1) == reports_csv_lines(r2)
        # draw i must come from seed + i so ranges regenerate independently
        sd_rows = [r for r in r1.reports if r.check == "sd"]
        V7 = random_subspace(3, 2, 13, seed=42 + 7)
        dist = output_distribution(spec13, V7)
        assert sd_rows[7].quantity == float(statistical_distance(dist))

    def test_worker_counts_give_identical_bytes(self, spec13, tmp_path):
        src = SampledSubspaces(count=24, seed=5)
        lines = {}
        for workers in (1, 2):
            res = verify_extractor(spec13, src, workers=workers, collect="full")
            lines[workers] = reports_csv_lines(res) + summary_lines(res)
        assert lines[1] == lines[2]

    def test_exhaustive_multiworker_matches_single(self):
        spec = build_spec(5, 3, 2, 1)
        r1 = verify_extractor(spec, ExhaustiveSubspaces(), workers=1, collect="full")
        r2 = verify_extractor(spec, ExhaustiveSubspaces(), workers=3, collect="full")
        assert reports_csv_lines(r1) == reports_csv_lines(r2)

    def test_runs_split_at_chunk_and_pattern_boundaries(self, monkeypatch):
        spec = build_spec(7, 3, 2, 2)  # 57 linear subspaces: 49, 7 and 1 per pivot pattern

        def lines(workers):
            res = verify_extractor(spec, ExhaustiveSubspaces(), checks=CHECK_ORDER,
                                   workers=workers, collect="full")
            assert reports_csv_lines(res) == _oracle_csv_lines(res), workers
            return reports_csv_lines(res), repr(res.reports)

        whole = lines(1)  # one chunk per linear subspace, so one block per run
        runs = []
        real = analysis._SweepState.analyze_block

        def spy(self, bases, pivots, offsets, ids, partial, partner=None):
            runs.append((int(ids[0]) // 7, len(bases)))
            return real(self, bases, pivots, offsets, ids, partial, partner)

        monkeypatch.setattr(analysis._SweepState, "analyze_block", spy)
        monkeypatch.setattr(analysis, "_CHUNK_TARGET", 10)  # chunks of 6 linear subspaces
        monkeypatch.setattr(analysis, "_RUN_CELLS", 3 * 7 * 49)  # runs of at most 3 blocks
        assert lines(1) == whole
        # a chunk is two full runs, so only a run that a pattern boundary shifted
        # (at 49) is cut by a chunk boundary (at 54)
        assert runs == [(lo, 3) for lo in range(0, 48, 3)] + [(48, 1), (49, 3), (52, 2),
                                                              (54, 2), (56, 1)]
        assert lines(2) == whole

    def test_runs_split_only_at_pattern_boundaries(self, monkeypatch):
        # unpatched, a chunk holds at least one full run, so a run ends only at
        # run_units or at the end of its pivot pattern: 7/3/k2/m2 is one chunk
        # of three runs, 31/3/k2/m1 four chunks of six (run_units = 272)
        runs = []
        real = analysis._SweepState.analyze_block

        def spy(self, bases, pivots, offsets, ids, partial, partner=None):
            runs.append((int(ids[0]) // len(offsets), len(bases)))
            return real(self, bases, pivots, offsets, ids, partial, partner)

        monkeypatch.setattr(analysis._SweepState, "analyze_block", spy)
        res = verify_extractor(build_spec(7, 3, 2, 2), ExhaustiveSubspaces(), checks=CHECK_ORDER,
                               collect="full")
        assert reports_csv_lines(res) == _oracle_csv_lines(res)
        assert runs == [(0, 49), (49, 7), (56, 1)] and (res.runs, res.chunks) == (3, 1)
        runs.clear()
        res = verify_extractor(build_spec(31, 3, 2, 1), ExhaustiveSubspaces(), checks=("sd",),
                               collect="none")
        assert runs == [(0, 272), (272, 272), (544, 272), (816, 145), (961, 31), (992, 1)]
        assert (res.runs, res.chunks, res.processed) == (6, 4, 993 * 31)

    def test_pool_is_capped_at_the_chunk_count(self, spec13, monkeypatch):
        # the pool records the thread count asked for
        asked = []

        class RecordingPool(analysis.ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordingPool)
        src = SampledSubspaces(count=5, seed=3)
        res = verify_extractor(spec13, src, workers=10**6, collect="full")
        assert asked == [5]
        single = verify_extractor(spec13, src, workers=1, collect="full")
        assert asked == [5, 1]
        assert reports_csv_lines(res) == reports_csv_lines(single)

    def test_one_chunk_runs_in_process(self, monkeypatch, tmp_path):
        # exhaustive 13/3/k2/m1 is one chunk: 183 linear subspaces, one run of up to
        # 1551; on any worker count it runs on one thread
        spec = build_spec(13, 3, 2, 1)

        def files(workers, log=None):
            res = verify_extractor(spec, ExhaustiveSubspaces(), workers=workers,
                                   collect="full", log=log)
            assert res.chunks == 1
            write_reports_csv(res, tmp_path / f"report{workers}.csv")
            analysis.write_summary(res, tmp_path / f"summary{workers}.txt")
            return [(tmp_path / f"{name}{workers}.{ext}").read_bytes()
                    for name, ext in (("report", "csv"), ("summary", "txt"))]

        single = files(1)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 8)
        logged = []
        assert files(2, logged.append) == single
        assert logged == ["workers = 2 > chunks = 1; pool capped at 1"]

    def test_worker_fault_names_its_chunk(self, spec13, monkeypatch):
        real = analysis._SweepState.run_range

        def faulty(self, lo, hi):
            if lo == 3:
                raise ValueError("injected fault")
            return real(self, lo, hi)

        # chunk i covers [i, i + 1); one worker runs on the same pool
        monkeypatch.setattr(analysis._SweepState, "run_range", faulty)
        src = SampledSubspaces(count=5, seed=3)
        for workers in (2, 1):
            with pytest.raises(ValueError, match=r"^chunk 3 \[3, 4\): injected fault$"):
                verify_extractor(spec13, src, workers=workers)

    def test_threaded_blas_sweep_is_byte_identical(self):
        # 17/3/k2/m2 is large enough for a threaded BLAS to split its zgemm;
        # each chunk's matmul shapes do not depend on the worker count
        spec = build_spec(17, 3, 2, 2)

        def lines(workers):
            res = verify_extractor(spec, ExhaustiveSubspaces(), checks=("sd", "char_max", "xor"),
                                   workers=workers, collect="full")
            return reports_csv_lines(res)

        one = lines(1)
        for _ in range(3):
            assert lines(2) == one

    def test_fault_cancels_the_chunks_not_started(self, spec13, monkeypatch):
        real = analysis._SweepState.run_range
        ran = []

        def faulty(self, lo, hi):
            ran.append(lo)
            if lo == 0:
                raise ValueError("injected fault")
            time.sleep(0.02)
            return real(self, lo, hi)

        monkeypatch.setattr(analysis._SweepState, "run_range", faulty)
        src = SampledSubspaces(count=100, seed=3)  # 100 chunks of one subspace
        with pytest.raises(ValueError, match=r"^chunk 0 \[0, 1\): injected fault$"):
            verify_extractor(spec13, src, workers=2)
        assert 0 in ran and len(ran) < 20  # the chunks queued behind the fault never ran

    def test_fast_path_and_full_collect_agree_on_summary(self):
        spec = build_spec(5, 3, 2, 1)
        fast = verify_extractor(spec, ExhaustiveSubspaces(), collect="none")
        full = verify_extractor(spec, ExhaustiveSubspaces(), collect="full")
        assert not fast.reports
        for attr in (
            "processed",
            "violations",
            "max_sd",
            "max_sd_exact",
            "max_sd_subspace",
            "max_char",
            "max_char_subspace",
            "max_char_c",
        ):
            assert getattr(fast, attr) == getattr(full, attr), attr

    def test_collect_violations_empty_when_clean(self, spec13):
        res = verify_extractor(
            spec13, SampledSubspaces(count=10, seed=0), collect="violations"
        )
        assert res.reports == []
        assert res.ok

    def test_budget_errors_counted_for_explicit_lists(self):
        spec = build_spec(13, 4, 2, 1)
        big = canonicalize((0,) * 4, np.eye(4, dtype=int).tolist(), 13)  # k = 4
        small = random_subspace(4, 2, 13, seed=1)
        for collect in ("full", "violations", "none"):
            runs = [
                verify_extractor(
                    spec,
                    ExplicitSubspaces((big, small)),
                    checks=("sd",),
                    workers=workers,
                    budgets=Budgets(points=1000, subspaces=10**6),
                    collect=collect,
                )
                for workers in (1, 2)
            ]
            for res in runs:
                assert res.budget_errors == 1, collect
                assert res.processed == 1, collect
                kept = [r for r in res.reports if r.check == "budget_error"]
                if collect == "none":
                    assert kept == []
                else:
                    assert [r.subspace_id for r in kept] == [0], collect
            assert runs[0].reports == runs[1].reports, collect

    def test_upfront_budget_guards(self, spec13):
        with pytest.raises(BudgetExceededError, match="outcome cells"):
            verify_extractor(
                spec13,
                SampledSubspaces(count=5, seed=0),
                budgets=Budgets(points=5, subspaces=10),
            )
        with pytest.raises(BudgetExceededError, match="subspaces"):
            verify_extractor(
                spec13,
                ExhaustiveSubspaces(),
                budgets=Budgets(points=10**6, subspaces=10),
            )
        with pytest.raises(BudgetExceededError, match="sample has"):
            verify_extractor(
                spec13,
                SampledSubspaces(count=100, seed=0),
                budgets=Budgets(points=10**6, subspaces=50),
            )
        with pytest.raises(BudgetExceededError, match="power tables"):
            verify_extractor(
                build_spec(13, 3, 1, 1),
                SampledSubspaces(count=5, seed=0),
                workers=2,
                budgets=Budgets(points=50, subspaces=10),
            )

    def test_phase_table_guard_runs_before_any_block(self, monkeypatch):
        # 97/4/k3/m3 passes every other guard, but one block's phase table
        # would be q**m * 256 = 233,644,288 entries
        def unreachable(*args):
            raise AssertionError("a character block ran")

        monkeypatch.setattr(analysis._Characters, "magnitudes", unreachable)
        spec = build_spec(97, 4, 3, 3)
        for workers in (1, 2):
            with pytest.raises(BudgetExceededError, match="phase table needs 233644288"):
                verify_extractor(spec, SampledSubspaces(1, 0), checks=("char_max",),
                                 workers=workers)
        res = verify_extractor(spec, SampledSubspaces(1, 0), checks=("sd",))
        assert res.processed == 1

    def test_phase_table_guard_boundary(self):
        # 7/3/k2/m2: 49 outputs by 24 canonical characters = 1176 entries
        spec = build_spec(7, 3, 2, 2)
        for checks in (("xor",), ("char_max",)):
            res = verify_extractor(spec, SampledSubspaces(2, 0), checks=checks,
                                   budgets=Budgets(points=1176))
            assert res.processed == 2
            with pytest.raises(BudgetExceededError, match="phase table needs 1176 entries"):
                verify_extractor(spec, SampledSubspaces(2, 0), checks=checks,
                                 budgets=Budgets(points=1175))
        res = verify_extractor(spec, SampledSubspaces(2, 0), checks=("sd", "zero_coordinate"),
                               budgets=Budgets(points=1175))
        assert res.processed == 2

    def test_change_of_vars_sweep_builds_no_character_transform(self, monkeypatch):
        # 7/3/k2/m2 at 1175 points, one below char_max's 49 x 24 = 1176-entry
        # phase table: change_of_vars reads its count rows directly
        states = []
        real = analysis._SweepState.__init__

        def spy(self, *args):
            real(self, *args)
            states.append(self)

        def unreachable(*args):
            raise AssertionError("a character transform was built")

        monkeypatch.setattr(analysis._SweepState, "__init__", spy)
        monkeypatch.setattr(analysis._Characters, "__init__", unreachable)
        spec = build_spec(7, 3, 2, 2)
        for workers in (1, 2):
            res = verify_extractor(spec, SampledSubspaces(2, 0), checks=("change_of_vars",),
                                   workers=workers, budgets=Budgets(points=1175))
            assert res.processed == 2 and res.violations == {"change_of_vars": 0}
        assert len(states) == 2 and all(state.chars is None for state in states)

    def test_sd_only_sweep_builds_no_digits_table(self, monkeypatch):
        # 97/4/k3/m3: the digits of the 912,673 outputs would take 21.9 MB
        states = []
        real = analysis._SweepState.__init__

        def spy(self, *args):
            real(self, *args)
            states.append(self)

        def unreachable(*args):
            raise AssertionError("a character transform was built")

        monkeypatch.setattr(analysis._SweepState, "__init__", spy)
        monkeypatch.setattr(analysis._Characters, "__init__", unreachable)
        res = verify_extractor(build_spec(97, 4, 3, 3), SampledSubspaces(1, 0), checks=("sd",))
        assert res.processed == 1 and len(states) == 1
        assert states[0].chars is None and not hasattr(states[0], "zero_table")

    def test_pattern_records_build_only_what_the_checks_read(self, monkeypatch):
        # exhaustive 7/3/k2: 3 pivot patterns, each with one record per
        # process, built part by part as the selected checks read it
        states, calls = [], {"offsets_for_pattern": 0, "_pivot_degrees": 0}
        real_init = analysis._SweepState.__init__

        def spy_init(self, *args):
            real_init(self, *args)
            states.append(self)

        monkeypatch.setattr(analysis._SweepState, "__init__", spy_init)
        for name in calls:
            def spy(*args, real=getattr(analysis, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(analysis, name, spy)
        spec = build_spec(7, 3, 2, 2)
        every = {"offsets", "zero_coordinate", "direct", "degrees", "substituted",
                 "substitution_form"}
        drawn = sorted({random_subspace(3, 2, 7, seed=i).pivots for i in range(40)})
        cases = [  # the parts built, then the calls: offsets per pattern, degrees per pattern
            (ExhaustiveSubspaces(), analysis.DEFAULT_CHECKS,
             {"offsets", "zero_coordinate", "direct"}, 3, 0),
            (ExhaustiveSubspaces(), ("sd",), {"offsets", "direct"}, 3, 0),
            (ExhaustiveSubspaces(), CHECK_ORDER, every, 3, 3),
            (SampledSubspaces(40, 0), CHECK_ORDER, every - {"offsets"}, 0, len(drawn)),
        ]
        for source, checks, built, offsets_calls, degree_calls in cases:
            states.clear()
            calls.update(dict.fromkeys(calls, 0))
            assert verify_extractor(spec, source, checks=checks).processed in (399, 40)
            (state,) = states
            want = drawn if isinstance(source, SampledSubspaces) else [(0, 1), (0, 2), (1, 2)]
            assert sorted(state.patterns) == want
            for record in state.patterns.values():
                assert set(vars(record)) - {"state", "pivots"} == built, (source, checks)
            assert calls == {"offsets_for_pattern": offsets_calls, "_pivot_degrees": degree_calls}

    def test_tolerance_must_be_finite_and_nonnegative(self, spec13, monkeypatch):
        src, f = SampledSubspaces(3, 0), DiagonalPolynomial(7, 1, 3, (1,))
        assert verify_extractor(spec13, src, checks=CHECK_ORDER, tolerance=0.0).ok  # 0 is legal
        assert deligne_bound_check(f, 1, tolerance=0).satisfied

        def unreachable(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(analysis._SweepState, "__init__", unreachable)
        monkeypatch.setattr(DiagonalPolynomial, "residues_grid", unreachable)
        for bad in (float("nan"), float("inf"), -float("inf"), -1e-9):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                verify_extractor(spec13, src, tolerance=bad)
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                deligne_bound_check(f, 1, tolerance=bad)

    def test_zero_coordinate_only_sweep_is_not_refused(self):
        # it reads the digits table but no phase table
        res = verify_extractor(build_spec(97, 4, 3, 3), SampledSubspaces(1, 0),
                               checks=("zero_coordinate",))
        assert res.processed == 1 and res.violations == {"zero_coordinate": 0}

    def test_zero_coordinate_table_guard_boundary(self, monkeypatch):
        # 7/3/k2/m2: 48 nonzero c by 3 coordinates = 144 entries, checked
        # before any block
        spec = build_spec(7, 3, 2, 2)
        res = verify_extractor(spec, SampledSubspaces(2, 0), checks=("zero_coordinate",),
                               budgets=Budgets(points=144))
        assert res.processed == 2

        def unreachable(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(analysis._SweepState, "analyze_block", unreachable)
        for workers in (1, 2):
            with pytest.raises(BudgetExceededError,
                               match="zero-coordinate table needs 144 entries, budget is 143"):
                verify_extractor(spec, SampledSubspaces(2, 0), checks=("zero_coordinate",),
                                 workers=workers, budgets=Budgets(points=143))

    def test_argument_validation(self, spec13):
        with pytest.raises(ValueError, match="workers"):
            verify_extractor(spec13, SampledSubspaces(count=5, seed=0), workers=0)
        with pytest.raises(ValueError, match="collect"):
            verify_extractor(
                spec13, SampledSubspaces(count=5, seed=0), collect="everything"
            )
        with pytest.raises(ValueError, match="no subspaces"):
            verify_extractor(spec13, ExplicitSubspaces(()))
        with pytest.raises(TypeError):
            verify_extractor(spec13, source=object())
        with pytest.raises(ValueError, match="count must be positive"):
            verify_extractor(spec13, SampledSubspaces(count=0, seed=0))

    def test_zero_dimensional_subspace_in_explicit_list(self, spec13):
        point = canonicalize((3, 7, 11), [], 13)
        res = verify_extractor(
            spec13, ExplicitSubspaces((point,)), checks=("sd",), collect="full"
        )
        [row] = res.reports
        # one point: distribution is a point mass, sd = 1 - 1/q
        assert row.quantity == pytest.approx(1 - 1 / 13, abs=1e-12)


class TestReportFormatting:
    def test_csv_shape_and_footer(self, spec13, tmp_path):
        res = verify_extractor(
            spec13, SampledSubspaces(count=4, seed=9), collect="full"
        )
        lines = reports_csv_lines(res)
        assert lines[0] == "check_name,subspace_id,c_encoded,quantity,bound,satisfied"
        body = [l for l in lines[1:] if not l.startswith("#")]
        assert len(body) == 4 * len(res.checks)
        for line in body:
            assert len(line.split(",")) == 6
        footer = [l for l in lines if l.startswith("# ")]
        assert f"# processed = {res.processed}" in footer
        assert any(l.startswith("# max_sd = ") for l in footer)

    def test_cell_formatting_types(self):
        res_line = reports_csv_lines(
            _result_with_row(
                BoundReport(
                    check="xor",
                    quantity=0.25,
                    bound=0.5,
                    satisfied=True,
                    subspace_id=3,
                    c_encoded=None,
                )
            )
        )[1]
        assert res_line == "xor,3,,0.25,0.5,true"

    def test_false_is_lowercase(self):
        line = reports_csv_lines(
            _result_with_row(
                BoundReport(
                    check="xor", quantity=1.0, bound=0.0, satisfied=False, subspace_id=0
                )
            )
        )[1]
        assert line.endswith(",false")

    def test_file_writers_round_trip_bytes(self, spec13, tmp_path):
        res = verify_extractor(
            spec13, SampledSubspaces(count=3, seed=1), collect="full"
        )
        csv_path = tmp_path / "r.csv"
        sum_path = tmp_path / "s.txt"
        write_reports_csv(res, csv_path)
        write_summary(res, sum_path)
        assert csv_path.read_text(encoding="ascii").splitlines() == reports_csv_lines(res)
        assert sum_path.read_text(encoding="ascii").splitlines() == summary_lines(res)

    def test_summary_reports_violation_counts_per_check(self, spec13):
        res = verify_extractor(spec13, SampledSubspaces(count=3, seed=1))
        text = "\n".join(summary_lines(res))
        assert "violations_xor = 0" in text
        assert "violations_zero_coordinate = 0" in text
        assert "tolerance = 1e-06" in text


def _oracle_cell(v) -> str:
    """One CSV cell by the per-value rule the column-wise writer must match."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _oracle_csv_lines(result) -> list[str]:
    """The CSV lines written one BoundReport row at a time: the oracle for
    reports_csv_lines, which formats whole columns."""
    lines = [",".join(analysis.REPORT_COLUMNS)]
    for r in result.reports:
        cells = (r.subspace_id, r.c_encoded, r.quantity, r.bound, r.satisfied)
        lines.append(",".join((r.check, *map(_oracle_cell, cells))))
    return lines + [f"# {line}" for line in summary_lines(result)]


class TestColumnWriter:
    """The report writer on batch.report_route(): C, when it loads."""

    @pytest.mark.parametrize("fault", [False, True])
    def test_edge_shapes_match_the_row_oracle(self, fault, request):
        if fault:  # failed structural rows, with c_encoded set on change_of_vars
            request.getfixturevalue("doubled_degrees")
        cov_c = set()
        for spec_args, V in EDGE_SHAPES:
            spec = build_spec(*spec_args)
            for source in (ExplicitSubspaces((V,)), SampledSubspaces(count=6, seed=2)):
                for collect in ("full", "violations", "none"):
                    res = verify_extractor(spec, source, checks=CHECK_ORDER, collect=collect)
                    lines = reports_csv_lines(res)
                    assert lines == _oracle_csv_lines(res), (spec_args, source, collect)
                    assert len(res.reports) == len(list(res.reports)) == len(lines) - 1 - len(
                        summary_lines(res)
                    )
                    cov_c |= {l.split(",")[2] == "" for l in lines if l.startswith("change_of_vars,")}
        # change_of_vars rows with an empty c_encoded, and (under the fault) a set one
        assert cov_c == ({True, False} if fault else {True})

    def test_budget_errors_between_analysed_rows(self):
        # the draws of SampledSubspaces(4, seed=7), with oversized subspaces
        # between them: a sampled source itself cannot exceed the point budget
        # (verify_extractor rejects q**k above it before the sweep)
        spec = build_spec(13, 4, 2, 1)
        big = canonicalize((0,) * 4, np.eye(4, dtype=int).tolist(), 13)
        draws = [random_subspace(4, 2, 13, seed=7 + i) for i in range(4)]
        source = ExplicitSubspaces((draws[0], big, draws[1], draws[2], big, draws[3]))
        for collect in ("full", "violations", "none"):
            for workers in (1, 2):
                res = verify_extractor(
                    spec, source, checks=CHECK_ORDER, workers=workers,
                    budgets=Budgets(points=1000), collect=collect,
                )
                lines = reports_csv_lines(res)
                assert lines == _oracle_csv_lines(res), (collect, workers)
                skipped = [l.split(",")[1] for l in lines if l.startswith("budget_error,")]
                assert skipped == ([] if collect == "none" else ["1", "4"])
                if collect == "full":
                    ids = [int(l.split(",")[1]) for l in lines[1:] if not l.startswith("#")]
                    assert ids == sorted(ids) and len(ids) == 4 * len(CHECK_ORDER) + 2

    def test_explicit_source_with_mixed_dimensions(self):
        spec = build_spec(7, 4, 2, 2)
        subspaces = (
            canonicalize((1, 2, 3, 4), [], 7),
            random_subspace(4, 3, 7, seed=1),
            random_subspace(4, 1, 7, seed=2),
            canonicalize((0,) * 4, np.eye(4, dtype=int).tolist(), 7),
            random_subspace(4, 2, 7, seed=3),
        )
        for collect in ("full", "violations", "none"):
            res = verify_extractor(
                spec, ExplicitSubspaces(subspaces), checks=CHECK_ORDER, collect=collect
            )
            assert reports_csv_lines(res) == _oracle_csv_lines(res), collect

    def test_bounds_battery_file(self, tmp_path, monkeypatch, capsys):
        written = []
        real = analysis.write_reports_csv

        def spy(result, path):
            written.append(result)
            real(result, path)

        monkeypatch.setattr(analysis, "write_reports_csv", spy)
        assert cli.main(["bounds", "--report-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (result,) = written
        text = (tmp_path / "deligne_battery.csv").read_text(encoding="ascii")
        assert text.splitlines() == _oracle_csv_lines(result)
        assert len(result.reports) == len(deligne_battery())

    def test_appended_rows_keep_their_types(self):
        res = _result_with_row(BoundReport("xor", 1, 2.5, True, subspace_id=0))
        res.reports.append(BoundReport("xor", 0.5, 2, 0, subspace_id=1))  # no None, no objects
        assert reports_csv_lines(res)[1:3] == ["xor,0,,1,2.5,true", "xor,1,,0.5,2,0"]
        for r in (
            BoundReport("xor", True, None, None, subspace_id=None, c_encoded=2**70),
            BoundReport("xor", Fraction(1, 3), 0, True, subspace_id=3, detail="d"),
        ):
            res.reports.append(r)
        assert reports_csv_lines(res) == _oracle_csv_lines(res)
        assert [type(r.quantity) for r in res.reports] == [int, float, bool, Fraction]
        assert [type(r.satisfied) for r in res.reports] == [bool, int, type(None), bool]

    def test_reports_are_built_on_first_use(self, spec13):
        res = verify_extractor(spec13, SampledSubspaces(count=5, seed=4), collect="full")
        lines = reports_csv_lines(res)
        assert len(res.reports) == 5 * len(res.checks) == len(lines) - 1 - len(summary_lines(res))
        assert res.reports._rows is None  # neither the writer nor len() built rows
        rows = list(res.reports)
        assert res.reports == rows and rows == res.reports
        assert repr(res.reports) == repr(rows)
        assert [r.subspace_id for r in rows] == [i for i in range(5) for _ in res.checks]
        for r in rows[:: len(res.checks)]:  # the sd rows: exact=a/b in lowest terms
            num, den = map(int, r.detail.removeprefix("exact=").split("/"))
            assert math.gcd(num, den) == 1 and r.quantity == num / den
        extra = BoundReport("xor", 0.5, 1.0, True, subspace_id=99, c_encoded=None)
        res.reports.append(extra)
        assert res.reports == rows + [extra] and len(res.reports) == len(rows) + 1
        assert reports_csv_lines(res)[len(rows) + 1] == "xor,99,,0.5,1.0,true"

    def test_edge_cells_match_the_row_oracle_as_bytes(self, tmp_path):
        ints = (0, -1, 2**63 - 1, -(2**63))
        floats = (-0.0, math.nan, math.inf, -math.inf, 1e-05, 1e16, 5e-324)
        mixed = (1, 2.5, None, True, Fraction(1, 3), 2**70, "s")
        res = _result_with_row(BoundReport("xor", 0.5, 1.0, True, subspace_id=0))
        rows = [BoundReport("ints", v, v, v < 0, subspace_id=i, c_encoded=v)
                for i, v in enumerate(ints)]
        rows += [BoundReport("floats", v, -v, None, subspace_id=i) for i, v in enumerate(floats)]
        rows += [BoundReport("mixed", v, None, v, subspace_id=None, c_encoded=v) for v in mixed]
        rows += [BoundReport("budget_error", 169, 100, None, subspace_id=7)]  # a skipped subspace
        for r in rows:
            res.reports.append(r)
        # the C writer formats ints; bools, None and every other cell come from a table
        cells = functools.partial(analysis._csv_cells, unique=batch._unique_numpy)
        kinds = {name: [batch._c_cell(c, cells, [])[0][0] for c in cols]
                 for name, cols in res.reports._columns(False, lambda c: c)[1]}
        INT, TABLE = batch._CELL_INT, batch._CELL_TABLE
        assert kinds["ints"] == [INT, INT, INT, INT, TABLE]  # id, c, quantity, bound, satisfied
        assert kinds["floats"] == [INT, TABLE, TABLE, TABLE, TABLE]
        assert kinds["mixed"] == [TABLE, TABLE, TABLE, TABLE, TABLE]
        _assert_written_like_the_oracle(res, tmp_path / "edges.csv")
        lines = reports_csv_lines(res)
        assert "ints,3,-9223372036854775808,-9223372036854775808,-9223372036854775808,true" in lines
        assert "floats,0,,-0.0,0.0," in lines and "floats,6,,5e-324,-5e-324," in lines

    def test_zero_rows(self, spec13, tmp_path):
        empty = verify_extractor(spec13, SampledSubspaces(count=3, seed=1), collect="none")
        assert len(empty.reports) == 0
        _assert_written_like_the_oracle(empty, tmp_path / "empty.csv")
        _assert_written_like_the_oracle(
            dataclasses.replace(empty, reports=analysis._Reports()), tmp_path / "none.csv")

    def test_a_report_longer_than_the_buffer(self, monkeypatch, tmp_path):
        build = batch.c_build()
        fills, caps = [], set()

        def spy(*args):  # one fill of the buffer, never past its cap
            fills.append(build.write_fn(*args))
            caps.add(args[5])  # cap, after desc, seq, nseq, at and buf
            assert 0 <= fills[-1] <= args[5]
            return fills[-1]

        spied = dataclasses.replace(build, write_fn=spy)
        monkeypatch.setattr(batch, "c_build", lambda: spied)
        for workers in (1, 2):
            res = verify_extractor(build_spec(13, 3, 2, 1), ExhaustiveSubspaces(),
                                   checks=CHECK_ORDER, workers=workers, collect="full")
            rows = _oracle_csv_lines(res)[1 : len(res.reports) + 1]
            on_c = batch.report_route() == "c"
            for buffer in (1, 4096):  # the widest line, or 4096 bytes, per fill
                monkeypatch.setattr(batch, "_REPORT_BUFFER", buffer)
                fills.clear()
                caps.clear()
                _assert_written_like_the_oracle(res, tmp_path / f"r{workers}.csv")
                if on_c:  # the file, then memory: every row in many fills
                    assert sum(fills) == 2 * sum(len(r) + 1 for r in rows) > 8 * max(caps)
                    assert fills.count(0) == 2 and len(caps) == 1  # the buffer fits every line
                    assert max(buffer, 1 + max(map(len, rows))) <= max(caps) <= max(buffer, 128)
                else:  # the python writer: whole lines, in pieces no longer than the buffer
                    pieces = []

                    class Spy(io.BytesIO):
                        def write(self, b):
                            pieces.append(len(b))
                            return super().write(b)

                    analysis._write_reports(res, Spy())
                    body = pieces[1:-1]  # between the header and the summary
                    assert sum(body) == sum(len(r) + 1 for r in rows) > 8 * max(body)
                    assert max(body) <= max(buffer, 1 + max(map(len, rows)))
                    assert buffer > 1 or len(body) == len(rows)  # a line per piece


class TestColumnWriterPythonRoute(TestColumnWriter):
    """Every TestColumnWriter test again on the python writer, the route
    write_reports_csv takes when the C kernels do not load."""

    @pytest.fixture(autouse=True)
    def _writer(self, monkeypatch):
        monkeypatch.setattr(batch, "report_route", lambda: "python (forced)")


def _assert_written_like_the_oracle(res, path):
    """The bytes of write_reports_csv, and reports_csv_lines, against the row oracle."""
    want = _oracle_csv_lines(res)
    write_reports_csv(res, path)
    assert path.read_bytes() == "".join(f"{line}\n" for line in want).encode("ascii")
    assert reports_csv_lines(res) == want


def _result_with_row(report):
    from affext.analysis import SweepResult

    res = SweepResult(
        spec_q=13,
        spec_n=3,
        spec_k=2,
        spec_m=1,
        source="explicit:1",
        checks=("xor",),
        collect="full",
        tolerance=1e-6,
        total_subspaces=1,
        processed=1,
    )
    res.reports.append(report)
    if report.satisfied is False:
        res.violations["xor"] = 1
    return res


def _sweep(spec, source, checks=("sd",), **budgets):
    return verify_extractor(spec, source, checks=checks, budgets=Budgets(**budgets))


def _count_one_plane(spec, budget, every_offset=False):
    """counts() of one plane on the identity value rows; with every_offset,
    of all its parallel planes, as the line loop counts them."""
    V, q = random_subspace(spec.n, 2, spec.modulus, seed=0), spec.modulus
    offsets = (offsets_for_pattern(V.pivots, spec.n, q) if every_offset
               else V.offset_array()[None])
    return _PointCounts(spec, budget).counts(V.pivots, V.basis_array(), offsets, _identity(q, 2))


# Each budget guard: what it counts for its inputs, a run at a given budget,
# and the message it raises one below.  A budget equal to the need runs.
_BUDGET_GUARDS = {
    "outcome_cells_of_one_subspace": (
        13, lambda b: output_distribution(build_spec(13, 3, 2, 1),
                                          random_subspace(3, 1, 13, seed=0), budget=b),
        "q**m = 13 outcome cells"),
    "outcome_cells_of_a_sweep": (
        169, lambda b: _sweep(build_spec(13, 3, 2, 2), SampledSubspaces(2, 0), points=b),
        "q**m = 169 outcome cells"),
    "character_phase_table": (
        169 * 84, lambda b: analysis._Characters(13, 2, b),
        "character phase table needs 14196 entries"),
    "character_tile": (
        13 * 13, lambda b: analysis._Characters(13, 1, b).magnitudes(
            np.zeros((1, 13, 13), dtype=np.int64), 169),
        "character tile needs 169 entries"),
    "power_tables": (
        3 * 25, lambda b: _PointCounts(build_spec(13, 3, 2, 1), b),
        "power tables need 75 entries"),
    "power_tables_per_output": (
        2 * 3 * 25, lambda b: _PointCounts(build_spec(13, 3, 2, 2), b),
        "power tables need 150 entries"),
    "count_work_rows": (
        169, lambda b: _count_one_plane(build_spec(13, 3, 2, 1), b),
        "count work needs 169 rows of 2 entries"),
    "line_tables": (
        2 * 13 * 13, lambda b: _count_one_plane(build_spec(13, 3, 2, 1), b, every_offset=True),
        "line tables need 338 entries"),
    "deligne_grid": (
        13, lambda b: deligne_bound_check(DiagonalPolynomial(13, 1, 2, (1,)), 1, budget=b),
        "grid has 13 points"),
    "zero_coordinate_table": (
        48 * 3, lambda b: _sweep(build_spec(7, 3, 2, 2), SampledSubspaces(2, 0),
                                 checks=("zero_coordinate",), points=b),
        "zero-coordinate table needs 144 entries"),
    "sweep_subspaces": (
        10, lambda b: _sweep(build_spec(13, 3, 2, 1), SampledSubspaces(10, 0), subspaces=b),
        "sample has 10 subspaces"),
    "sweep_subspace_points": (
        169, lambda b: _sweep(build_spec(13, 3, 2, 1), SampledSubspaces(2, 0), points=b),
        "each subspace has 169 points"),
    "enumerate_points": (
        169, lambda b: list(enumerate_points(random_subspace(3, 2, 13, seed=0), b)),
        "subspace has 169 points"),
    "enumerate_subspaces": (
        31 * 25, lambda b: list(enumerate_subspaces(3, 1, 5, b)),
        "enumeration would visit 775 subspaces"),
    "verify_mds": (
        10 * 2**3, lambda b: verify_mds(build_matrix(2, 5, 13), b),
        "MDS check needs about 80 operations"),
}


@pytest.mark.parametrize("name", sorted(_BUDGET_GUARDS))
def test_budget_guard_runs_at_its_limit_and_refuses_one_over(name):
    needed, run_at, what = _BUDGET_GUARDS[name]
    run_at(needed)
    with pytest.raises(BudgetExceededError) as exc:
        run_at(needed - 1)
    assert str(exc.value) == f"{what}, budget is {needed - 1}"
