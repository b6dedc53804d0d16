"""Unit tests for canonical affine subspaces and their enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affext.config import BudgetExceededError
from affext.subspace import (
    AffineSubspace,
    basis_at,
    canonicalize,
    count_affine_subspaces,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    load_subspaces,
    offsets_for_pattern,
    parametrize,
    pattern_blocks,
    pattern_free_cells,
    pivot_patterns,
    random_subspace,
    save_subspaces,
    subspace_to_text,
    subspaces_from_text,
)


def point_set(V):
    return frozenset(enumerate_points(V))


def subspace_inputs(q, n, kmax):
    """Strategy for (offset, spanning vectors) over F_q^n."""
    vec = st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=n, max_size=n
    )
    return st.tuples(vec, st.lists(vec, min_size=0, max_size=kmax))


class TestCanonicalize:
    def test_hand_example(self):
        # span{(1,1,0), (0,1,1)} + (1,2,3) over F_5
        V = canonicalize((1, 2, 3), [(1, 1, 0), (0, 1, 1)], 5)
        assert V.k == 2
        assert V.pivots == (0, 1)
        assert V.basis == ((1, 0, 4), (0, 1, 1))
        # offset is zeroed at both pivots
        assert V.offset[0] == 0 and V.offset[1] == 0
        assert V.offset == (0, 0, 2)

    def test_rref_invariants(self):
        V = canonicalize((4, 1, 0, 3), [(2, 3, 1, 0), (1, 1, 4, 2), (3, 4, 0, 2)], 5)
        for i, piv in enumerate(V.pivots):
            assert V.basis[i][piv] == 1
            for r in range(V.k):
                if r != i:
                    assert V.basis[r][piv] == 0
            assert all(V.basis[i][j] == 0 for j in range(piv))
            assert V.offset[piv] == 0
        assert list(V.pivots) == sorted(V.pivots)

    def test_dependent_vectors_collapse(self):
        V = canonicalize((0, 0), [(1, 2), (2, 4), (3, 6)], 5)
        assert V.k == 1

    def test_zero_dimension_allowed(self):
        V = canonicalize((7, 3), [], 13)
        assert V.k == 0
        assert V.offset == (7, 3)
        assert point_set(V) == {(7, 3)}

    def test_idempotent(self):
        V = canonicalize((1, 2, 3), [(4, 1, 2), (2, 2, 2)], 5)
        W = canonicalize(V.offset, V.basis, V.q)
        assert W == V

    @given(subspace_inputs(5, 3, 3))
    def test_canonical_form_is_representation_independent(self, data):
        offset, spanning = data
        V = canonicalize(offset, spanning, 5)
        # shifting the offset by a span element and row-mixing the spanning
        # set must not change the canonical object
        if V.k:
            shifted = [(o + 2 * b) % 5 for o, b in zip(offset, V.basis[0])]
            mixed = list(spanning) + [
                tuple((3 * a + b) % 5 for a, b in zip(spanning[0], spanning[-1]))
            ]
        else:
            shifted = offset
            mixed = list(spanning) + [tuple([0] * len(offset))]
        W = canonicalize(shifted, mixed, 5)
        assert W == V
        assert point_set(W) == point_set(V)

    @given(subspace_inputs(3, 4, 2))
    def test_same_point_set_as_naive_closure(self, data):
        offset, spanning = data
        V = canonicalize(offset, spanning, 3)
        naive = {
            tuple(
                (o + sum(c * v for c, v in zip(coeffs, col))) % 3
                for o, *col in zip(offset, *spanning)
            )
            for coeffs in itertools.product(range(3), repeat=len(spanning))
        } if spanning else {tuple(o % 3 for o in offset)}
        assert point_set(V) == naive

    def test_membership(self):
        V = canonicalize((1, 2, 3), [(1, 1, 0), (0, 1, 1)], 5)
        pts = point_set(V)
        for p in itertools.product(range(5), repeat=3):
            assert V.contains(p) == (p in pts)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            canonicalize((1, 2), [(1, 2, 3)], 5)
        with pytest.raises(ValueError):
            AffineSubspace(q=5, n=2, k=1, offset=(0, 0), basis=(), pivots=(0,))

    def test_only_the_canonical_form_is_accepted(self):
        # the line 2 + span((1, 0, 3)) in F_5^3, then one fault per rule
        good = dict(q=5, n=3, k=1, offset=(0, 2, 0), basis=((1, 0, 3),), pivots=(0,))
        assert AffineSubspace(**good) == canonicalize((0, 2, 0), [(1, 0, 3)], 5)
        for fault, match in [
            (dict(offset=(0, 7, 0)), "residues"),
            (dict(basis=((1, 0, -2),)), "residues"),
            (dict(pivots=(3,)), "increasing columns"),
            (dict(basis=((1, 1, 3),), pivots=(1,), offset=(2, 0, 0)), "echelon"),
            (dict(basis=((2, 0, 1),)), "echelon"),
            (dict(offset=(1, 2, 0)), "zero on every pivot"),
        ]:
            with pytest.raises(ValueError, match=match):
                AffineSubspace(**{**good, **fault})
        plane = dict(q=5, n=3, k=2, offset=(0, 0, 4), basis=((1, 0, 2), (0, 1, 3)))
        assert AffineSubspace(**plane, pivots=(0, 1)).pivots == (0, 1)
        with pytest.raises(ValueError, match="increasing columns"):
            AffineSubspace(**plane, pivots=(1, 0))
        with pytest.raises(ValueError, match="echelon"):  # a nonzero above the second pivot
            AffineSubspace(**{**plane, "basis": ((1, 4, 2), (0, 1, 3))}, pivots=(0, 1))


class TestParametrize:
    def test_pivot_coordinates_are_parameters(self):
        V = random_subspace(5, 3, 13, seed=2)
        P = parametrize(V)
        for t in itertools.product(range(13), repeat=3):
            pt = P.evaluate(t)
            for i, piv in enumerate(P.pivots):
                assert pt[piv] == t[i]

    def test_triangular_dependence(self):
        # coordinates before pivot j_{i+1} use only parameters t_1..t_i
        V = random_subspace(6, 3, 7, seed=5)
        P = parametrize(V)
        for j in range(V.n):
            later = [i for i in range(V.k) if V.pivots[i] > j]
            for i in later:
                assert P.coeffs[j][i] == 0

    def test_image_equals_point_enumeration(self):
        V = random_subspace(4, 2, 5, seed=9)
        P = parametrize(V)
        image = {P.evaluate(t) for t in itertools.product(range(5), repeat=2)}
        assert image == point_set(V)

    def test_parameter_length_check(self):
        P = parametrize(random_subspace(3, 2, 5, seed=0))
        with pytest.raises(ValueError):
            P.evaluate((1,))


class TestEnumeratePoints:
    def test_count_and_distinctness(self):
        V = random_subspace(4, 2, 7, seed=1)
        pts = list(enumerate_points(V))
        assert len(pts) == V.q**V.k == 49
        assert len(set(pts)) == 49
        assert all(V.contains(p) for p in pts)

    def test_lexicographic_parameter_order(self):
        V = random_subspace(3, 2, 5, seed=4)
        P = parametrize(V)
        expected = [P.evaluate(t) for t in itertools.product(range(5), repeat=2)]
        assert list(enumerate_points(V)) == expected

    def test_budget(self):
        V = random_subspace(6, 6, 13, seed=0)
        with pytest.raises(BudgetExceededError):
            list(enumerate_points(V, budget=10**5))


class TestCounting:
    def test_gaussian_binomial_known_values(self):
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 5) == 31
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(3, 0, 7) == 1
        assert gaussian_binomial(3, 3, 7) == 1
        assert gaussian_binomial(3, 4, 7) == 0

    def test_gaussian_binomial_symmetry(self):
        for n in range(1, 6):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)

    def test_affine_counts(self):
        assert count_affine_subspaces(2, 1, 3) == 4 * 3 == 12
        assert count_affine_subspaces(3, 2, 5) == 31 * 5 == 155
        assert count_affine_subspaces(3, 1, 7) == 57 * 49 == 2793


class TestEnumerateSubspaces:
    @pytest.mark.parametrize("n,k,q", [(2, 1, 3), (3, 2, 5), (3, 1, 5), (3, 0, 3), (3, 3, 3)])
    def test_complete_and_duplicate_free(self, n, k, q):
        seen = set()
        for V in enumerate_subspaces(n, k, q):
            key = (V.offset, V.basis)
            assert key not in seen
            seen.add(key)
            assert canonicalize(V.offset, V.basis, q) == V
        assert len(seen) == count_affine_subspaces(n, k, q)

    def test_point_sets_cover_all_flats(self):
        # F_3^2 has 12 affine lines; their point sets are pairwise distinct
        # and every pair of distinct points lies on exactly one of them
        lines = [point_set(V) for V in enumerate_subspaces(2, 1, 3)]
        assert len(set(lines)) == 12
        for p, r in itertools.combinations(itertools.product(range(3), repeat=2), 2):
            assert sum(1 for L in lines if p in L and r in L) == 1

    def test_order_is_pattern_then_basis_then_offset(self):
        subs = list(enumerate_subspaces(3, 1, 3))
        # first pattern (0,): basis (1,b,c) with (b,c) counting in base 3,
        # offsets (0,y,z) lexicographic
        assert subs[0].basis == ((1, 0, 0),) and subs[0].offset == (0, 0, 0)
        assert subs[1].offset == (0, 0, 1)
        assert subs[9].basis == ((1, 0, 1),)
        # last block has pivot column 2 and no free basis cells
        assert subs[-1].pivots == (2,)
        assert subs[-1].basis == ((0, 0, 1),)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_subspaces(4, 2, 13, budget=100))


class TestPatternMachinery:
    def test_patterns_lexicographic(self):
        assert pivot_patterns(4, 2) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_free_cells(self):
        assert pattern_free_cells((0, 2), 4) == [(0, 1), (0, 3), (1, 3)]
        assert pattern_free_cells((0, 1), 2) == []

    def test_block_sizes_sum_to_gaussian_binomial(self):
        for n, k, q in [(3, 1, 3), (4, 2, 3), (4, 2, 5), (5, 3, 3)]:
            blocks = pattern_blocks(n, k, q)
            assert [b.start for b in blocks[1:]] == [b.start + b.count for b in blocks[:-1]]
            assert blocks[-1].start + blocks[-1].count == gaussian_binomial(n, k, q)

    def test_basis_at_matches_enumeration(self):
        # against a digit oracle: itertools.product counts the free cells in
        # base q, first cell most significant.  basis_at decodes every block
        # whole and in runs of 2; enumerate_subspaces yields those bases in
        # that order, each once per offset
        for n, k, q in [(3, 2, 5), (4, 2, 3), (3, 1, 3), (3, 3, 3), (3, 0, 3)]:
            want = []
            for block in pattern_blocks(n, k, q):
                oracle = []
                for digits in itertools.product(range(q), repeat=len(block.cells)):
                    basis = [[int(j == piv) for j in range(n)] for piv in block.pattern]
                    for (i, j), v in zip(block.cells, digits):
                        basis[i][j] = v
                    oracle.append(basis)
                end = block.start + block.count
                assert basis_at(block, block.start, end, q, n).tolist() == oracle
                runs = [basis_at(block, lo, min(lo + 2, end), q, n) for lo in range(block.start, end, 2)]
                assert np.concatenate(runs).tolist() == oracle
                want += [(block.pattern, basis) for basis in oracle]
            got = [(V.pivots, [list(row) for row in V.basis])
                   for V in itertools.islice(enumerate_subspaces(n, k, q), 0, None, q ** (n - k))]
            assert got == want, (n, k, q)

    def test_basis_at_range_checks(self):
        first, second = pattern_blocks(3, 2, 5)[:2]
        for lo, hi in ((-1, 0), (2, 1), (0, first.count + 1), (second.start, second.start + 1)):
            with pytest.raises(IndexError):
                basis_at(first, lo, hi, 5, 3)
        # the last index is in range, and an empty run has no bases
        assert basis_at(first, first.count - 1, first.count, 5, 3).tolist() == [[[1, 0, 4], [0, 1, 4]]]
        assert basis_at(second, second.start, second.start, 5, 3).shape == (0, 2, 3)
        # the digit weights are exact: q**3 > 2**63 raises rather than wrap
        q = 2**31 - 1
        with pytest.raises(OverflowError):
            basis_at(pattern_blocks(5, 1, q)[0], 0, 1, q, 5)
        top = pattern_blocks(4, 1, q)[0]  # top weight q**2 < 2**63
        assert basis_at(top, q**2 + 5, q**2 + 6, q, 4).tolist() == [[[1, 1, 0, 5]]]

    def test_offsets_zero_on_pivots(self):
        offs = offsets_for_pattern((0, 2), 4, 3)
        assert offs.shape == (9, 4)
        assert (offs[:, 0] == 0).all() and (offs[:, 2] == 0).all()
        assert {tuple(map(int, row)) for row in offs[:, [1, 3]]} == set(
            itertools.product(range(3), repeat=2)
        )


class TestRandomSubspace:
    def test_deterministic_per_seed(self):
        assert random_subspace(4, 2, 13, seed=7) == random_subspace(4, 2, 13, seed=7)
        assert random_subspace(4, 2, 13, seed=7) != random_subspace(4, 2, 13, seed=8)

    def test_requested_rank_always_achieved(self):
        for seed in range(1000):
            assert random_subspace(6, 3, 31, seed=seed).k == 3

    def test_spreads_over_many_subspaces(self):
        seen = {random_subspace(3, 1, 5, seed=s) for s in range(200)}
        assert len(seen) > 50


class TestSubspaceSerialization:
    def test_round_trip_single(self, tmp_path):
        V = random_subspace(4, 2, 13, seed=11)
        path = tmp_path / "v.txt"
        save_subspaces([V], path)
        assert load_subspaces(path) == [V]
        first = path.read_bytes()
        save_subspaces(load_subspaces(path), path)
        assert path.read_bytes() == first

    def test_round_trip_many(self, tmp_path):
        vs = [random_subspace(3, 2, 5, seed=s) for s in range(6)]
        path = tmp_path / "vs.txt"
        save_subspaces(vs, path)
        assert load_subspaces(path) == vs

    def test_text_form(self):
        V = canonicalize((1, 2, 3), [(1, 1, 0), (0, 1, 1)], 5)
        assert subspace_to_text(V) == "3,2,5\n0,0,2\n1,0,4\n0,1,1\n"

    def test_noncanonical_input_is_canonicalised(self):
        text = "3,2,5\n1,2,3\n1,1,0\n0,1,1\n"
        [V] = subspaces_from_text(text)
        assert V == canonicalize((1, 2, 3), [(1, 1, 0), (0, 1, 1)], 5)

    def test_comments_ignored(self):
        text = "# a comment\n3,1,5\n0,1,2\n1,0,0\n"
        assert len(subspaces_from_text(text)) == 1

    def test_dependent_rows_rejected(self):
        text = "2,2,5\n0,0\n1,2\n2,4\n"
        with pytest.raises(ValueError, match="rank"):
            subspaces_from_text(text)

    def test_bad_residue_rejected(self):
        with pytest.raises(ValueError, match="^line 2: 7 is not a canonical residue mod 5$"):
            subspaces_from_text("2,1,5\n0,7\n1,0\n")
        # a comment inside a record does not shift the line numbers
        with pytest.raises(ValueError, match="^line 7: 5 is not a canonical residue mod 5$"):
            subspaces_from_text("3,0,5\n1,2,3\n\n3,1,5\n0,0,0\n# c\n1,0,5\n")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError, match="^line 2: expected 2 entries, got 1$"):
            subspaces_from_text("2,1,5\n0\n1,0\n")
        with pytest.raises(ValueError, match="^line 4: expected 2 entries, got 3$"):
            subspaces_from_text("2,1,5\n# c\n0,0\n1,0,0\n")

    def test_non_integer_lines_are_named(self):
        for text, line in (
            ("3,2,13\n0,0,x\n1,0,0\n0,1,0\n", 2),  # an offset entry
            ("3,2,q\n0,0,0\n1,0,0\n0,1,0\n", 1),  # a header entry
            ("3,0,5\n0,1,2\n\n# second record\n3,1,5\n0,0,0\n1,0,1.5\n", 7),  # a basis entry
            ("3,1,5\n# c\n0,0,0\n1,0,x\n", 4),  # after a comment inside the record
        ):
            with pytest.raises(ValueError, match=rf"^line {line}: not a comma-separated integer"):
                subspaces_from_text(text)

    def test_header_modulus_must_be_prime(self):
        for text, line, q in (
            ("3,1,4\n0,0,0\n2,0,0\n", 1, 4),  # would fail inside the RREF
            ("3,0,4\n1,2,3\n", 1, 4),  # would load a point over Z/4
            ("3,0,13\n1,2,3\n\n3,0,1\n0,0,0\n", 4, 1),
            (f"1,0,{2**61 + 15}\n0\n", 1, 2**61 + 15),  # prime, but above the supported range
        ):
            with pytest.raises(ValueError, match=rf"^line {line}: q = {q} is not a prime below"):
                subspaces_from_text(text)

    def test_header_dimensions_are_checked(self):
        # k = -1 once matched a one-line record and then read past its end
        for text, line in (("3,-1,5\n", 1),
                           ("3,1,5\n0,0,0\n1,0,0\n\n2,3,5\n0,0\n1,0\n0,1\n1,1\n", 5)):
            with pytest.raises(ValueError, match=rf"^line {line}: need 0 <= k <= n"):
                subspaces_from_text(text)

    def test_missing_offset_line_is_named(self):
        # a header alone once read its missing offset as a basis line of -1
        for text, line in (("3,0,5\n\n", 1), ("3,1,5\n", 1), ("3,0,5\n1,2,3\n\n# c\n2,2,5\n", 5)):
            with pytest.raises(ValueError, match=rf"^line {line}: record has no offset line$"):
                subspaces_from_text(text)
        with pytest.raises(ValueError, match="^line 1: record declares k=1 but has 0 basis lines$"):
            subspaces_from_text("3,1,5\n0,0,0\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="no subspace records"):
            subspaces_from_text("# nothing\n")

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_round_trip_random(self, seed):
        V = random_subspace(4, 2, 7, seed=seed)
        assert subspaces_from_text(subspace_to_text(V)) == [V]
