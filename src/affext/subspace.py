"""Affine subspaces of F_q^n in a canonical reduced-row-echelon form.

A k-dimensional affine subspace is stored as (offset, basis) where the basis
rows are the unique RREF of the direction space (pivot entries 1, zeros above
and below each pivot, pivot columns strictly increasing) and the offset is
the unique representative with zeros in all pivot coordinates.  Two inputs
describe the same point set iff they canonicalise to the same object.
AffineSubspace raises ValueError on any other form; canonicalize builds the
canonical one from any offset and spanning set.

The RREF shape makes the pivot parametrization immediate: with pivots
j_1 < ... < j_k, the map l(t) = offset + sum_i t_i * basis_i satisfies
l_{j_i}(t) = t_i, and every earlier coordinate depends only on earlier
parameters (the triangular dependence the substitution arguments need).

Enumeration order is fixed everywhere: pivot patterns in lexicographic
order, then the free entries of the basis as base-q digits (first free cell
most significant), then offsets as base-q digits over the non-pivot
coordinates.  Subspace ids are positions in this order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET, check_budget, parse_ints
from .numtheory import MAX_MODULUS, check_modulus, is_prime


@dataclass(frozen=True)
class AffineSubspace:
    """offset + span(basis) in canonical RREF form; pivots are 0-indexed."""

    q: int
    n: int
    k: int
    offset: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if (len(self.offset) != self.n or len(self.basis) != self.k
                or any(len(row) != self.n for row in self.basis)):
            raise ValueError("offset/basis shape does not match n, k")
        if len(self.pivots) != self.k:
            raise ValueError("pivot count does not match k")
        # only the canonical form: another basis of the same space would give
        # other parameters t, and the checks read pivot coordinate j_i as t_i
        if not all(0 <= v < self.q for v in itertools.chain(self.offset, *self.basis)):
            raise ValueError(f"entries must be residues in [0, {self.q})")
        if not all(a < b for a, b in zip((-1, *self.pivots), (*self.pivots, self.n))):
            raise ValueError(f"pivots {self.pivots} are not increasing columns in [0, {self.n})")
        for i, (row, j) in enumerate(zip(self.basis, self.pivots)):
            if any(row[:j]) or [r[j] for r in self.basis] != [int(h == i) for h in range(self.k)]:
                raise ValueError(f"basis row {i} is not in reduced row echelon form")
        if any(self.offset[j] for j in self.pivots):
            raise ValueError("offset is not zero on every pivot column")

    def basis_array(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64).reshape(self.k, self.n)

    def offset_array(self) -> np.ndarray:
        return np.array(self.offset, dtype=np.int64)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test by reducing point - offset against the basis."""
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} does not match n={self.n}")
        residual = [(p - o) % self.q for p, o in zip(point, self.offset)]
        for row, piv in zip(self.basis, self.pivots):
            c = residual[piv]
            if c:
                residual = [(v - c * w) % self.q for v, w in zip(residual, row)]
        return not any(residual)


def _rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """In-place RREF over F_q; returns (nonzero rows, pivot columns)."""
    rows = [row[:] for row in rows]
    nrows = len(rows)
    n = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [v * inv % q for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(v - f * w) % q for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def canonicalize(
    offset: Sequence[int],
    spanning: Sequence[Sequence[int]],
    q: int,
) -> AffineSubspace:
    """Canonical form of offset + span(spanning); dependent vectors collapse.

    The returned dimension k is the rank of the spanning set, so it can be
    smaller than len(spanning); k = 0 (a single point) is allowed.
    """
    check_modulus(q)
    offset = [int(v) % q for v in offset]
    n = len(offset)
    rows = []
    for vec in spanning:
        if len(vec) != n:
            raise ValueError("spanning vector length does not match offset")
        rows.append([int(v) % q for v in vec])
    basis, pivots = _rref(rows, q) if rows else ([], [])
    for row, piv in zip(basis, pivots):
        c = offset[piv]
        if c:
            offset = [(v - c * w) % q for v, w in zip(offset, row)]
    return AffineSubspace(
        q=q,
        n=n,
        k=len(basis),
        offset=tuple(offset),
        basis=tuple(tuple(row) for row in basis),
        pivots=tuple(pivots),
    )


@dataclass(frozen=True)
class Parametrization:
    """Coordinate maps l_j(t) = const_j + sum_i coeff_j[i] * t_i.

    Pivot coordinate j_i is exactly t_i; coordinates left of the next pivot
    depend only on parameters already introduced.
    """

    q: int
    n: int
    k: int
    pivots: tuple[int, ...]
    consts: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]  # coeffs[j][i] multiplies t_i in l_j

    def evaluate(self, t: Sequence[int]) -> tuple[int, ...]:
        if len(t) != self.k:
            raise ValueError(f"parameter length {len(t)} does not match k={self.k}")
        return tuple(
            (c + sum(a * ti for a, ti in zip(row, t))) % self.q
            for c, row in zip(self.consts, self.coeffs)
        )


def parametrize(V: AffineSubspace) -> Parametrization:
    """Read the pivot parametrization off the RREF basis."""
    coeffs = tuple(
        tuple(V.basis[i][j] for i in range(V.k)) for j in range(V.n)
    )
    return Parametrization(
        q=V.q, n=V.n, k=V.k, pivots=V.pivots, consts=V.offset, coeffs=coeffs,
    )


def enumerate_points(
    V: AffineSubspace,
    budget: int = DEFAULT_POINT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """All q**k points, ordered lexicographically by parameter vector t."""
    total = V.q**V.k
    check_budget(total, budget, f"subspace has {total} points")
    q, n = V.q, V.n
    offset = V.offset
    basis = V.basis
    for t in itertools.product(range(q), repeat=V.k):
        point = list(offset)
        for ti, row in zip(t, basis):
            if ti:
                for j in range(n):
                    point[j] += ti * row[j]
        yield tuple(v % q for v in point)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional linear subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_affine_subspaces(n: int, k: int, q: int) -> int:
    """Affine k-flats: one linear subspace times q**(n-k) parallel copies."""
    return gaussian_binomial(n, k, q) * q ** (n - k)


def pivot_patterns(n: int, k: int) -> list[tuple[int, ...]]:
    """All ascending pivot-column patterns, in lexicographic order."""
    return list(itertools.combinations(range(n), k))


def pattern_free_cells(pattern: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Unconstrained (row, col) basis cells for a pivot pattern, row-major.

    RREF pins pivot columns entirely and zeroes everything left of each
    row's pivot; cell (i, j) is free iff j > pattern[i] and j is not a pivot.
    """
    pivset = set(pattern)
    return [
        (i, j)
        for i in range(len(pattern))
        for j in range(pattern[i] + 1, n)
        if j not in pivset
    ]


def _lex_grid(q: int, k: int) -> np.ndarray:
    """All q**k vectors of F_q^k as rows, in lexicographic order."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(q, dtype=np.int64)] * k), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, k)


def offsets_for_pattern(pattern: Sequence[int], n: int, q: int) -> np.ndarray:
    """All canonical offsets for a pivot pattern, lexicographic over the
    non-pivot coordinates; shape (q**(n-k), n)."""
    free_cols = [j for j in range(n) if j not in set(pattern)]
    out = np.zeros((q ** len(free_cols), n), dtype=np.int64)
    out[:, free_cols] = _lex_grid(q, len(free_cols))
    return out


@dataclass(frozen=True)
class PatternBlock:
    """One pivot pattern's slice of the linear-subspace enumeration."""

    pattern: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]
    start: int  # first linear index of this pattern
    count: int  # q ** len(cells)


def pattern_blocks(n: int, k: int, q: int) -> list[PatternBlock]:
    blocks = []
    start = 0
    for pattern in pivot_patterns(n, k):
        cells = tuple(pattern_free_cells(pattern, n))
        count = q ** len(cells)
        blocks.append(PatternBlock(pattern=pattern, cells=cells, start=start, count=count))
        start += count
    return blocks


def basis_at(block: PatternBlock, lo: int, hi: int, q: int, n: int) -> np.ndarray:
    """The bases of linear indices [lo, hi) of one pattern block, shape
    (hi - lo, k, n): the identity on the pivot columns, and each index's
    base-q digits in the free cells (first cell most significant)."""
    if not block.start <= lo <= hi <= block.start + block.count:
        raise IndexError(f"linear indices [{lo}, {hi}) are not in block "
                         f"[{block.start}, {block.start + block.count})")
    k = len(block.pattern)
    bases = np.zeros((hi - lo, k, n), dtype=np.int64)
    bases[:, range(k), block.pattern] = 1
    if block.cells:
        # exact weights: int64 refuses a weight of 2**63 or more, where q**e would wrap
        weights = np.array([q**e for e in range(len(block.cells) - 1, -1, -1)], dtype=np.int64)
        index = np.arange(lo - block.start, hi - block.start, dtype=np.int64)
        rows, cols = zip(*block.cells)
        bases[:, rows, cols] = index[:, None] // weights % q
    return bases


def enumerate_subspaces(
    n: int,
    k: int,
    q: int,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> Iterator[AffineSubspace]:
    """All affine k-flats of F_q^n in canonical order."""
    check_modulus(q)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = count_affine_subspaces(n, k, q)
    check_budget(total, budget, f"enumeration would visit {total} subspaces")
    for block in pattern_blocks(n, k, q):
        offsets = list(map(tuple, offsets_for_pattern(block.pattern, n, q).tolist()))
        for i in range(block.start, block.start + block.count):
            basis = tuple(map(tuple, basis_at(block, i, i + 1, q, n)[0].tolist()))
            for off in offsets:
                yield AffineSubspace(q=q, n=n, k=k, offset=off, basis=basis, pivots=block.pattern)


def random_subspace(n: int, k: int, q: int, seed: int) -> AffineSubspace:
    """A seeded random affine k-flat (uniform over spanning data, then
    canonicalised); the same seed always returns the same subspace."""
    check_modulus(q)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    while True:
        vectors = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        offset = [rng.randrange(q) for _ in range(n)]
        V = canonicalize(offset, vectors, q)
        if V.k == k:
            return V


# One subspace per record: a header "n,k,q" (0 <= k <= n, q a prime below
# 2**61), one offset line, then k basis lines, all comma-separated canonical
# residues.  Blank lines separate records in multi-subspace files, and every
# error names the line it was found on.


def subspace_to_text(V: AffineSubspace) -> str:
    lines = [f"{V.n},{V.k},{V.q}", ",".join(str(v) for v in V.offset)]
    lines += [",".join(str(v) for v in row) for row in V.basis]
    return "\n".join(lines) + "\n"


def _parse_record(block: list[tuple[int, str]]) -> AffineSubspace:
    """One record from its (line number, line) pairs, comment lines left out."""
    (start_line, head), *body = block
    header = parse_ints(head, f"line {start_line}")
    if len(header) != 3:
        raise ValueError(f"line {start_line}: header must be 'n,k,q', got {head!r}")
    n, k, q = header
    if not (2 <= q < MAX_MODULUS and is_prime(q)):
        raise ValueError(f"line {start_line}: q = {q} is not a prime below 2**61")
    if not 0 <= k <= n:
        raise ValueError(f"line {start_line}: need 0 <= k <= n, got k={k}, n={n}")
    if not body:
        raise ValueError(f"line {start_line}: record has no offset line")
    if len(body) != 1 + k:
        raise ValueError(
            f"line {start_line}: record declares k={k} but has {len(body) - 1} basis lines"
        )
    offset, *rows = [parse_ints(line, f"line {lineno}", n, q) for lineno, line in body]
    V = canonicalize(offset, rows, q)
    if V.k != k:
        raise ValueError(
            f"line {start_line}: basis rows are dependent, rank {V.k} < k={k}"
        )
    return V


def subspaces_from_text(text: str) -> list[AffineSubspace]:
    records: list[AffineSubspace] = []
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if block:
                records.append(_parse_record(block))
                block = []
            continue
        block.append((lineno, line))
    if block:
        records.append(_parse_record(block))
    if not records:
        raise ValueError("no subspace records found")
    return records


def save_subspaces(subspaces: Sequence[AffineSubspace], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(subspace_to_text(V) for V in subspaces))


def load_subspaces(path) -> list[AffineSubspace]:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:  # refused by line
        return subspaces_from_text(fh.read())
