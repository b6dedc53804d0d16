"""Exact output statistics of the extractor on affine subspaces, plus every
structural check the error analysis rests on.

Measured quantities are exact where possible: output distributions are
integer count vectors, statistical distance is a Fraction, and the change of
variables comparison is an integer equality of count vectors.  Character-sum
magnitudes and the bounds built from them are float64 with a pinned absolute
tolerance.

There is one count primitive, `_PointCounts`: it reads the points
offset + t.B of a run of direction spaces B of one pivot pattern, for a
batch of parallel offsets and a parameter grid, through shared A-weighted
power tables and tallies the outputs; the pivot terms are summed once per
grid row, so each point looks up only its n - k free coordinates, and of
each +- pair of offsets it counts one and permutes the other.  The
sweep runs every count-based check on it, change_of_vars included (a single
subspace is ExplicitSubspaces((V,))); the per-point output_distribution /
evaluate route is kept as its oracle.  What a pivot pattern alone determines
lives in one record per pattern, `_Pattern`.
There is one character transform, `_Characters`, and the sweep is its only
caller: char_max and xor run only there, and the per-point
character_sum_subspace / character_magnitude route is kept as its oracle.

`verify_extractor` sweeps a set of affine subspaces (exhaustive, seeded
sample, or an explicit list) and runs selected checks on each one.  The sweep
processes runs of linear subspaces of one pivot pattern, with all of their
parallel offsets batched through the count primitive, so exhaustive runs at
desk scale stay in the seconds-to-minutes range.  One thread pool runs the
work in fixed chunks, each a whole number of full runs of blocks, whose
layout does not depend on the worker count, and partial results merge in
chunk order, so reports are byte-identical for any worker count (on one
numpy/BLAS build).  The threads share the caller's sweep state, and each
chunk's partial result is a SweepResult, merged by the same first-maximum
rule that runs per run of blocks.  Per run,
each check yields one column per report field (a per-subspace array or one
shared value); violation counts read those columns, and report rows stay in
them until read, so the CSV writer formats whole columns, sorts the rows
into sweep order once, and leaves the per-row work to batch.write_rows.  The
counts and the rows go through batch, which alone picks each C function or
its fallback.

Checks
  sd                 statistical distance to uniform (informational)
  char_max           largest nontrivial character magnitude (informational)
  xor                sd <= char_max * q**(m/2), the XOR-lemma aggregation
  zero_coordinate    every c^T A has at most m-1 zeros on pivot coordinates
  change_of_vars     substituting s_i**(D/d_{j_i}) for t_i permutes inputs:
                     output counts along both routes agree exactly (the
                     same primitive on the value rows t_i -> t_i**D_i); the
                     quantity is the largest count gap, c_encoded the first
                     output z attaining it
  substitution_form  after that substitution each pivot coordinate powers to
                     s_i**D, and every non-pivot term has degree below D
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import (
    DEFAULT_POINT_BUDGET,
    DEFAULT_TOLERANCE,
    Budgets,
    check_budget,
    check_tolerance,
)
from .extractor import ExtractorSpec, evaluate
from .numtheory import is_prime
from .subspace import (
    AffineSubspace,
    _lex_grid,
    basis_at,
    count_affine_subspaces,
    enumerate_points,
    offsets_for_pattern,
    pattern_blocks,
    random_subspace,
)

CHECK_ORDER = (
    "sd",
    "char_max",
    "xor",
    "zero_coordinate",
    "change_of_vars",
    "substitution_form",
)
THEOREM_CHECKS = ("xor", "zero_coordinate", "change_of_vars", "substitution_form")
DEFAULT_CHECKS = ("sd", "char_max", "xor", "zero_coordinate")

_CHAR_CHUNK = 256  # character columns per matmul; fixed so results never vary
_RUN_CELLS = 1 << 18  # max count cells (rows x q**m) in one run of blocks
_RUN_POINTS = 1 << 23  # max points in one run; more only starves the pool
_CHUNK_TARGET = 192  # sweep chunks; fixed so chunking is worker-independent
_AUTO_FULL_LIMIT = 100_000  # collect="auto": full rows up to here, else violations


# ---------------------------------------------------------------------------
# output encoding


def encode_output(z: Sequence[int], q: int) -> int:
    """Big-endian base-q encoding of an output vector."""
    enc = 0
    for v in z:
        enc = enc * q + v
    return enc


def decode_output(enc: int, q: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        enc, r = divmod(enc, q)
        out.append(r)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# distributions and distance


@dataclass(frozen=True)
class OutputDistribution:
    """Exact integer counts of F(x) over some input set, indexed by encoding."""

    q: int
    m: int
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        if self.counts.shape != (self.q**self.m,):
            raise ValueError("count vector length must be q**m")
        if int(self.counts.sum()) != self.total:
            raise ValueError("counts do not sum to total")


def output_distribution(
    spec: ExtractorSpec,
    V: AffineSubspace,
    budget: int = DEFAULT_POINT_BUDGET,
) -> OutputDistribution:
    """Tally F over every point of V by direct enumeration.

    This is the plain reference path (one evaluate() per point); the sweep
    engine reproduces these counts through batched table lookups and is
    tested against it.
    """
    _check_subspace(spec, V)
    q, m = spec.modulus, spec.m
    check_budget(q**m, budget, f"q**m = {q**m} outcome cells")
    counts = np.zeros(q**m, dtype=np.int64)
    for x in enumerate_points(V, budget):
        counts[encode_output(evaluate(spec, x), q)] += 1
    return OutputDistribution(q=q, m=m, counts=counts, total=q**V.k)


def statistical_distance(dist: OutputDistribution) -> Fraction:
    """Exact total-variation distance between dist and uniform on F_q^m."""
    qm = dist.q**dist.m
    total = dist.total
    # sum |c*qm - total| <= 2*total*qm, safe in int64 under the budgets
    if total * qm < (1 << 62):
        num = int(np.abs(dist.counts * qm - total).sum())
    else:  # pragma: no cover - beyond any configured budget
        num = sum(abs(int(c) * qm - total) for c in dist.counts)
    return Fraction(num, 2 * total * qm)


# ---------------------------------------------------------------------------
# character sums


@dataclass(frozen=True)
class CharacterSum:
    """Integer tallies of a mod-q residue; the sum is sum_r counts[r] w^r."""

    q: int
    residue_counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        if self.residue_counts.shape != (self.q,):
            raise ValueError("residue count vector length must be q")
        if int(self.residue_counts.sum()) != self.total:
            raise ValueError("residue counts do not sum to total")


def _omega_powers(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def character_magnitude(cs: CharacterSum) -> float:
    """|E[w^R]| for the tallied residue R."""
    s = (cs.residue_counts.astype(np.complex128) * _omega_powers(cs.q)).sum()
    return float(abs(s)) / cs.total


def character_sum_subspace(
    spec: ExtractorSpec,
    V: AffineSubspace,
    c: Sequence[int],
    budget: int = DEFAULT_POINT_BUDGET,
) -> CharacterSum:
    """Tally <c, F(x)> over V, confirming both routes to the residue agree:
    <c, A x^d> pointwise equals <c^T A, x^d>."""
    _check_subspace(spec, V)
    q = spec.modulus
    if len(c) != spec.m:
        raise ValueError(f"character index length {len(c)} does not match m={spec.m}")
    b = [sum(ci * row[j] for ci, row in zip(c, spec.A.rows)) % q for j in range(spec.n)]
    counts = np.zeros(q, dtype=np.int64)
    for x in enumerate_points(V, budget):
        powed = [pow(xj, dj, q) for xj, dj in zip(x, spec.d)]
        z = [sum(a * p for a, p in zip(row, powed)) % q for row in spec.A.rows]
        r1 = sum(ci * zi for ci, zi in zip(c, z)) % q
        r2 = sum(bj * pj for bj, pj in zip(b, powed)) % q
        if r1 != r2:
            raise AssertionError("character routes disagree; arithmetic bug")
        counts[r1] += 1
    return CharacterSum(q=q, residue_counts=counts, total=q**V.k)


class _Characters:
    """The one dense transform over the nonzero characters c of F_q^m: the
    digits of all q**m outputs in lexicographic order (row z encodes output z
    and character z), the powers of w, and phase tables <z, c> mod q,
    _CHAR_CHUNK characters at a time.  The sweep state is its only caller,
    and c = 0 is never read.  One table, q**m by min(_CHAR_CHUNK, q**m - 1),
    must fit the budget; magnitudes() builds each table once per call, a
    whole run of blocks, and keeps none past it."""

    def __init__(self, q: int, m: int, budget: int) -> None:
        qm = q**m
        cells = qm * min(_CHAR_CHUNK, qm - 1)
        check_budget(cells, budget, f"character phase table needs {cells} entries")
        self.q = q
        self.digits = _lex_grid(q, m)
        self.omega = _omega_powers(q)

    def magnitudes(self, counts: np.ndarray, total: int) -> np.ndarray:
        """|E[w^<c,Z>]| along the last axis for every c != 0 (c = 1, 2, ...
        encoded); counts is (q**m,), (rows, q**m) or a run (blocks, rows,
        q**m).  Each phase table and its powers of w are built once, then
        every block is multiplied in turn, so its rows go through the same
        matmul shape as a lone block and get the same bits."""
        run = counts.astype(np.float64).reshape(-1, *counts.shape[-2:])  # (blocks, rows, q**m)
        out = np.empty((*run.shape[:-1], len(self.digits) - 1))
        for lo in range(1, len(self.digits), _CHAR_CHUNK):
            # the phase table <z, c> mod q of the next block of nonzero c
            roots = self.omega[(self.digits @ self.digits[lo : lo + _CHAR_CHUNK].T) % self.q]
            for block, mags in zip(run, out):
                mags[..., lo - 1 : lo - 1 + roots.shape[1]] = np.abs(block @ roots) / total
        return out.reshape(*counts.shape[:-1], out.shape[-1])


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class BoundReport:
    """One checked quantity against one bound.

    satisfied is None for informational rows (no bound to enforce); for
    float quantities it means quantity <= bound + tolerance, for integer
    quantities an exact comparison.
    """

    check: str
    quantity: float | int
    bound: float | int | None
    satisfied: bool | None
    subspace_id: int | None = None
    c_encoded: int | None = None
    detail: str = ""


# ---------------------------------------------------------------------------
# the count primitive, and the change of variables on it


def _pivot_degrees(spec: ExtractorSpec, pivots: Sequence[int]) -> tuple[int, list[int]]:
    """D = lcm of the pivot exponents, and D_i = D / d_{j_i} per pivot."""
    D = math.lcm(*(spec.d[j] for j in pivots)) if pivots else 1
    return D, [D // spec.d[j] for j in pivots]


def _pow_column(e: int, q: int) -> np.ndarray:
    """s**e mod q for every residue s, indexed by s."""
    return np.array([pow(s, e, q) for s in range(q)], dtype=np.int64)


def _check_int64_sums(q: int, n: int) -> None:
    """Both count routes form in int64 the k <= n terms of each coordinate of
    t.B, and the table entries A[i, j] * x**d_j, each at most (q-1)**2, so
    they are exact only below 2**63."""
    if n * (q - 1) ** 2 >= 2**63:
        raise ValueError(f"n*(q-1)**2 = {n * (q - 1) ** 2} overflows the int64 row sums")


def _representatives(partner: np.ndarray) -> np.ndarray:
    """The rows o <= partner[o]: o = 0, and each offset whose first nonzero
    free digit is at most (q - 1)/2; one row of every +- pair."""
    return np.flatnonzero(np.arange(len(partner)) <= partner)


class _PointCounts:
    """The one production route from points to output counts.

    For a run of direction bases B of one pivot pattern, a batch of parallel
    offsets and a parameter grid, every point offset + (t.B mod q) is read
    through A-weighted power tables, tables[i, j][x] = A[i, j] * x**d_j mod q
    over [0, 2q-2], so the unreduced sum of two residues indexes a term of
    output i directly.  The grid comes as one value row per parameter: grid
    point t is (values[0][t_0], .., values[k-1][t_{k-1}]), in lexicographic
    order, parameter 0 slowest.  The direct route takes the identity rows;
    the change of variables, the rows s -> s**D_i (_Pattern.direct, .substituted).

    In canonical form each basis is the identity on the pivot columns and each
    offset is zero there, so pivot coordinate j_i of offset + t.B is the grid
    value t_i.  The pivot terms of each output, P[t, i], are then summed
    once per call from the value rows alone; per basis only the n - k free
    coordinates of t.B are formed, and per point only they are looked up.
    counts() takes the pivot pattern from its caller and refuses a basis that
    is not the identity on it, or an offset that is nonzero on it.

    Every d_j is coprime to the even q - 1, so odd, and F(-x) = -F(x): the
    counts of -o + W are those of o + W under z -> -z.  Given the row of each
    offset's negation (an exhaustive block's offsets are closed under it),
    counts() tallies only the representative rows and fills each partner
    row as a column permutation of its representative through negenc, the
    encoding of -z per output z.  That needs odd value rows too: the
    identity is, and so is s -> s**D_i, since each D_i = D / d_j divides the
    odd D = lcm of the pivot exponents.

    counts() makes one call, batch.count_blocks, on batch.count_route(): the
    C count kernel, one compiled loop per run of blocks, or else a numpy
    loop.  counts() alone decides whether the C kernel counts by lines at
    m = 1 (see batch.py), and budgets the line tables, 2q * q**(n-k) entries,
    on either route by that one result.  The grid splits at parameter 0, as
    that loop needs, because every value row fixes 0 and every table is 0 at
    0 (each d_j >= 1).  Both routes sum rows in int64, so counts() raises
    ValueError before any work unless n*(q-1)**2 < 2**63, then unless every
    value, basis and offset entry lies in [0, q), every value row fixes 0
    and, given partners, is odd, and then unless the pivot columns are as
    above; past those checks both give the same integers and share the
    tables, P and the +- fill.  The per-point evaluate() of
    output_distribution is their oracle.

    The point budget counts grid points, and a sweep admits a subspace of up
    to that many; the work rows (P, then the free coordinates) hold one row
    per grid point, so their guard counts rows.  The line tables' guard
    counts entries.
    """

    def __init__(self, spec: ExtractorSpec, budget: int) -> None:
        q, n, m = spec.modulus, spec.n, spec.m
        cells = m * n * (2 * q - 1)
        check_budget(cells, budget, f"power tables need {cells} entries")
        self.q, self.n, self.m, self.qm, self.budget = q, n, m, q**m, budget
        self.A = spec.A.array() % q
        weights = np.array([q ** (m - 1 - i) for i in range(m)], dtype=np.int64)
        self.negenc = (-_lex_grid(q, m) % q) @ weights
        wrap = np.arange(2 * q - 1) % q
        powers = np.stack([_pow_column(dj, q)[wrap] for dj in spec.d])
        # A[i, j] * x**d_j < q**2, exact wherever counts() passes its int64 guard
        self.tables = self.A[:, :, None] * powers % q  # C order, as the C kernel reads it

    def counts(
        self,
        pivots: Sequence[int],
        bases: np.ndarray,
        offsets: np.ndarray,
        values: np.ndarray,
        partner: np.ndarray | None = None,
    ) -> np.ndarray:
        """Output counts over offset + t.B for t in the grid of the (k, q)
        values, for each basis B of bases, (nb, k, n) or one (k, n) basis, all
        in canonical form with the given pivot columns: shape (nb * offsets,
        q**m), rows basis-major.  partner, if given, is the row of each
        offset's negation, and only _representatives(partner) are counted."""
        q, n, m, qm = self.q, self.n, self.m, self.qm
        _check_int64_sums(q, n)
        bases, offsets, values = (np.ascontiguousarray(a, dtype=np.int64)
                                  for a in (bases, offsets, values))
        if bases.ndim == 2:
            bases = bases[None]
        nb, k = bases.shape[:2]
        O = offsets.shape[0]
        if offsets.shape != (O, n) or bases.shape[2] != n or values.shape != (k, q) or k > n:
            raise ValueError(f"offsets and basis rows must have {n} coordinates, "
                             f"and values one row of {q} per basis row")
        if partner is not None and partner.shape != (O,):
            raise ValueError(f"partner must give one row per offset, {O}")
        if any(a.size and (a.min() < 0 or a.max() >= q) for a in (values, bases, offsets)):
            raise ValueError(f"a value, basis or offset entry lies outside [0, {q})")
        if values[:, 0].any():
            raise ValueError("a value row does not map 0 to 0")
        if partner is not None and (values[:, -np.arange(q) % q] != -values % q).any():
            raise ValueError("a value row is not odd, as the +- fill of partner rows needs")
        pivots = [int(j) for j in pivots]
        free = np.array([j for j in range(n) if j not in pivots], dtype=np.int64)
        if len(pivots) != k or len(free) != n - k:
            raise ValueError(f"pivots {tuple(pivots)} are not {k} distinct columns below {n}")
        if (bases[:, :, pivots] != np.eye(k, dtype=np.int64)).any() or offsets[:, pivots].any():
            raise ValueError(f"a basis is not the identity or an offset not zero "
                             f"on the pivot columns {tuple(pivots)}")
        T = q**k
        check_budget(T, self.budget, f"count work needs {T} rows of {m + n - k} entries")
        rows = np.arange(O, dtype=np.int64) if partner is None else _representatives(partner)
        # the C line loop's rule: m = 1 (else each add covers q**m cells), k >= 2
        # (else each basis needs its own tables), and half the q**(n-k) offset
        # classes or more counted per basis, as in an exhaustive block (a lone
        # plane would pay q**(n-k+1) lookups for tables to count q**k points);
        # lines is then the class count, else 0
        lines = q ** (n - k) if m == 1 and k >= 2 and 2 * len(rows) >= q ** (n - k) else 0
        if lines:
            check_budget(cells := 2 * q * lines, self.budget, f"line tables need {cells} entries")
        counts = np.zeros((nb, O, qm), dtype=np.int64)
        work = np.empty((T, m + n - k), dtype=np.int64)  # per grid row: P, then free coordinates
        P = np.zeros((1, m), dtype=np.int64)
        for i, j in enumerate(pivots):  # P over parameters 0..i, parameter 0 slowest
            P = ((P[:, None] + self.tables[:, j, values[i]].T) % q).reshape(-1, m)
        work[:, :m] = P
        from . import batch

        batch.count_blocks(q, self.tables, free, values, bases, offsets, rows, lines, work, counts)
        if partner is not None:  # the counts of -o are those of o under z -> -z
            fill = np.flatnonzero(np.arange(O) > partner)
            counts[:, fill] = counts[:, partner[fill][:, None], self.negenc]
        return counts.reshape(nb * O, qm)


# ---------------------------------------------------------------------------
# zero coordinates of c^T A


def zero_coordinate_bound(A, c: Sequence[int]) -> BoundReport:
    """Count zeros of b = c^T A; Vandermonde structure caps them at m - 1.

    b_j is a nonzero polynomial of degree < m evaluated at seed point r_j,
    so it can vanish at most m - 1 times.
    """
    q = A.q
    c = [int(v) % q for v in c]
    if len(c) != A.m:
        raise ValueError(f"coefficient length {len(c)} does not match m={A.m}")
    if not any(c):
        raise ValueError("c must be nonzero")
    zeros = 0
    for j in range(A.n):
        bj = sum(ci * row[j] for ci, row in zip(c, A.rows)) % q
        if bj == 0:
            zeros += 1
    return BoundReport(
        check="zero_coordinate",
        quantity=zeros,
        bound=A.m - 1,
        satisfied=zeros <= A.m - 1,
        c_encoded=encode_output(c, q),
    )


# ---------------------------------------------------------------------------
# Deligne-type bounds for diagonal polynomials


@dataclass(frozen=True)
class DiagonalPolynomial:
    """f = sum_i a_i x_i**degree + (terms of total degree < degree) over F_q.

    The top-degree part is diagonal with nonzero coefficients and the degree
    is coprime to q, which makes it smooth; complete character sums of such
    polynomials obey |S| <= (degree-1)**num_vars * q**(num_vars/2).
    """

    q: int
    num_vars: int
    degree: int
    diagonal_coeffs: tuple[int, ...]
    lower_terms: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if math.gcd(self.degree, self.q) != 1:
            raise ValueError(
                f"degree {self.degree} divisible by the characteristic {self.q}"
            )
        if len(self.diagonal_coeffs) != self.num_vars:
            raise ValueError("one diagonal coefficient per variable required")
        for a in self.diagonal_coeffs:
            if not 1 <= a < self.q:
                raise ValueError(f"diagonal coefficients must be nonzero residues, got {a}")
        seen = set()
        for exps, coeff in self.lower_terms:
            if len(exps) != self.num_vars:
                raise ValueError("term exponent tuple length must match num_vars")
            if any(e < 0 for e in exps):
                raise ValueError("term exponents must be nonnegative")
            if sum(exps) >= self.degree:
                raise ValueError(
                    f"lower term {exps} has total degree >= {self.degree}"
                )
            if not 1 <= coeff < self.q:
                raise ValueError(f"term coefficients must be nonzero residues, got {coeff}")
            if exps in seen:
                raise ValueError(f"duplicate term {exps}")
            seen.add(exps)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ValueError("point length must match num_vars")
        acc = sum(
            a * pow(x, self.degree, self.q) for a, x in zip(self.diagonal_coeffs, point)
        )
        for exps, coeff in self.lower_terms:
            term = coeff
            for x, e in zip(point, exps):
                term = term * pow(x, e, self.q) % self.q
            acc += term
        return acc % self.q

    def residues_grid(self) -> np.ndarray:
        """f over all q**num_vars points, grid in row-major point order."""
        q, v = self.q, self.num_vars
        cols = _lex_grid(q, v).T
        deg_table = _pow_column(self.degree, q)
        acc = np.zeros(q**v, dtype=np.int64)
        for a, col in zip(self.diagonal_coeffs, cols):
            acc = (acc + a * deg_table[col]) % q
        for exps, coeff in self.lower_terms:
            term = np.full(q**v, coeff, dtype=np.int64)
            for col, e in zip(cols, exps):
                if e:
                    term = term * _pow_column(e, q)[col] % q
            acc = (acc + term) % q
        return acc


def _squared_magnitude_is(N: np.ndarray, square: int) -> bool:
    """Whether |S|**2 == square exactly, S = sum_r N_r w^r over the prime
    q = len(N).  |S|**2 = sum_d a_d w^d, a_d = sum_r N_r N_(r+d) = a_(-d) (mod q
    indices); as Phi_q is irreducible the w^d are related only by summing to 0
    (Washington, ch. 2), so this holds iff a_d - square*[d == 0] is constant."""
    total = int(N.sum())
    N = N.astype(np.int64 if total * total < 2**63 else object)  # a_d <= total**2, exact
    q, wrapped = len(N), np.concatenate([N, N])
    a0 = int(N @ N) - square
    return all(int(N @ wrapped[d : d + q]) == a0 for d in range(1, q // 2 + 1))


def deligne_bound_check(
    f: DiagonalPolynomial,
    b: int,
    budget: int = DEFAULT_POINT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BoundReport:
    """|sum_x w^(b f(x))| against (degree-1)**v * q**(v/2), by brute force; a row
    the float |S| fails passes if its residue counts show |S| == bound (~q**2 work)."""
    check_tolerance(tolerance)
    if not 1 <= b < f.q:
        raise ValueError(f"b must be a nonzero residue mod {f.q}, got {b}")
    points = f.q**f.num_vars
    check_budget(points, budget, f"grid has {points} points")
    residues = (b * f.residues_grid()) % f.q
    s = _omega_powers(f.q)[residues].sum()
    quantity = float(abs(s))
    bound = (f.degree - 1) ** f.num_vars * f.q ** (f.num_vars / 2)
    satisfied = quantity <= bound + tolerance
    if not satisfied:
        check_budget(f.q**2, budget, f"tie test needs q**2 = {f.q**2} operations")
        square = (f.degree - 1) ** (2 * f.num_vars) * f.q**f.num_vars  # bound**2, exactly
        satisfied = _squared_magnitude_is(np.bincount(residues, minlength=f.q), square)
    return BoundReport(
        check="deligne",
        quantity=quantity,
        bound=bound,
        satisfied=satisfied,
        c_encoded=b,
        detail=f"q={f.q} vars={f.num_vars} degree={f.degree}",
    )


def deligne_battery() -> tuple[tuple[DiagonalPolynomial, int], ...]:
    """A fixed battery of smooth diagonal polynomials and character twists."""
    P = DiagonalPolynomial
    cases: list[tuple[DiagonalPolynomial, int]] = [
        (P(7, 1, 3, (1,)), 1),
        (P(7, 1, 3, (1,)), 3),
        (P(7, 1, 1, (1,)), 1),
        (P(13, 1, 1, (5,), (((0,), 7),)), 1),
        (P(13, 1, 2, (1,)), 1),
        (P(13, 2, 5, (1, 1), (((1, 1), 1),)), 1),
        (P(13, 2, 7, (1, 1)), 2),
        (P(17, 1, 2, (3,), (((1,), 2), ((0,), 4))), 1),
        (P(19, 1, 6, (1,)), 1),
        (P(23, 1, 4, (5,), (((2,), 1), ((1,), 2), ((0,), 3))), 7),
        (P(29, 1, 3, (1,), (((1,), 28),)), 1),
        (P(31, 1, 3, (2,), (((1,), 1),)), 1),
        (P(31, 1, 5, (1,)), 11),
        (P(37, 2, 2, (1, 1), (((1, 0), 1), ((0, 1), 1))), 1),
        (P(41, 1, 5, (2,), (((3,), 7),)), 1),
        (P(43, 2, 6, (1, 5), (((2, 3), 11),)), 1),
        (P(3, 2, 2, (1, 1)), 1),
        (P(5, 1, 3, (1,)), 2),
        (P(11, 2, 3, (1, 1)), 1),
        (P(11, 2, 4, (1, 3), (((2, 1), 5),)), 3),
        (P(101, 1, 7, (1,)), 1),
        (P(101, 2, 3, (1, 2), (((1, 1), 3),)), 1),
        (P(101, 2, 7, (1, 1), (((3, 3), 1),)), 5),
        (P(7, 2, 3, (1, 2), (((1, 0), 1),)), 1),
    ]
    return tuple(cases)


# ---------------------------------------------------------------------------
# sweep sources


@dataclass(frozen=True)
class ExhaustiveSubspaces:
    """Every affine subspace of dimension spec.k, in canonical order."""

    def label(self, spec: ExtractorSpec) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class SampledSubspaces:
    """count seeded draws of dimension spec.k; draw i uses seed + i, so any
    index range can be regenerated independently (sampling with replacement)."""

    count: int
    seed: int

    def label(self, spec: ExtractorSpec) -> str:
        return f"sample:{self.count}:seed:{self.seed}"


@dataclass(frozen=True)
class ExplicitSubspaces:
    """A caller-provided list; ids are list positions, dimensions may vary."""

    subspaces: tuple[AffineSubspace, ...]

    def label(self, spec: ExtractorSpec) -> str:
        return f"explicit:{len(self.subspaces)}"


SubspaceSource = ExhaustiveSubspaces | SampledSubspaces | ExplicitSubspaces


# ---------------------------------------------------------------------------
# sweep result


def _csv_cells(col: np.ndarray) -> tuple[list[str], np.ndarray | None]:
    """A report column as CSV cells: floats by repr, bools as true/false, None
    empty, else str.  A float64, bool or all-None column gives each distinct
    cell once (sweeps repeat values) and each row's index into them; any
    other column one cell per row, and None."""
    if col.dtype == np.float64:
        bits, at = np.unique(col.view(np.int64), return_inverse=True)
        return list(map(repr, bits.view(np.float64).tolist())), at
    if col.dtype == bool:
        return ["false", "true"], col.astype(np.int64)
    values = col.tolist()
    if values.count(None) == len(values):
        return [""], np.broadcast_to(np.int64(0), len(values))  # no per-row memory
    return ["" if v is None else str(v).lower() if isinstance(v, bool)
            else repr(v) if isinstance(v, float) else str(v) for v in values], None


class _Reports:
    """SweepResult.reports: its BoundReport rows in sweep order, kept as one
    column table (ids, cols, keep) per sweep block.  cols maps each check, in
    row order, to its (quantity, bound, satisfied, c_encoded, detail) columns,
    each an array over ids or one shared value; keep, unless None, holds per
    check the positions kept.  Rows, and the exact=a/b details that sd rows
    keep as (absdev, denom), are built on first use."""

    def __init__(self) -> None:
        self.tables, self._rows = [], None

    def append(self, r: BoundReport) -> None:
        cols = {r.check: (r.quantity, r.bound, r.satisfied, r.c_encoded, r.detail)}
        self.tables.append((np.array([r.subspace_id]), cols, None))
        self._rows = None

    def _columns(self, detail: bool, cells) -> tuple[np.ndarray, list[tuple[str, list]]]:
        """The sweep order and, per check, its name and cells(c) per column c
        in CSV order (ids, c_encoded, quantity, bound, satisfied and, with
        detail, detail), c the kept rows of every table joined once.  A column
        two checks share, as xor shares sd's quantity, is one cells(c).  The
        order lists the rows of the checks, taken one check after another, by
        one stable argsort of their keys: row position * len(CHECK_ORDER) +
        the check's slot in its table."""
        checks: dict[str, tuple[list, list[list]]] = {}
        pos = 0
        for ids, cols, keep in self.tables:
            for slot, (name, col) in enumerate(cols.items()):
                at = np.arange(len(ids)) if keep is None else keep.get(name, ids[:0])
                fields = [ids, col[3], *col[:3], *col[4 : 4 + detail]]
                if detail and isinstance(col[4], tuple):
                    a, b = (v // np.gcd(*col[4]) for v in col[4])
                    fields[5] = np.array([f"exact={x}/{y}" for x, y in zip(a.tolist(), b.tolist())])
                keys, parts = checks.setdefault(name, ([], [[] for _ in fields]))
                keys.append((pos + at) * len(CHECK_ORDER) + slot)  # slot < checks per table
                for part, c in zip(parts, fields):
                    c = c if isinstance(c, np.ndarray) else np.array([c]).repeat(len(ids))
                    part.append(c if keep is None else c[at])
            pos += len(ids)
        order = np.argsort(np.concatenate(
            [np.arange(0), *(k for keys, _ in checks.values() for k in keys)]), kind="stable")
        joined: dict[tuple, object] = {}  # by the arrays joined; checks hold them alive
        for p in (p for _, parts in checks.values() for p in parts):
            if (key := tuple(map(id, p))) not in joined:  # each value keeps its Python type
                same = len({a.dtype for a in p}) < 2
                joined[key] = cells(np.concatenate(p if same else [a.astype(object) for a in p]))
        return order, [(name, [joined[tuple(map(id, p))] for p in parts])
                       for name, (_, parts) in checks.items()]

    def rows(self) -> list[BoundReport]:
        if self._rows is None:
            order, checks = self._columns(True, np.ndarray.tolist)
            rows = [row for name, (i, c, q, b, s, d) in checks
                    for row in map(BoundReport, repeat(name), q, b, s, i, c, d)]
            self._rows = list(map(rows.__getitem__, order.tolist()))
        return self._rows

    def __len__(self) -> int:  # from the tables, without building the rows
        return sum(len(ids) * len(cols) if keep is None else sum(map(len, keep.values()))
                   for ids, cols, keep in self.tables)

    def __iter__(self):
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        return self.rows() == (list(other) if isinstance(other, _Reports) else other)

    def __repr__(self) -> str:
        return repr(self.rows())


@dataclass
class SweepResult:
    spec_q: int
    spec_n: int
    spec_k: int
    spec_m: int
    source: str
    checks: tuple[str, ...]
    collect: str
    tolerance: float
    total_subspaces: int
    processed: int = 0
    budget_errors: int = 0
    violations: dict[str, int] = field(default_factory=dict)
    max_sd: float | None = None
    max_sd_exact: Fraction | None = None
    max_sd_subspace: int | None = None
    max_char: float | None = None
    max_char_subspace: int | None = None
    max_char_c: int | None = None
    reports: _Reports = field(default_factory=_Reports)
    # points the count kernel visited, and the points its counts covered
    # (more, by the +- pairs of exhaustive blocks); the runs of blocks
    # analysed, and the chunks of the plan; in no report or summary
    points_visited: int = 0
    points_covered: int = 0
    runs: int = 0
    chunks: int = 0

    @property
    def ok(self) -> bool:
        """No theorem-backed check failed on any processed subspace."""
        return all(v == 0 for v in self.violations.values())


def summary_lines(result: SweepResult) -> list[str]:
    lines = [
        f"q = {result.spec_q}",
        f"n = {result.spec_n}",
        f"k = {result.spec_k}",
        f"m = {result.spec_m}",
        f"source = {result.source}",
        f"checks = {','.join(result.checks)}",
        f"collect = {result.collect}",
        f"tolerance = {result.tolerance!r}",
        f"total_subspaces = {result.total_subspaces}",
        f"processed = {result.processed}",
        f"budget_errors = {result.budget_errors}",
        f"violations_total = {sum(result.violations.values())}",
    ]
    for check in CHECK_ORDER:
        if check in result.violations:
            lines.append(f"violations_{check} = {result.violations[check]}")
    if result.max_sd is not None:
        lines.append(f"max_sd = {result.max_sd!r}")
        lines.append(f"max_sd_exact = {result.max_sd_exact}")
        lines.append(f"max_sd_subspace = {result.max_sd_subspace}")
    if result.max_char is not None:
        lines.append(f"max_char_magnitude = {result.max_char!r}")
        lines.append(f"max_char_magnitude_subspace = {result.max_char_subspace}")
        lines.append(f"max_char_magnitude_c = {result.max_char_c}")
    return lines


REPORT_COLUMNS = ("check_name", "subspace_id", "c_encoded", "quantity", "bound", "satisfied")


def _write_reports(result: SweepResult, fh) -> None:
    """The header, the report rows (by batch.write_rows) and the summary, as
    ASCII to a binary fh."""
    from . import batch

    fh.write(",".join(REPORT_COLUMNS).encode("ascii") + b"\n")
    batch.write_rows(*result.reports._columns(False, lambda c: c), _csv_cells, fh)
    fh.write("".join(f"# {line}\n" for line in summary_lines(result)).encode("ascii"))


def reports_csv_lines(result: SweepResult) -> list[str]:
    """The lines of write_reports_csv, written to memory by the same writer."""
    fh = io.BytesIO()
    _write_reports(result, fh)
    return fh.getvalue().decode("ascii").split("\n")[:-1]


def write_reports_csv(result: SweepResult, path) -> None:
    with open(path, "wb") as fh:
        _write_reports(result, fh)


def write_summary(result: SweepResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(summary_lines(result)) + "\n")


# ---------------------------------------------------------------------------
# the sweep engine


def _check_subspace(spec: ExtractorSpec, V: AffineSubspace) -> None:
    if V.q != spec.modulus:
        raise ValueError(f"subspace modulus {V.q} does not match spec q={spec.modulus}")
    if V.n != spec.n:
        raise ValueError(f"subspace lives in F_q^{V.n}, spec has n={spec.n}")


def normalize_checks(checks: Iterable[str]) -> tuple[str, ...]:
    wanted = set(checks)
    unknown = wanted - set(CHECK_ORDER)
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
    if not wanted:
        raise ValueError("no checks selected")
    return tuple(c for c in CHECK_ORDER if c in wanted)


# the two running maxima: the compared value, then the fields that go with it
_MAX_SD = ("max_sd", "max_sd_exact", "max_sd_subspace")
_MAX_CHAR = ("max_char", "max_char_subspace", "max_char_c")


def _keep_first_max(result: SweepResult, names: tuple[str, ...], values: Sequence) -> None:
    """Store values under names when values[0] beats the maximum result
    holds; a tie keeps the earlier one, so the first maximum in sweep order
    wins, within a chunk and across merged chunks alike."""
    current = getattr(result, names[0])
    if values[0] is not None and (current is None or values[0] > current):
        for name, value in zip(names, values):
            setattr(result, name, value)


class _Pattern:
    """What a pivot pattern alone determines, one record per pattern and
    sweep (_SweepState.pattern); each part is built on its first read, so a
    sweep builds only what its checks use."""

    def __init__(self, state: _SweepState, pivots: tuple[int, ...]) -> None:
        self.state, self.pivots = state, pivots

    @cached_property
    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical offsets, and per offset o the row of (-o) mod q.  The
        offsets are listed lexicographically by their free digits, so the row
        of an offset is the big-endian encoding of those digits.  Row 0
        (o = 0) is its own partner; every other offset pairs with another."""
        q = self.state.q
        offsets = offsets_for_pattern(self.pivots, self.state.spec.n, q)
        free = np.delete(offsets, list(self.pivots), axis=1)
        weights = q ** np.arange(free.shape[1] - 1, -1, -1, dtype=np.int64)
        return offsets, (-free % q) @ weights

    @cached_property
    def zero_coordinate(self) -> tuple[int, int]:
        """The worst zero count of c^T A on the pivots over c != 0, and the first such c."""
        zeros = self.state.zero_table[:, list(self.pivots)].sum(axis=1)  # q**m - 1 >= 1 entries
        return int(zeros.max()), int(zeros.argmax()) + 1

    @cached_property
    def degrees(self) -> tuple[int, list[int]]:  # D and the D_i
        return _pivot_degrees(self.state.spec, self.pivots)

    @cached_property
    def direct(self) -> np.ndarray:
        """The identity value rows, one per pivot: the lexicographic grid."""
        return np.tile(np.arange(self.state.q, dtype=np.int64), (len(self.pivots), 1))

    @cached_property
    def substituted(self) -> np.ndarray:
        """The value rows s -> s**D_i, one per pivot, odd as _PointCounts.counts
        needs: every D_i divides the odd D (see _PointCounts)."""
        q = self.state.q
        rows = [_pow_column(Di, q) for Di in self.degrees[1]]
        return np.array(rows, dtype=np.int64).reshape(-1, q)  # (0, q) at k = 0

    @cached_property
    def substitution_form(self) -> int:
        """The violations of the substituted form.  In canonical form the
        basis is the identity on the pivot columns and the offset is zero
        there, so pivot coordinate j_i of offset + u.B is u_i on every
        subspace of the pattern, and the count is one number."""
        spec, q, k = self.state.spec, self.state.q, len(self.pivots)
        D, D_per_pivot = self.degrees
        top = _pow_column(D, q)
        # (a) pivot coordinate j_i, raised to d_{j_i}, is s_i**D at every grid
        # point s; a value of s_i that fails fails at q**(k-1) grid points
        bad = sum(q ** (k - 1) * int((_pow_column(spec.d[j], q)[u] != top).sum())
                  for u, j in zip(self.substituted, self.pivots))
        # (b) a non-pivot x_j between pivot i and the next has degree d_j * D_i,
        # below D; one left of every pivot is constant on V
        for i, (lo, hi) in enumerate(zip(self.pivots, (*self.pivots[1:], spec.n))):
            bad += sum(spec.d[j] * D_per_pivot[i] >= D for j in range(lo + 1, hi))
        return bad


class _SweepState:
    """Everything a sweep needs, built once by the caller and shared by the
    pool's threads; header is never tallied into: the sweep's result and
    every chunk's partial result are blank copies of it.
    patterns keeps the first record of each pattern (dict.setdefault is
    atomic).  The _Pattern cached properties are built on first use with no
    lock (cached_property has none since Python 3.12), so two threads may
    build one twice: that is safe, as both give equal values and no value is
    ever mutated in place."""

    def __init__(
        self,
        spec: ExtractorSpec,
        source: SubspaceSource,
        budgets: Budgets,
        header: SweepResult,
    ) -> None:
        self.spec, self.source, self.budgets = spec, source, budgets
        self.header = header
        self.checks, self.collect, self.tolerance = header.checks, header.collect, header.tolerance
        q, m = spec.modulus, spec.m
        self.q, self.m = q, m
        self.qm = q**m
        self.need_counts = bool({"sd", "char_max", "xor"} & set(self.checks))
        self.sqrt_qm = q ** (m / 2)
        self.counter = _PointCounts(spec, budgets.points)
        self.chars = None  # built, and its table budget checked, only for checks that read it
        if {"char_max", "xor"} & set(self.checks):
            self.chars = _Characters(q, m, budgets.points)
        self.patterns: dict[tuple[int, ...], _Pattern] = {}
        if "zero_coordinate" in self.checks:  # per nonzero c and coordinate j: (c^T A)_j == 0
            cells = (self.qm - 1) * spec.n
            check_budget(cells, budgets.points, f"zero-coordinate table needs {cells} entries")
            self.zero_table = (_lex_grid(q, m)[1:] @ self.counter.A) % q == 0
        # subspaces per chunk unit: the parallel offsets of one linear
        # subspace in an exhaustive sweep, else one subspace; and chunk units
        # per full run of blocks, at most _RUN_CELLS count cells and
        # _RUN_POINTS points
        self.per_unit = self.run_units = 1
        if isinstance(source, ExhaustiveSubspaces):
            self.blocks = pattern_blocks(spec.n, spec.k, q)
            self.per_unit = q ** (spec.n - spec.k)
            self.run_units = max(1, min(_RUN_CELLS // (self.per_unit * self.qm),
                                        _RUN_POINTS // (self.per_unit * q**spec.k)))

    def blank(self) -> SweepResult:
        """A new SweepResult with the header's fields and nothing tallied."""
        return replace(self.header, violations=dict(self.header.violations), reports=_Reports())

    def pattern(self, pivots: tuple[int, ...]) -> _Pattern:
        """The record of a pivot pattern, one per pattern and sweep."""
        return self.patterns.setdefault(pivots, _Pattern(self, pivots))

    # -- block analysis ----------------------------------------------------

    def analyze_block(
        self,
        bases: np.ndarray,
        pivots: tuple[int, ...],
        offsets: np.ndarray,
        ids: np.ndarray,
        partial: SweepResult,
        partner: np.ndarray | None = None,
    ) -> None:
        """Run all selected checks for a run of direction spaces of one pivot
        pattern, bases (nb, k, n), each with the same batch of parallel
        offsets; ids are the global subspace ids, one per (basis, offset) in
        that order.  partner, if given, pairs each offset with its negation
        for the count kernel."""
        q, m, qm = self.q, self.m, self.qm
        pattern = self.pattern(pivots)
        nb, k = bases.shape[:2]
        T = q**k
        O = len(ids)
        partial.runs += 1

        def count(values: np.ndarray, partner: np.ndarray | None) -> np.ndarray:
            out = self.counter.counts(pivots, bases, offsets, values, partner)
            rows = len(offsets) if partner is None else len(_representatives(partner))
            partial.points_visited += nb * rows * T
            partial.points_covered += O * T
            return out

        counts = sd_f = eps = eps_c = absdev = None
        if self.need_counts:
            counts = count(pattern.direct, partner)
            absdev = np.abs(counts * qm - T).sum(axis=1)
            denom = 2 * T * qm
            sd_f = absdev / float(denom)
            if "char_max" in self.checks or "xor" in self.checks:
                # (O, q**m - 1), no larger than counts; one call per run, each
                # block through the same matmul shape as a lone block
                mags = self.chars.magnitudes(counts.reshape(nb, -1, qm), T).reshape(O, -1)
                best = mags.argmax(axis=1)  # the first maximum wins
                eps, eps_c = mags[np.arange(O), best], best + 1

        # per check: (quantity, bound, satisfied, c_encoded, detail) columns
        cols: dict[str, tuple] = {}
        if "sd" in self.checks:
            cols["sd"] = (sd_f, None, None, None, (absdev, denom))  # detail exact=a/b, on demand
        if "char_max" in self.checks:
            cols["char_max"] = (eps, None, None, eps_c, "")
        if "xor" in self.checks:
            bound = eps * self.sqrt_qm
            cols["xor"] = (sd_f, bound, sd_f <= bound + self.tolerance, eps_c, "")
        if "zero_coordinate" in self.checks:
            zworst, zc = pattern.zero_coordinate
            cols["zero_coordinate"] = (zworst, m - 1, zworst <= m - 1, zc, "")
        if "change_of_vars" in self.checks:
            # |direct counts - counts on the grid with t_i -> t_i**D_i|; D_i
            # divides lcm(d), which is coprime to q - 1, so the substitution
            # is a bijection and leaves all zeros.  Both rows sum to T, so by
            # Fourier inversion every residue count of <c, Z>, c != 0, agrees
            # exactly when the rows do: the quantity is the largest gap, and
            # a failing row names the first output z attaining it
            if counts is None:
                counts = count(pattern.direct, partner)
            gap = np.abs(counts - count(pattern.substituted, partner))
            worst = gap.max(axis=1)
            c_encoded = np.where(worst > 0, gap.argmax(axis=1), None)  # None where the rows agree
            cols["change_of_vars"] = (worst, 0, worst == 0, c_encoded, "")
        if "substitution_form" in self.checks:
            form = pattern.substitution_form
            cols["substitution_form"] = (form, 0, form == 0, None, f"D={pattern.degrees[0]}")

        partial.processed += O
        if sd_f is not None:
            row = int(np.argmax(sd_f))
            best = (float(sd_f[row]), Fraction(int(absdev[row]), denom), int(ids[row]))
            _keep_first_max(partial, _MAX_SD, best)
        if eps is not None:
            row = int(np.argmax(eps))
            best = (float(eps[row]), int(ids[row]), int(eps_c[row]))
            _keep_first_max(partial, _MAX_CHAR, best)
        failed = {name: np.flatnonzero(~np.broadcast_to(c[2], O)) for name, c in cols.items()
                  if c[2] is not None}  # per check, the rows whose check failed
        for name, rows in failed.items():
            partial.violations[name] = partial.violations.get(name, 0) + len(rows)
        if self.collect == "full":
            partial.reports.tables.append((ids, cols, None))
        elif self.collect == "violations" and any(map(len, failed.values())):
            partial.reports.tables.append((ids, cols, failed))

    # -- chunk execution ----------------------------------------------------

    def run_range(self, lo: int, hi: int) -> SweepResult:
        """Tally chunk units [lo, hi) into a new partial SweepResult.  An
        exhaustive chunk goes to analyze_block in runs of consecutive linear
        subspaces that share a pivot pattern, at most run_units each."""
        partial = self.blank()
        spec, q = self.spec, self.q
        if isinstance(self.source, ExhaustiveSubspaces):
            for block in self.blocks:  # each run: one basis_at call, one analyze_block
                end = min(hi, block.start + block.count)
                for start in range(max(lo, block.start), end, self.run_units):
                    bases = basis_at(block, start, min(start + self.run_units, end), q, spec.n)
                    offsets, partner = self.pattern(block.pattern).offsets
                    ids = start * self.per_unit + np.arange(len(bases) * len(offsets))
                    self.analyze_block(bases, block.pattern, offsets, ids, partial, partner)
            return partial
        for i in range(lo, hi):
            if isinstance(self.source, SampledSubspaces):
                V = random_subspace(spec.n, spec.k, q, seed=self.source.seed + i)
            else:
                V = self.source.subspaces[i]
            if q**V.k > self.budgets.points:
                partial.budget_errors += 1
                if self.collect != "none":  # a row in sweep order, between the analysed ones
                    partial.reports.append(BoundReport(
                        "budget_error", q**V.k, self.budgets.points, None, subspace_id=i,
                        detail="subspace skipped: point budget exceeded"))
                continue
            offsets, ids = V.offset_array().reshape(1, -1), np.array([i], dtype=np.int64)
            self.analyze_block(V.basis_array()[None], V.pivots, offsets, ids, partial)
        return partial

    def run_chunk(self, task: tuple[int, int, int]) -> SweepResult:
        """run_range over chunk (idx, lo, hi); an error names the chunk."""
        idx, lo, hi = task
        try:
            return self.run_range(lo, hi)
        except Exception as exc:  # same type, so callers map it as before
            exc.args = (f"chunk {idx} [{lo}, {hi}): {exc}",)
            raise


def _merge(result: SweepResult, partial: SweepResult) -> None:
    result.processed += partial.processed
    result.budget_errors += partial.budget_errors
    result.points_visited += partial.points_visited
    result.points_covered += partial.points_covered
    result.runs += partial.runs
    for name, count in partial.violations.items():
        result.violations[name] = result.violations.get(name, 0) + count
    result.reports.tables += partial.reports.tables
    for names in (_MAX_SD, _MAX_CHAR):
        _keep_first_max(result, names, [getattr(partial, name) for name in names])


def _chunk_plan(total_units: int, run_units: int) -> list[tuple[int, int, int]]:
    """Fixed chunking of [0, total_units) into at most _CHUNK_TARGET chunks,
    each but the last a whole number of full runs of run_units, so no chunk
    splits a run; it depends only on the spec and the source, never on the
    worker count, so merged output is always byte-identical."""
    if total_units == 0:
        return []
    size = run_units * math.ceil(math.ceil(total_units / _CHUNK_TARGET) / run_units)
    return [
        (idx, lo, min(lo + size, total_units))
        for idx, lo in enumerate(range(0, total_units, size))
    ]


def verify_extractor(
    spec: ExtractorSpec,
    source: SubspaceSource,
    checks: Iterable[str] = DEFAULT_CHECKS,
    workers: int = 1,
    budgets: Budgets | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    collect: str = "auto",
    log: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the selected checks over every subspace the source yields.

    collect: "full" keeps one report row per (check, subspace), "violations"
    keeps only failed rows, "none" keeps no rows, "auto" switches from full
    to violations above 100000 subspaces.  Summary statistics (max distance,
    max character magnitude, violation counts) are always gathered.  The pool
    has min(workers, chunks) threads.  log, if given, gets one line when
    workers exceed the CPU count, naming the pool's thread count, or else
    when the chunk count caps the pool.  An error in a chunk names it and
    cancels the chunks not yet started.
    """
    budgets = budgets or Budgets()
    checks = normalize_checks(checks)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    check_tolerance(tolerance)
    q = spec.modulus
    check_budget(q**spec.m, budgets.points, f"q**m = {q**spec.m} outcome cells")

    if isinstance(source, ExhaustiveSubspaces):
        what, total = "exhaustive sweep", count_affine_subspaces(spec.n, spec.k, q)
    elif isinstance(source, SampledSubspaces):
        if source.count < 1:
            raise ValueError("sample count must be positive")
        what, total = "sample", source.count
    elif isinstance(source, ExplicitSubspaces):
        if not source.subspaces:
            raise ValueError("explicit source has no subspaces")
        what, total = "list", len(source.subspaces)
    else:
        raise TypeError(f"unknown subspace source {type(source).__name__}")
    check_budget(total, budgets.subspaces, f"{what} has {total} subspaces")
    if isinstance(source, ExplicitSubspaces):
        for V in source.subspaces:  # each one meets the point budget in its chunk
            _check_subspace(spec, V)
    else:
        check_budget(q**spec.k, budgets.points, f"each subspace has {q**spec.k} points")

    if collect == "auto":
        collect = "full" if total <= _AUTO_FULL_LIMIT else "violations"
    if collect not in ("full", "violations", "none"):
        raise ValueError(f"unknown collect mode {collect!r}")

    header = SweepResult(
        spec_q=q,
        spec_n=spec.n,
        spec_k=spec.k,
        spec_m=spec.m,
        source=source.label(spec),
        checks=checks,
        collect=collect,
        tolerance=tolerance,
        total_subspaces=total,
        violations={name: 0 for name in checks if name in THEOREM_CHECKS},
    )
    state = _SweepState(spec, source, budgets, header)  # raises on the table budgets
    result = state.blank()
    tasks = _chunk_plan(total // state.per_unit, state.run_units)
    result.chunks = len(tasks)
    threads = min(workers, len(tasks))  # no more threads than chunks
    if log is not None and workers > (cpus := os.cpu_count() or 1):
        log(f"workers = {workers} > cpu_count = {cpus}; pool has {threads} threads")
    elif log is not None and threads < workers:
        log(f"workers = {workers} > chunks = {len(tasks)}; pool capped at {threads}")
    if state.need_counts or "change_of_vars" in checks:
        from . import batch

        batch.count_route()  # builds or loads the C kernels, or warns, here and not in a thread
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for partial in pool.map(state.run_chunk, tasks):  # in chunk order
            _merge(result, partial)
    finally:  # after a fault, chunks not yet started never start
        pool.shutdown(cancel_futures=True)
    return result
