"""Reference outputs for the benchmark, computed without the package's code.

The gate compares every output of an op against these.  Nothing here calls
into `affext`: the map F(x) = A * x^d is re-derived from the spec file text,
powers are taken by left-to-right square-and-multiply (the package's kernels
go right to left), subspaces are enumerated from the documented canonical
order, output counts come from one lookup table of F over all of F_q^n, and
character magnitudes come from an m-dimensional FFT instead of the engine's
dense character matmul.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

THEOREM_CHECKS = ("xor", "zero_coordinate", "change_of_vars", "substitution_form")
_TABLE_LIMIT = 1 << 22  # points of F_q^n tabulated at once
_GATHER_LIMIT = 1 << 22  # elements in one (bases, offsets, points, n) buffer


@dataclass(frozen=True)
class SpecParams:
    q: int
    n: int
    k: int
    m: int
    d: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]  # A as m rows of n entries


def parse_spec(text: str) -> SpecParams:
    """Read q, n, k, m, d and A from spec file text ("key = value" lines)."""
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            values[key.strip()] = val.strip()
    q, n, k, m = (int(values[key]) for key in ("q", "n", "k", "m"))
    d = tuple(int(v) for v in values["d"].split(","))
    seeds = tuple(int(v) for v in values["seed_points"].split(","))
    rows = tuple(tuple(pow(r, i, q) for r in seeds) for i in range(m))
    return SpecParams(q=q, n=n, k=k, m=m, d=d, rows=rows)


def apply_map(xs: np.ndarray, p: SpecParams) -> np.ndarray:
    """F applied to every row of xs (shape (B, n), canonical residues)."""
    if p.q >= 1 << 32:
        raise ValueError("reference arithmetic needs q < 2**32")
    qq = np.uint64(p.q)
    xs = np.asarray(xs, dtype=np.uint64)
    powed = np.empty_like(xs)
    for j, e in enumerate(p.d):
        x = xs[:, j]
        acc = np.ones_like(x)
        for bit in bin(e)[2:]:
            acc = acc * acc % qq
            if bit == "1":
                acc = acc * x % qq
        powed[:, j] = acc
    out = np.zeros((xs.shape[0], p.m), dtype=np.uint64)
    for i, row in enumerate(p.rows):
        for j, a in enumerate(row):
            out[:, i] = (out[:, i] + powed[:, j] * np.uint64(a) % qq) % qq
    return out.astype(np.int64)


def format_lines(zs: np.ndarray) -> list[str]:
    """`affext extract` output: one comma-separated vector per line."""
    return [",".join(str(v) for v in row) for row in zs.tolist()]


# ---------------------------------------------------------------------------
# subspace sweeps


def _lex_grid(q: int, dims: int) -> np.ndarray:
    """All of F_q^dims as rows, lexicographic with the first entry slowest."""
    if dims == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((q,) * dims, dtype=np.int64).reshape(dims, -1).T.copy()


def _place_values(q: int, n: int) -> np.ndarray:
    return np.array([q ** (n - 1 - j) for j in range(n)], dtype=np.int64)


def output_table(p: SpecParams) -> np.ndarray:
    """Big-endian encoding of F(x) for every x in F_q^n, indexed the same way."""
    if p.q**p.n > _TABLE_LIMIT:
        raise ValueError(f"q**n = {p.q**p.n} points is too many to tabulate")
    z = apply_map(_lex_grid(p.q, p.n), p)
    return z @ _place_values(p.q, p.m)


def subspace_counts(
    table: np.ndarray, p: SpecParams, bases: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Output counts of F on offset + span(basis) for every basis (shape
    (L, k, n)) and every offset (shape (O, n)); returns (L * O, q**m), basis
    major."""
    q, n, qm = p.q, p.n, p.q**p.m
    tgrid = _lex_grid(q, bases.shape[1])
    place = _place_values(q, n)
    per_basis = offsets.shape[0] * tgrid.shape[0] * n
    step = max(1, _GATHER_LIMIT // per_basis)
    out = []
    for lo in range(0, bases.shape[0], step):
        span = np.einsum("tk,lkn->ltn", tgrid, bases[lo:lo + step]) % q
        pts = (offsets[None, :, None, :] + span[:, None, :, :]) % q
        enc = table[pts @ place].reshape(-1, tgrid.shape[0])
        flat = (np.arange(enc.shape[0], dtype=np.int64)[:, None] * qm + enc).ravel()
        out.append(np.bincount(flat, minlength=enc.shape[0] * qm).reshape(-1, qm))
    return np.concatenate(out)


def exhaustive_blocks(n: int, k: int, q: int):
    """Canonical order of affine k-flats: pivot patterns lexicographic; per
    pattern, bases by their free RREF cells (row-major, first cell most
    significant); per basis, offsets lexicographic over non-pivot columns.
    Yields (pattern, bases (L, k, n), offsets (O, n))."""
    for pattern in itertools.combinations(range(n), k):
        cells = [
            (i, j) for i in range(k) for j in range(pattern[i] + 1, n) if j not in pattern
        ]
        digits = _lex_grid(q, len(cells))
        bases = np.zeros((digits.shape[0], k, n), dtype=np.int64)
        for i, piv in enumerate(pattern):
            bases[:, i, piv] = 1
        for c, (i, j) in enumerate(cells):
            bases[:, i, j] = digits[:, c]
        free = [j for j in range(n) if j not in pattern]
        offsets = np.zeros((q ** len(free), n), dtype=np.int64)
        offsets[:, free] = _lex_grid(q, len(free))
        yield pattern, bases, offsets


def _zero_coordinate(p: SpecParams, pivots: tuple[int, ...]) -> tuple[int, int]:
    """Worst zero count of c^T A on the pivot columns over nonzero c, and
    the first c (encoded) that attains it."""
    cs = _lex_grid(p.q, p.m)[1:]
    ball = cs @ np.array(p.rows, dtype=np.int64) % p.q
    zeros = (ball[:, list(pivots)] == 0).sum(axis=1)
    return int(zeros.max()), int(zeros.argmax()) + 1


@dataclass
class VerifyReference:
    """What `affext verify` must report, per subspace id and in summary."""

    meta: dict  # q, n, k, m, source, checks, collect, tolerance, total
    absdev: np.ndarray  # sum |count * q**m - q**k| per subspace (exact)
    mags: np.ndarray  # |character sum| / q**k per subspace and c
    zworst: np.ndarray
    zc: np.ndarray

    @property
    def denom(self) -> int:
        return 2 * self.meta["q"] ** self.meta["k"] * self.meta["q"] ** self.meta["m"]

    @property
    def eps(self) -> np.ndarray:
        return self.mags[:, 1:].max(axis=1)

    def save(self, path: str) -> None:
        np.savez(path, meta=json.dumps(self.meta), absdev=self.absdev,
                 mags=self.mags, zworst=self.zworst, zc=self.zc)

    @classmethod
    def load(cls, path: str) -> "VerifyReference":
        with np.load(path) as z:
            return cls(meta=json.loads(str(z["meta"])), absdev=z["absdev"],
                       mags=z["mags"], zworst=z["zworst"], zc=z["zc"])

    def summary(self) -> list[tuple[str, str]]:
        """Expected verify_summary.txt lines as (key, value).  The three
        max_char_magnitude values are checked by tolerance, not text."""
        meta = self.meta
        sd = self.absdev / float(self.denom)
        best = int(np.argmax(self.absdev))  # first id at the maximum
        eps = self.eps
        top = int(np.argmax(eps))
        lines = [(key, str(meta[key])) for key in ("q", "n", "k", "m", "source")]
        lines += [
            ("checks", ",".join(meta["checks"])),
            ("collect", meta["collect"]),
            ("tolerance", repr(meta["tolerance"])),
            ("total_subspaces", str(meta["total"])),
            ("processed", str(meta["total"])),
            ("budget_errors", "0"),
            ("violations_total", "0"),
        ]
        lines += [(f"violations_{c}", "0") for c in meta["checks"] if c in THEOREM_CHECKS]
        if {"sd", "char_max", "xor"} & set(meta["checks"]):
            lines += [
                ("max_sd", repr(float(sd[best]))),
                ("max_sd_exact", str(Fraction(int(self.absdev[best]), self.denom))),
                ("max_sd_subspace", str(best)),
            ]
        if {"char_max", "xor"} & set(meta["checks"]):
            lines += [
                ("max_char_magnitude", repr(float(eps[top]))),
                ("max_char_magnitude_subspace", str(top)),
                ("max_char_magnitude_c", str(int(np.argmax(self.mags[top, 1:])) + 1)),
            ]
        return lines


def _reference(p: SpecParams, meta: dict, blocks) -> VerifyReference:
    table = output_table(p)
    qm = p.q**p.m
    T = p.q**p.k
    counts, zworst, zc = [], [], []
    for pivots, bases, offsets in blocks:
        cnt = subspace_counts(table, p, bases, offsets)
        counts.append(cnt)
        w, c = _zero_coordinate(p, pivots)
        zworst.append(np.full(cnt.shape[0], w, dtype=np.int64))
        zc.append(np.full(cnt.shape[0], c, dtype=np.int64))
    counts = np.concatenate(counts)
    absdev = np.abs(counts * qm - T).sum(axis=1)
    spectrum = np.fft.fftn(counts.reshape((-1,) + (p.q,) * p.m), axes=range(1, p.m + 1))
    mags = np.abs(spectrum).reshape(-1, qm) / T
    return VerifyReference(meta=meta, absdev=absdev, mags=mags,
                           zworst=np.concatenate(zworst), zc=np.concatenate(zc))


def exhaustive_reference(p: SpecParams, checks, tolerance: float) -> VerifyReference:
    blocks = list(exhaustive_blocks(p.n, p.k, p.q))
    total = sum(b.shape[0] * o.shape[0] for _, b, o in blocks)
    meta = dict(q=p.q, n=p.n, k=p.k, m=p.m, source="exhaustive", checks=list(checks),
                collect="full", tolerance=tolerance, total=total)
    return _reference(p, meta, blocks)


def sampled_reference(p: SpecParams, subspaces, label: str, checks,
                      tolerance: float) -> VerifyReference:
    """subspaces: (pivots, basis rows, offset) per subspace id, canonical."""
    blocks = [
        (tuple(piv), np.array(basis, dtype=np.int64)[None], np.array(off, dtype=np.int64)[None])
        for piv, basis, off in subspaces
    ]
    meta = dict(q=p.q, n=p.n, k=p.k, m=p.m, source=label, checks=list(checks),
                collect="full", tolerance=tolerance, total=len(blocks))
    return _reference(p, meta, blocks)
