"""The power-map extractor F(x) = A * x^d over a prime field F_q.

The exponent vector d is built from divisors of a product D of small primes
coprime to q - 1: taking the n largest divisors gives a strictly decreasing
sequence whose every entry exceeds 1, is coprime to q - 1 (so each power map
is a bijection on F_q), and divides D, with lcm(d) = D exactly.  The
coefficient matrix A is Vandermonde on distinct seed points, which makes
every m columns linearly independent (MDS).

`plan_parameters` ties the pieces to the output-length rule m = floor(beta*k)
and the error exponent epsilon = 1/4 - beta/2; `build_spec` is the direct
constructor used by the verification lab, where m is chosen by hand.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import numtheory
from .config import DEFAULT_MINOR_BUDGET, check_budget, parse_ints
from .numtheory import PrimeModulus, check_modulus, prime_modulus
from .subspace import _rref


class PlanWarning(UserWarning):
    """Planning produced parameters outside the analysed regime."""


class LcmBoundViolation(RuntimeError):
    """lcm(d) exceeds q**epsilon and strict mode was requested."""


@dataclass(frozen=True)
class ExponentVector:
    """Strictly decreasing exponents d_1 > ... > d_n > 1; their lcm is the
    one master exponent."""

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.d:
            raise ValueError("exponent vector must be nonempty")
        prev = None
        for di in self.d:
            if di <= 1:
                raise ValueError(f"exponents must exceed 1, got {di}")
            if prev is not None and di >= prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = di

    @property
    def lcm(self) -> int:
        return math.lcm(*self.d)

    def __len__(self) -> int:
        return len(self.d)

    def __iter__(self):
        return iter(self.d)

    def __getitem__(self, i: int) -> int:
        return self.d[i]


def gen_exponents(n: int, q: PrimeModulus | int) -> ExponentVector:
    """Exponents for n coordinates over F_q.

    D is the product of the first ceil(log2(n+1)) primes coprime to q - 1;
    that product has at least n + 1 divisors, and the n largest of them are
    all greater than 1, strictly decreasing, and include D itself, so
    lcm(d) = D.
    """
    if n < 1:
        raise ValueError(f"need at least one coordinate, got {n}")
    qm = q if isinstance(q, PrimeModulus) else prime_modulus(q)
    count = n.bit_length()  # = ceil(log2(n + 1)) for n >= 1
    primes = numtheory.first_primes_coprime(qm.q - 1, count)
    D = math.prod(primes)
    divs = numtheory.divisors(numtheory.Factorization(D, tuple((p, 1) for p in primes)))
    # 2**count >= n + 1 divisors, so the n largest exclude the trailing 1
    d = tuple(divs[:n])
    return ExponentVector(d=d)


def validate_exponents(ev: ExponentVector, q: int) -> None:
    """Check the bijection premise: every exponent coprime to q - 1."""
    for di in ev.d:
        if math.gcd(di, q - 1) != 1:
            raise ValueError(f"exponent {di} shares a factor with q-1={q - 1}")


@dataclass(frozen=True)
class CoefficientMatrix:
    """Vandermonde matrix a[i][j] = r_j**i over F_q, rows indexed 0..m-1."""

    q: int
    m: int
    n: int
    seed_points: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if len(self.seed_points) != self.n or len(self.rows) != self.m:
            raise ValueError("matrix shape does not match m, n")
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("ragged coefficient matrix")

    def array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


def build_matrix(
    m: int,
    n: int,
    q: PrimeModulus | int,
    seed_points: Sequence[int] | None = None,
) -> CoefficientMatrix:
    """Vandermonde coefficient matrix on distinct nonzero seed points.

    Defaults to seed points 1..n, which is why n < q is required: a prime
    field has only q - 1 distinct nonzero points to seed with.
    """
    qv = q.q if isinstance(q, PrimeModulus) else q
    check_modulus(qv)
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n >= qv:
        raise ValueError(f"need n < q for distinct seed points, got n={n}, q={qv}")
    if seed_points is None:
        seed_points = tuple(range(1, n + 1))
    else:
        seed_points = tuple(int(r) % qv for r in seed_points)
        if len(seed_points) != n:
            raise ValueError(f"need {n} seed points, got {len(seed_points)}")
        if len(set(seed_points)) != n:
            raise ValueError("seed points must be distinct modulo q")
        if any(r == 0 for r in seed_points):
            raise ValueError("seed points must be nonzero")
    rows = tuple(tuple(pow(r, i, qv) for r in seed_points) for i in range(m))
    return CoefficientMatrix(q=qv, m=m, n=n, seed_points=seed_points, rows=rows)


def verify_mds(A: CoefficientMatrix, budget: int = DEFAULT_MINOR_BUDGET) -> bool:
    """Brute-force MDS check: every m columns of A are linearly independent.

    Cost is C(n, m) * m**3 scalar operations, guarded by the budget.
    """
    cost = math.comb(A.n, A.m) * A.m**3
    check_budget(cost, budget, f"MDS check needs about {cost} operations")
    q = A.q
    for cols in itertools.combinations(range(A.n), A.m):
        mat = [[A.rows[i][j] % q for j in cols] for i in range(A.m)]  # _rref wants residues
        if len(_rref(mat, q)[0]) < A.m:
            return False
    return True


@dataclass(frozen=True)
class ExtractorSpec:
    """A fully determined extractor instance plus its planned parameters."""

    q: PrimeModulus
    n: int
    k: int
    m: int
    beta: float
    epsilon: float
    d: ExponentVector
    A: CoefficientMatrix

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.k <= self.n):
            raise ValueError(
                f"need 1 <= m <= k <= n, got m={self.m}, k={self.k}, n={self.n}"
            )
        if self.n >= self.q.q:
            raise ValueError(f"need n < q, got n={self.n}, q={self.q.q}")
        if len(self.d) != self.n:
            raise ValueError("exponent count does not match n")
        if (self.A.m, self.A.n, self.A.q) != (self.m, self.n, self.q.q):
            raise ValueError("coefficient matrix shape does not match spec")
        validate_exponents(self.d, self.q.q)

    @property
    def modulus(self) -> int:
        return self.q.q

    @property
    def lcm_bound_satisfied(self) -> bool:
        # q**epsilon stays small (q < 2**61, epsilon < 1/4), safe as a float
        return self.d.lcm <= self.modulus**self.epsilon


def check_lcm_bound(spec: ExtractorSpec, strict: bool) -> None:
    """Warn, or raise LcmBoundViolation when strict, if lcm(d) > q**epsilon."""
    if not spec.lcm_bound_satisfied:
        msg = (
            f"lcm(d)={spec.d.lcm} exceeds q**epsilon={spec.modulus**spec.epsilon:.6g}; "
            f"the error bound q**-epsilon is not guaranteed at this scale"
        )
        if strict:
            raise LcmBoundViolation(msg)
        warnings.warn(msg, PlanWarning, stacklevel=3)


def plan_parameters(
    n: int,
    k: int,
    beta: float,
    q: PrimeModulus | int,
    seed_points: Sequence[int] | None = None,
    strict_lcm: bool = False,
) -> ExtractorSpec:
    """Derive a full parameter set from (n, k, beta, q).

    m = floor(beta * k) outputs and error exponent epsilon = 1/4 - beta / 2.
    Warns (or raises, with strict_lcm) when lcm(d) > q**epsilon, and warns
    when q is atypical; both mean the analysed error bound is not in force at
    this scale, not that the construction stops working.
    """
    if not 0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 1/2), got {beta}")
    qm = q if isinstance(q, PrimeModulus) else prime_modulus(q)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m = math.floor(beta * k)
    if m < 1:
        raise ValueError(
            f"m = floor(beta*k) = 0 for beta={beta}, k={k}; increase beta or k"
        )
    spec = replace(build_spec(qm, n, k, m, seed_points), beta=beta, epsilon=0.25 - beta / 2)
    if not qm.typical:
        warnings.warn(
            f"q={qm.q} is atypical: omega(q-1)={qm.omega} exceeds "
            f"{numtheory.typicality_threshold(qm.q):.3f}",
            PlanWarning,
            stacklevel=2,
        )
    check_lcm_bound(spec, strict_lcm)
    return spec


def build_spec(
    q: PrimeModulus | int,
    n: int,
    k: int,
    m: int,
    seed_points: Sequence[int] | None = None,
) -> ExtractorSpec:
    """Direct constructor with m chosen by hand (the lab entry point).

    beta is recorded as m/k; epsilon as max(1/4 - beta/2, 0).  No planning
    warnings: desk-scale instances are expected to sit outside the regime
    where the lcm bound holds.
    """
    qm = q if isinstance(q, PrimeModulus) else prime_modulus(q)
    if not (1 <= m <= k <= n):
        raise ValueError(f"need 1 <= m <= k <= n, got m={m}, k={k}, n={n}")
    beta = m / k
    epsilon = max(0.25 - beta / 2, 0.0)
    d = gen_exponents(n, qm)
    A = build_matrix(m, n, qm, seed_points)
    return ExtractorSpec(q=qm, n=n, k=k, m=m, beta=beta, epsilon=epsilon, d=d, A=A)


def evaluate(spec: ExtractorSpec, x: Sequence[int]) -> tuple[int, ...]:
    """F(x) = A * x^d for one input vector of canonical residues."""
    if len(x) != spec.n:
        raise ValueError(f"input length {len(x)} does not match n={spec.n}")
    q = spec.modulus
    powed = [pow(xj, dj, q) for xj, dj in zip(x, spec.d)]
    return tuple(
        sum(a * p for a, p in zip(row, powed)) % q for row in spec.A.rows
    )


def evaluate_batch(spec: ExtractorSpec, xs) -> np.ndarray:
    """F applied to a whole batch; returns an int64 array of shape (B, m).

    The batch must have shape (B, n), checked here, and hold integers that
    are canonical residues, which batch.batch_apply checks before the kernel
    that batch.batch_route(q) names reads the array in place.
    """
    from . import batch

    arr = np.asarray(xs)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, spec.n)
    if arr.ndim != 2 or arr.shape[1] != spec.n:
        raise ValueError(f"batch must have shape (B, {spec.n}), got {arr.shape}")
    return batch.batch_apply(arr, spec.d.d, spec.A.rows, spec.modulus)


# Spec files are flat "key = value" text with a fixed key order, so a
# load/save round trip is byte identical.
SPEC_KEYS = ("q", "n", "k", "m", "beta", "epsilon", "d", "seed_points", "lcm", "D_master")


def spec_to_text(spec: ExtractorSpec) -> str:
    values = {
        "q": str(spec.modulus),
        "n": str(spec.n),
        "k": str(spec.k),
        "m": str(spec.m),
        "beta": repr(spec.beta),
        "epsilon": repr(spec.epsilon),
        "d": ",".join(str(v) for v in spec.d),
        "seed_points": ",".join(str(v) for v in spec.A.seed_points),
        "lcm": str(spec.d.lcm),
        "D_master": str(spec.d.lcm),  # the key stays, so every spec file still loads
    }
    return "".join(f"{key} = {values[key]}\n" for key in SPEC_KEYS)


def spec_from_text(text: str) -> ExtractorSpec:
    values: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"spec line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SPEC_KEYS:
            raise ValueError(f"spec line {lineno} has unknown key {key!a}")
        if key in values:
            raise ValueError(f"spec line {lineno} repeats key {key!r} of line {values[key][0]}")
        values[key] = lineno, val.strip()
    missing = [key for key in SPEC_KEYS if key not in values]
    if missing:
        raise ValueError(f"spec file is missing keys: {', '.join(missing)}")

    def where(key: str) -> str:
        return f"spec line {values[key][0]}: malformed {key} value"

    def number(key: str, kind=int):
        try:
            return kind(values[key][1])
        except ValueError:
            raise ValueError(f"{where(key)}: {values[key][1]!r}") from None

    qv, n, k, m, lcm, D_master = map(number, ("q", "n", "k", "m", "lcm", "D_master"))
    beta, epsilon = number("beta", float), number("epsilon", float)
    if not math.isfinite(beta):
        raise ValueError(f"{where('beta')}: {beta!r} is not finite")
    if not (0 < beta < 0.5 or k and beta == m / k):  # as plan_parameters, or build_spec, stores it
        raise ValueError(f"{where('beta')}: {beta!r} is neither in (0, 1/2) nor m/k")
    if epsilon != (want := max(0.25 - beta / 2, 0.0)):  # as build_spec and plan_parameters store it
        raise ValueError(f"{where('epsilon')}: {epsilon!r} is not max(1/4 - beta/2, 0) = {want!r}")
    if n < 1:  # before n sizes d and seed_points
        raise ValueError(f"{where('n')}: {n} is below 1")
    d = parse_ints(values["d"][1], where("d"), n)
    seeds = parse_ints(values["seed_points"][1], where("seed_points"), n)
    if lcm != math.lcm(*d):  # the one lcm that comes from outside the program
        raise ValueError(f"{where('lcm')}: stored lcm {lcm} is not lcm{d}")
    if D_master != lcm:  # as gen_exponents makes it
        raise ValueError(f"{where('D_master')}: {D_master} is not lcm{d} = {lcm}")

    def made(key: str, make, *args):  # make(*args), a refusal named on key's line
        try:
            return make(*args)
        except ValueError as exc:
            raise ValueError(f"{where(key)}: {exc}") from None

    # a rule across keys names the later key's line: n < q on n's, m <= k <= n on m's
    qm = made("q", prime_modulus, qv)
    if n >= qv:
        raise ValueError(f"{where('n')}: need n < q, got n={n}, q={qv}")
    if not 1 <= m <= k <= n:
        raise ValueError(f"{where('m')}: need 1 <= m <= k <= n, got m={m}, k={k}, n={n}")
    ev = made("d", ExponentVector, d)
    made("d", validate_exponents, ev, qv)
    A = made("seed_points", build_matrix, m, n, qm, seeds)
    return ExtractorSpec(q=qm, n=n, k=k, m=m, beta=beta, epsilon=epsilon, d=ev, A=A)


def save_spec(spec: ExtractorSpec, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(spec_to_text(spec))


def load_spec(path) -> ExtractorSpec:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:  # refused by line
        return spec_from_text(fh.read())
