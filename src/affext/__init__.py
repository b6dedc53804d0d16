"""Power-map affine extractors over prime fields, with a verification lab.

The construction: F(x) = A * x^d over F_q^n, where x^d raises coordinate j
to a fixed exponent d_j and A is an m-by-n Vandermonde matrix.  The exponents
come from divisors of a product of small primes coprime to q - 1, so every
coordinate map is a bijection and their degrees interlock; restricted to any
k-dimensional affine subspace the output is close to uniform on F_q^m.

The lab side measures that claim directly at desk scale: exact output
distributions over subspaces, exact statistical distance, character-sum
magnitudes, and each structural step of the argument as a checkable bound.
"""

from .config import (
    Budgets,
    BudgetExceededError,
    DEFAULT_TOLERANCE,
)
from .numtheory import (
    Factorization,
    PrimeModulus,
    factorize,
    first_primes_coprime,
    is_prime,
    prachar_average,
    prime_modulus,
)
from .extractor import (
    CoefficientMatrix,
    ExponentVector,
    ExtractorSpec,
    LcmBoundViolation,
    PlanWarning,
    build_matrix,
    build_spec,
    evaluate,
    evaluate_batch,
    gen_exponents,
    load_spec,
    plan_parameters,
    save_spec,
    verify_mds,
)
from .subspace import (
    AffineSubspace,
    Parametrization,
    canonicalize,
    count_affine_subspaces,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    load_subspaces,
    parametrize,
    random_subspace,
    save_subspaces,
)
from .analysis import (
    BoundReport,
    CharacterSum,
    DiagonalPolynomial,
    ExhaustiveSubspaces,
    ExplicitSubspaces,
    OutputDistribution,
    SampledSubspaces,
    SweepResult,
    character_magnitude,
    character_sum_subspace,
    deligne_battery,
    deligne_bound_check,
    output_distribution,
    statistical_distance,
    verify_extractor,
    write_reports_csv,
    write_summary,
    zero_coordinate_bound,
)

__version__ = "0.1.0"
