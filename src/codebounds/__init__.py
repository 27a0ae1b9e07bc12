"""Exact upper bounds on the dimension of systematic and linear codes.

The package has four layers: exact counting primitives (`exactmath`), the
bound engine (`bounds`, with the Krawtchouk-kernel machinery in
`levenshtein`), a brute-force oracle for tiny parameters (`oracle`), and a
reporting CLI (`cli`) that reproduces the reference comparison table shipped
as table1.csv.
"""

from .bounds import (
    BOUND_IDS,
    FEASIBLE,
    NOT_APPLICABLE,
    REFUTED,
    BoundResult,
    FeasibilityVerdict,
    best_upper_k,
    bound_a_check,
    bound_a_max_k,
    elias_max_size,
    griesmer_max_k,
    hamming_max_size,
    levenshtein_max_size,
    max_k_of,
    plotkin_max_size,
    singleton_max_k,
)
from .exactmath import (
    VARIANT_LITERAL,
    VARIANT_WEIGHT,
    binomial,
    floor_log_q,
    krawtchouk,
    sphere_volume,
    tail_mass,
    weight_count,
)
from .oracle import (
    CONFIRMED,
    DEFAULT_BUDGET,
    Code,
    EnumerationBudgetError,
    StandardFormGenerator,
    Word,
    best_linear_d,
    enumerate_linear_systematic,
    enumerate_systematic_nonlinear,
    hamming_distance,
    min_distance,
    refutation_crosscheck,
    translate_code,
    verify_injection_property,
    weight,
)

__version__ = "0.1.0"
