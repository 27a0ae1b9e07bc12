"""Shared test helpers."""

import random
from itertools import product

from codebounds.bounds import REFUTED, FeasibilityVerdict, bound_a_check
from codebounds.exactmath import VARIANT_WEIGHT
from codebounds.oracle import Code, Word


def random_systematic_code(rng: random.Random) -> Code:
    """A random nonlinear systematic code at tiny parameters."""
    q = rng.choice([2, 3, 5])
    k = rng.randint(1, 2 if q == 5 else 3)
    m = rng.randint(1, 3)
    n = k + m
    prefixes = list(product(range(q), repeat=k))
    words = tuple(
        Word(p + tuple(rng.randrange(q) for _ in range(m)), q) for p in prefixes
    )
    return Code(q, n, words, systematic_k=k)


def refuting_also(n: int, k: int, d: int):
    """bound_a_check, except that it also refutes (n, k, d), at any q and
    variant: a stand-in for an unsound bound, to test that the oracle catches
    it."""
    def check(n_, k_, d_, q, variant=VARIANT_WEIGHT):
        if (n_, k_, d_) == (n, k, d):
            return FeasibilityVerdict(REFUTED, witness=1, lhs=1, rhs=0)
        return bound_a_check(n_, k_, d_, q, variant)

    return check
