"""Exact upper bounds on the dimension of systematic and linear codes.

The package has four layers: exact counting primitives (`exactmath`), the
bound engine (`bounds`, with the Krawtchouk-kernel machinery in
`levenshtein`), a brute-force oracle for tiny parameters (`oracle`), and a
reporting CLI (`cli`) that reproduces the reference comparison table shipped
as table1.csv.

The package root holds only the query entry point, `best_upper_k`, with its
result type and the bound ids; everything else is imported from its module.
"""

from .bounds import BOUND_IDS, BoundResult, best_upper_k

__version__ = "0.1.0"
