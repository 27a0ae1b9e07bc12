"""Reference comparison table and the machinery to re-derive and diff it.

table1.csv holds the reference values this package reproduces: four blocks of
18 rows, each row pairing a competitor bound (g = Griesmer, h = Hamming,
l = Levenshtein, e = Elias) with the dimension cap of bound A at the same
(q, n, d).  The file is treated as golden; recomputation diffs against it.
The block ids, BLOCKS, are the aliases of the four competitors in the
table of bounds, bounds.BOUNDS; they live beside it and are re-exported
here.  The CLI loads this module only for its table1 command.

Three cells of the reference table disagree with exact recomputation and are
carried as documented allowances rather than silently patched:

* block g, q=2, n=80, d=15: published k_g = 54, but the ceiling-form sum
  reaches exactly 80 at k = 55, so the bound is 55.
* block g, q=5, n=120, d=16: published k_g = 101; the ceiling-form sum gives
  16 + 4 + 100 = 120 at k = 102, so the bound is 102.
* block h, q=3, n=76, d=68: published k_A = 8, which is what the literal
  tail-mass variant yields (at k = 9, i = 1 it compares 18 > 2); the default
  weight variant counts the full tail mass 2**67 there and yields 9.
"""

import os
from typing import NamedTuple, Optional

from .bounds import BLOCKS, BOUND_ALIASES, best_upper_k

# Not called here: recompute_row reaches the bounds through best_upper_k and
# the table of bounds.  bench/tracer.py still wraps these names on this
# module when it installs its spans, so they stay importable from it.
from .bounds import (  # noqa: F401
    bound_a_max_k,
    elias_max_size,
    griesmer_max_k,
    hamming_max_size,
    levenshtein_max_size,
)

__all__ = [
    "TableRow",
    "Mismatch",
    "BLOCKS",
    "DOCUMENTED_ALLOWANCES",
    "load_table1",
    "recompute_row",
    "diff_table1",
]


class TableRow(NamedTuple):
    """One reference row: block id, parameters, competitor cap, bound-A cap."""

    block: str
    q: int
    n: int
    d: int
    k_competitor: int
    k_A: int


class Mismatch(NamedTuple):
    """One cell where exact recomputation differs from the published table.

    note is the cell's entry in DOCUMENTED_ALLOWANCES, the reason the
    published value differs, or None for a cell no allowance covers.
    """

    row: TableRow
    column: str  # "k_competitor" | "k_A"
    expected: int
    computed: int
    note: Optional[str] = None


# (block, q, n, d, column) -> reason the published cell differs from exact
# recomputation; see the module docstring for the arithmetic.
DOCUMENTED_ALLOWANCES: dict[tuple, str] = {
    ("g", 2, 80, 15, "k_competitor"):
        "ceiling-form sum equals 80 exactly at k = 55; published 54 is one short",
    ("g", 5, 120, 16, "k_competitor"):
        "ceiling-form sum equals 120 exactly at k = 102; published 101 is one short",
    ("h", 3, 76, 68, "k_A"):
        "published value matches the literal tail-mass variant (refutes k = 9 via "
        "18 > 2 at i = 1); the weight variant admits k = 9",
}


def load_table1() -> list[TableRow]:
    """Parse the embedded reference table."""
    text = __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "table1.csv")).decode("utf-8")
    header, *lines = text.splitlines()
    # the header names TableRow's fields in order; every field after block is an integer
    expected_header = ",".join(TableRow._fields)
    if header != expected_header:
        raise ValueError(f"reference table header must be {expected_header}")
    return [TableRow(block, *map(int, rest)) for block, *rest in (line.split(",") for line in lines)]


def recompute_row(row: TableRow) -> tuple[int, int]:
    """Re-derive (k_competitor, k_A) for one row with the default settings
    (weight variant, ceiling-form Griesmer)."""
    if row.block not in BLOCKS:
        raise ValueError(f"unknown block {row.block!r}")
    competitor = BOUND_ALIASES[row.block]
    caps = {r.bound_id: r.k_max for r in best_upper_k(row.n, row.d, row.q, [competitor, "a"])[0]}
    return caps[competitor], caps["a"]


def diff_table1(blocks: tuple[str, ...]) -> tuple[int, list[Mismatch]]:
    """Recompute every row of the selected blocks.

    Returns the number of rows checked and every differing cell: first the
    undocumented ones (note None), then those with a documented allowance,
    each group in table order.  The table reproduces only when the list is
    empty, or, if documented allowances are accepted, when every note is set.
    """
    rows = [row for row in load_table1() if row.block in blocks]
    mismatches = []
    for row in rows:
        competitor, k_a = recompute_row(row)
        for column, expected, computed in (
            ("k_competitor", row.k_competitor, competitor),
            ("k_A", row.k_A, k_a),
        ):
            if expected != computed:
                note = DOCUMENTED_ALLOWANCES.get((row.block, row.q, row.n, row.d, column))
                mismatches.append(Mismatch(row, column, expected, computed, note))
    return len(rows), sorted(mismatches, key=lambda mm: mm.note is not None)
