"""Reference comparison table and the machinery to re-derive and diff it.

table1.csv holds the reference values this package reproduces: four blocks of
18 rows, each row pairing a competitor bound (g = Griesmer, h = Hamming,
l = Levenshtein, e = Elias) with the dimension cap of bound A at the same
(q, n, d).  The file is treated as golden; recomputation diffs against it.

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

import csv
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .bounds import BOUND_ALIASES, best_upper_k

# Not called here, but bench/tracer.py wraps these names on this module when
# it installs its spans, so they stay importable from it.
from .bounds import (  # noqa: F401
    bound_a_max_k,
    elias_max_size,
    griesmer_max_k,
    hamming_max_size,
    levenshtein_max_size,
)

__all__ = [
    "TableRow",
    "DiffReport",
    "Mismatch",
    "BLOCKS",
    "DOCUMENTED_ALLOWANCES",
    "load_table1",
    "recompute_row",
    "diff_table1",
]

BLOCKS = ("g", "h", "l", "e")

COMPETITOR_NAME = {"g": "k_g", "h": "k_h", "l": "k_l", "e": "k_e"}


@dataclass(frozen=True)
class TableRow:
    """One reference row: block id, parameters, competitor cap, bound-A cap."""

    block: str
    q: int
    n: int
    d: int
    k_competitor: int
    k_A: int


@dataclass(frozen=True)
class Mismatch:
    row: TableRow
    column: str  # "k_competitor" | "k_A"
    expected: int
    computed: int

    @property
    def key(self) -> tuple:
        return (self.row.block, self.row.q, self.row.n, self.row.d, self.column)


@dataclass
class DiffReport:
    """Outcome of re-deriving reference rows: success means no mismatches."""

    rows_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    documented_allowances: list[Mismatch] = field(default_factory=list)

    def passes(self, allow_documented: bool) -> bool:
        if self.mismatches:
            return False
        return allow_documented or not self.documented_allowances


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
    text = resources.files(__package__).joinpath("table1.csv").read_text(encoding="utf-8")
    reader = csv.DictReader(text.splitlines())
    expected_fields = ["block", "q", "n", "d", "k_competitor", "k_A"]
    if reader.fieldnames != expected_fields:
        raise ValueError(f"reference table header must be {','.join(expected_fields)}")
    rows = []
    for rec in reader:
        rows.append(TableRow(
            block=rec["block"],
            q=int(rec["q"]),
            n=int(rec["n"]),
            d=int(rec["d"]),
            k_competitor=int(rec["k_competitor"]),
            k_A=int(rec["k_A"]),
        ))
    return rows


def recompute_row(row: TableRow) -> tuple[int, int]:
    """Re-derive (k_competitor, k_A) for one row with the default settings
    (weight variant, ceiling-form Griesmer)."""
    if row.block not in BLOCKS:
        raise ValueError(f"unknown block {row.block!r}")
    competitor = BOUND_ALIASES[row.block]
    results, _ = best_upper_k(row.n, row.d, row.q, [competitor, "a"])
    k_max = {r.bound_id: r.k_max for r in results}
    return k_max[competitor], k_max["a"]


def diff_table1(blocks: Optional[set[str]] = None) -> DiffReport:
    """Recompute every selected row and classify each differing cell as a
    documented allowance or a plain mismatch."""
    report = DiffReport()
    for row in load_table1():
        if blocks is not None and row.block not in blocks:
            continue
        competitor, k_a = recompute_row(row)
        report.rows_checked += 1
        for column, expected, computed in (
            ("k_competitor", row.k_competitor, competitor),
            ("k_A", row.k_A, k_a),
        ):
            if expected == computed:
                continue
            mm = Mismatch(row, column, expected, computed)
            if mm.key in DOCUMENTED_ALLOWANCES:
                report.documented_allowances.append(mm)
            else:
                report.mismatches.append(mm)
    return report
