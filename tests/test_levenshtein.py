"""Kernel-polynomial bound: reference dimensions, soundness floors, internals."""

import hashlib
import json
from pathlib import Path

import pytest

from codebounds.exactmath import floor_log_q, krawtchouk
from codebounds.levenshtein import _KrawtchoukRows, levenshtein_max_size
from codebounds.oracle import best_linear_d


@pytest.mark.parametrize("n,d,q,k_expected", [
    (8, 3, 2, 5),
    (10, 3, 2, 7),
    (24, 5, 2, 17),
    (11, 3, 3, 9),
    (7, 3, 5, 5),
    (13, 5, 5, 9),
])
def test_reference_dimensions(n, d, q, k_expected):
    assert floor_log_q(levenshtein_max_size(n, d, q), q) == k_expected


def test_never_exceeds_trivial_count():
    for n, d, q in [(5, 2, 2), (9, 4, 3), (6, 6, 5), (3, 1, 2)]:
        assert levenshtein_max_size(n, d, q) <= q ** n


def test_distance_one_and_tiny_lengths_are_trivial():
    assert levenshtein_max_size(6, 1, 2) == 64
    assert levenshtein_max_size(2, 2, 3) == 9


def test_upper_bounds_actual_codes():
    # exhaustive small-scale optima give hard floors for any valid bound
    cases = [(7, 4, 2, 3), (6, 3, 2, 3), (5, 2, 2, 3)]
    for n, k, q, d in cases:
        assert best_linear_d(n, k, q) == d
        assert levenshtein_max_size(n, d, q) >= q ** k


def test_binary_perfect_code_floor():
    # A(7,3) = 16 via the perfect single-error-correcting code
    assert levenshtein_max_size(7, 3, 2) >= 16


def test_deterministic():
    assert levenshtein_max_size(24, 5, 2) == levenshtein_max_size(24, 5, 2)


def test_recurrence_table_matches_direct_formula():
    # including the x = -1 column used by the shifted kernels
    for m, q in [(7, 2), (6, 3), (5, 5)]:
        pts = list(range(-1, m + 1))
        table = _KrawtchoukRows(m, q, pts)
        for i in range(m + 1):
            row = table.row(i)
            for idx, y in enumerate(pts):
                assert row[idx] == krawtchouk(m, q, i, y), (m, q, i, y)


def test_values_match_pinned_digests():
    r"""Every bound for q in {2, 3, 5}, n in 3..40 and n = 120, all d, against
    digests recorded with the earlier exhaustive degree scan.  The file was
    made from the repository root with

    PYTHONPATH=src python -c 'import hashlib, json; from codebounds.levenshtein import levenshtein_max_size as L; print(json.dumps({f"{q}/{n}": hashlib.sha256("\n".join(str(L(n, d, q)) for d in range(1, n + 1)).encode()).hexdigest() for q in (2, 3, 5) for n in [*range(3, 41), 120]}, indent=1))' > tests/data/levenshtein_pin.json
    """
    pinned = json.loads((Path(__file__).parent / "data" / "levenshtein_pin.json").read_text())
    for key, expected in pinned.items():
        q, n = map(int, key.split("/"))
        values = "\n".join(str(levenshtein_max_size(n, d, q)) for d in range(1, n + 1))
        assert hashlib.sha256(values.encode()).hexdigest() == expected, key


def test_invalid_queries_rejected():
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 6, 2)
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 3, 1)
