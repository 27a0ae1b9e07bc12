"""The benchmark's workloads: inputs made from a seed, sized by the run length,
and the check each output must pass.

An operation is one or more CLI invocations whose summed time is one latency
sample.  Ops of an in-process workload run one after another in a single
fresh interpreter (one closed-loop client); ops of a fresh-process workload
each get their own interpreter, so nothing computed by one op can be reused
by the next.  No workload repeats a `(q, n)` pair inside one interpreter,
except the gate's fixed queries, which each run in their own process.

Run lengths are calibrated on the seed commit (2 vCPUs at 2.1 GHz, Python
3.11, host busy): at a given `--seconds` each workload does about that many
seconds of work there.  The amount of work is fixed by `--seconds` alone, so
a faster program does the same work in less time.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

BOUND_IDS = ("a", "elias", "griesmer", "hamming", "levenshtein", "plotkin", "singleton")

# eval at a (q, n) that no workload measures
WARMUP = ["eval", "--q", "7", "--n", "14", "--d", "5", "--bounds", "all"]

QUERY_N_MIN = 16
QUERY_N_MAX = {2: 250, 3: 160, 5: 100}
QUERY_PER_SECOND = 9.0  # eval queries per second of the query mix on the seed commit

GATE_Q, GATE_N, GATE_DS = 2, 500, (94, 95, 96)
GATE_OP_S = 1.4  # one gate query including interpreter start-up

SWEEP_Q, SWEEP_D_LO, SWEEP_D_HI = 2, 3, 25

REPRODUCE_ARGV = ["table1", "--block", "all", "--allow-documented"]
REPRODUCE_OP_S = 1.7
TABLE1_ROWS = 72
DOCUMENTED_CELLS = {
    ("g", "2", "80", "15", "k_g"),
    ("g", "5", "120", "16", "k_g"),
    ("h", "3", "76", "68", "k_A"),
}

# (q, n_max, k_max, d_max, refutations).  The q=2 box reaches the pure-Python
# nonlinear enumeration at (n=5, k=3); the q=3 box is linear-only and spends
# its time in the numpy search.  Both stay inside the default code budget.
ORACLE_BOXES = ((2, 5, 3, 3, 2), (3, 7, 6, 7, 33))
# run seconds per cross-check, which takes 5-7 s: a 12 s run makes three,
# whose median is steadier than the mean of two
ORACLE_OP_S = 4.5
# small boxes for runs shorter than one full cross-check (the self-test)
ORACLE_SMALL_BOXES = ((2, 4, 3, 3, 1), (3, 6, 5, 6, 18))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    argvs: list  # CLI invocations, run in order in one interpreter
    work: int  # work units done: queries, table cells, table rows or refutations
    check: Callable[[list], Optional[str]]  # results -> error message, None when correct


@dataclass
class Workload:
    name: str
    ops: list
    fresh: bool  # one interpreter per op, else one for all ops
    wall_latency: bool  # latency is the op's process wall time, start-up included
    work_unit: str
    pinned_digest: Optional[str] = None  # expected digest of all outputs in order


def eval_argv(q: int, n: int, d: int) -> list:
    return ["eval", "--q", str(q), "--n", str(n), "--d", str(d), "--bounds", "all"]


def check_eval(q: int, n: int, d: int, res: dict) -> Optional[str]:
    """Structural invariants of `eval --bounds all` output."""
    if res["rc"] != 0:
        return f"eval q={q} n={n} d={d}: exit {res['rc']}: {res['err'].strip()}"
    lines = res["out"].splitlines()
    if len(lines) != len(BOUND_IDS) + 1:
        return f"eval q={q} n={n} d={d}: {len(lines)} lines"
    caps = []
    for bound_id, line in zip(BOUND_IDS, lines):
        tokens = line.split()
        if tokens[0] != bound_id:
            return f"eval q={q} n={n} d={d}: expected bound {bound_id}, got {line!r}"
        fields = dict(t.split("=", 1) for t in tokens[1:3] if "=" in t)
        k = None if fields["k_max"] == "n/a" else int(fields["k_max"])
        if k is not None:
            caps.append(k)
        if bound_id == "singleton" and k != n - d + 1:
            return f"eval q={q} n={n} d={d}: singleton {k} != n-d+1"
        if "size_max" in fields:
            size = int(fields["size_max"])
            if not q ** k <= size < q ** (k + 1):
                return f"eval q={q} n={n} d={d}: {bound_id} size_max outside [q**k, q**(k+1))"
    if lines[-1] != f"min k_max={min(caps)}":
        return f"eval q={q} n={n} d={d}: {lines[-1]!r} is not the smallest cap {min(caps)}"
    return None


def _eval_op(q: int, n: int, d: int, expected: Optional[str] = None) -> Op:
    def check(results):
        err = check_eval(q, n, d, results[0])
        if err is None and expected is not None and digest(results[0]["out"]) != expected:
            err = f"eval q={q} n={n} d={d}: output differs from the seed commit"
        return err

    return Op([eval_argv(q, n, d)], 1, check)


def _nearest_unused(n: int, used: set, lo: int, hi: int) -> int:
    for step in range(hi - lo + 1):
        for cand in (n + step, n - step):
            if lo <= cand <= hi and cand not in used:
                return cand
    raise ValueError("no unused length left")


def query_points(seed: int, per_q: int) -> list:
    """(q, n, d) triples, per q stratified over (log n, d).

    Per q, n takes the midpoints of per_q equal slots of log n in
    16..n_max(q); d, uniform in 3..n//3, is drawn from per_q equal slots
    assigned to the n in seeded order.  The cost of a query depends mostly on
    n, so fixing the n of every slot keeps the mix of cheap and expensive
    queries the same for every seed.  Every (q, n) is distinct.
    """
    rng = random.Random(seed)
    points = []
    for q, n_max in QUERY_N_MAX.items():
        lo, hi = math.log(QUERY_N_MIN), math.log(n_max)
        d_slots = list(range(per_q))
        rng.shuffle(d_slots)
        used: set = set()
        for i in range(per_q):
            n = round(math.exp(lo + (i + 0.5) / per_q * (hi - lo)))
            n = _nearest_unused(n, used, QUERY_N_MIN, n_max)
            used.add(n)
            d_max = n // 3
            d = 3 + min(int((d_slots[i] + rng.random()) / per_q * (d_max - 2)), d_max - 3)
            points.append((q, n, d))
    rng.shuffle(points)
    return points


def query(seed: int, seconds: float) -> Workload:
    per_q = min(max(2, round(seconds * QUERY_PER_SECOND / 3)),
                min(n_max - QUERY_N_MIN + 1 for n_max in QUERY_N_MAX.values()))
    return Workload(
        "query", [_eval_op(*p) for p in query_points(seed, per_q)],
        fresh=False, wall_latency=False, work_unit="queries",
        pinned_digest=EXPECTED["query"].get(f"{seed}/{per_q}"),
    )


def gate(seed: int, seconds: float) -> Workload:
    rounds = max(1, round(seconds / (GATE_OP_S * len(GATE_DS))))
    ds = list(GATE_DS) * rounds
    random.Random(seed).shuffle(ds)
    ops = [_eval_op(GATE_Q, GATE_N, d, EXPECTED["gate"].get(str(d))) for d in ds]
    return Workload("gate", ops, fresh=True, wall_latency=False, work_unit="queries")


def sweep_n_max(seconds: float) -> int:
    # the sweep's cost grows about as n**3.5; 4..40 takes about 13 s
    return 4 + round(36 * (seconds / 13) ** (1 / 3.5))


def _sweep_op(n: int) -> Op:
    argv = ["table", "--q", str(SWEEP_Q), "--n", str(n),
            "--d-range", f"{SWEEP_D_LO}..{SWEEP_D_HI}", "--bounds", "all", "--format", "csv"]
    ds = range(SWEEP_D_LO, min(SWEEP_D_HI, n) + 1)
    expected = EXPECTED["sweep"].get(str(n))

    def check(results):
        res = results[0]
        if res["rc"] != 0:
            return f"table n={n}: exit {res['rc']}: {res['err'].strip()}"
        if expected is not None:
            return None if digest(res["out"]) == expected else f"table n={n}: output differs from the seed commit"
        lines = res["out"].splitlines()
        if lines[0] != ",".join(("q", "n", "d") + BOUND_IDS) or len(lines) != len(ds) + 1:
            return f"table n={n}: malformed table"
        for d, line in zip(ds, lines[1:]):
            cells = line.split(",")
            if cells[:3] != [str(SWEEP_Q), str(n), str(d)] or cells[-1] != str(n - d + 1):
                return f"table n={n}: bad row {line!r}"
        return None

    return Op([argv], len(ds), check)


def sweep(seed: int, seconds: float) -> Workload:
    ns = list(range(4, sweep_n_max(seconds) + 1))
    random.Random(seed).shuffle(ns)
    return Workload("sweep", [_sweep_op(n) for n in ns], fresh=False, wall_latency=False,
                    work_unit="cells")


def check_table1(results: list) -> Optional[str]:
    res = results[0]
    if res["rc"] != 0:
        return f"table1: exit {res['rc']}: {res['err'].strip()}"
    lines = res["out"].splitlines()
    if lines[0] != f"blocks g,h,l,e: {TABLE1_ROWS} rows checked":
        return f"table1: {lines[0]!r}"
    if lines[-1] != f"mismatches: 0 undocumented, {len(DOCUMENTED_CELLS)} documented":
        return f"table1: {lines[-1]!r}"
    cells = set()
    for line in lines:
        if line.startswith("  block ") and line.endswith(" [documented]"):
            tok = line.split()
            cells.add((tok[1].rstrip(":"),) + tuple(t.split("=")[1].rstrip(":") for t in tok[2:5]) + (tok[5],))
    if cells != DOCUMENTED_CELLS:
        return f"table1: documented cells {sorted(cells)}"
    return None


def reproduce(seed: int, seconds: float) -> Workload:
    ops = [Op([REPRODUCE_ARGV], TABLE1_ROWS, check_table1)
           for _ in range(max(1, round(seconds / REPRODUCE_OP_S)))]
    return Workload("reproduce", ops, fresh=True, wall_latency=True, work_unit="table rows")


def _oracle_op(boxes) -> Op:
    argvs = [["oracle", "refute-check", "--q", str(q), "--n-max", str(n), "--k-max", str(k), "--d-max", str(d)]
             for q, n, k, d, _ in boxes]

    def check(results):
        for (q, *_, refutations), res in zip(boxes, results):
            last = res["out"].splitlines()[-1] if res["out"] else ""
            if res["rc"] != 0 or last != f"{refutations} refutations cross-checked, 0 contradictions":
                return f"oracle q={q}: exit {res['rc']}, {last!r}"
        return None

    return Op(argvs, sum(b[-1] for b in boxes), check)


def oracle(seed: int, seconds: float) -> Workload:
    boxes = ORACLE_BOXES if seconds >= ORACLE_OP_S / 2 else ORACLE_SMALL_BOXES
    ops = [_oracle_op(boxes) for _ in range(max(1, round(seconds / ORACLE_OP_S)))]
    return Workload("oracle", ops, fresh=True, wall_latency=False, work_unit="refutations")


WORKLOADS = {w.__name__: w for w in (query, gate, sweep, reproduce, oracle)}
