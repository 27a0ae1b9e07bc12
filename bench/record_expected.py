"""Record the output digests the benchmark checks against into expected.json.

    python3 bench/record_expected.py --seconds 12 --seeds 1-10

Run it on the commit whose outputs are the reference (the outputs must stay
byte-identical afterwards).  It records the gate queries, every sweep row up
to the longest run (`--seconds 60`), and the whole output of the query
workload for each pinned seed at the given run length.
"""

import argparse
import json
import sys

from run import BENCH, run_child
from workloads import GATE_DS, GATE_N, GATE_Q, digest, eval_argv, query, sweep


def outputs(argvs: list) -> list:
    report = run_child(argvs, trace=False)
    if report is None:
        sys.exit("child failed")
    return [r["out"] for r in report["results"]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="LO-HI, inclusive")
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    expected = {"query": {}, "gate": {}, "sweep": {}}
    for d in GATE_DS:
        expected["gate"][str(d)] = digest(outputs([eval_argv(GATE_Q, GATE_N, d)])[0])
    rows = sorted(sweep(0, 60).ops, key=lambda op: int(op.argvs[0][4]))
    for op, out in zip(rows, outputs([op.argvs[0] for op in rows])):
        expected["sweep"][op.argvs[0][4]] = digest(out)
    for seed in range(lo, hi + 1):
        wl = query(seed, args.seconds)
        per_q = len(wl.ops) // 3
        expected["query"][f"{seed}/{per_q}"] = digest("".join(outputs([op.argvs[0] for op in wl.ops])))
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
