"""Benchmark of the codebounds CLI: one workload per run.

    python3 bench/run.py --workload query --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run first times fresh interpreters importing `codebounds.cli` (set-up), then
drives the workload through `codebounds.cli.main` in child interpreters,
checks every output, and prints one JSON line of run information followed by
the result as the last line of standard output.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the workload once untraced and once with
per-layer spans, and reports the per-layer metrics.  The metric names and
units are those declared in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from speed import REF_IMPORT_S  # noqa: E402
from tracer import layer_metrics, merge, percentile  # noqa: E402
from workloads import WARMUP, WORKLOADS, digest  # noqa: E402

SETUP_SAMPLES = 9  # imports timed, about half before and half after the ops
RUN_LIMIT_S = 170  # every child of a run is stopped by then


def _time_left(deadline):
    return None if deadline is None else max(1.0, deadline - time.monotonic())


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argvs: list, trace: bool, warmup=None, deadline=None):
    """Run CLI invocations in a fresh interpreter; None if it did not report
    or was stopped at the deadline (a time.monotonic() value)."""
    spec = json.dumps({"argvs": argvs, "warmup": warmup, "trace": trace})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")], input=spec, capture_output=True,
                              text=True, cwd=ROOT, env=_env(), timeout=_time_left(deadline))
    except subprocess.TimeoutExpired:
        print("child stopped at the run's deadline", file=sys.stderr)
        return None
    wall = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"child exited {proc.returncode} without a report:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    report["wall_s"] = wall
    return report


def import_s(module: str, deadline: float) -> float:
    """Seconds a fresh interpreter takes to import the module."""
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--import-time", module], capture_output=True,
                          text=True, cwd=ROOT, env=_env(), timeout=_time_left(deadline))
    if proc.returncode != 0:
        sys.exit(f"importing {module} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def measure_setup(samples: int, deadline: float) -> list:
    """(codebounds.cli, numpy) import times of fresh interpreters, in turn."""
    return [(import_s("codebounds.cli", deadline), import_s("numpy", deadline)) for _ in range(samples)]


def run_pass(wl, trace: bool, deadline: float) -> dict:
    """Run every op of the workload once and check its output.

    Latencies are in seconds at the reference speed (see speed.py); raw
    latencies are as measured.
    """
    groups = []  # (op, child report, results of the op) per op
    if wl.fresh:
        for op in wl.ops:
            rep = run_child(op.argvs, trace, deadline=deadline)
            groups.append((op, rep, rep and rep["results"]))
    else:
        rep = run_child([argv for op in wl.ops for argv in op.argvs], trace, WARMUP, deadline)
        results = iter(rep["results"] if rep else ())
        for op in wl.ops:
            groups.append((op, rep, rep and [next(results) for _ in op.argvs]))
    latencies, raw, work, failed, outputs = [], [], 0, 0, []
    for op, rep, results in groups:
        error = "no report from the child interpreter" if results is None else op.check(results)
        if error:
            failed += 1
            print(f"FAILED {wl.name}: {error}", file=sys.stderr)
        if results is None:
            continue
        outputs.extend(r["out"] for r in results)
        if wl.wall_latency:  # the whole interpreter's life, less the speed kernel
            raw.append(rep["wall_s"] - rep["kernel_s"])
            latencies.append(raw[-1] * statistics.mean(r["scale"] for r in results))
        else:
            raw.append(sum(r["s"] for r in results))
            latencies.append(sum(r["s"] * r["scale"] for r in results))
        work += op.work
    if wl.pinned_digest and failed == 0 and digest("".join(outputs)) != wl.pinned_digest:
        failed = len(wl.ops)
        print(f"FAILED {wl.name}: outputs differ from the seed commit", file=sys.stderr)
    reports = {id(rep): rep for _, rep, _ in groups if rep}.values()
    return {
        "latencies": latencies,
        "raw_latencies": raw,
        "work": work,
        "failed": failed,
        "attempted": len(wl.ops),
        "op_s": sum(r["s"] * r["scale"] for rep in reports for r in rep["results"]),
        "raw_op_s": sum(r["s"] for rep in reports for r in rep["results"]),
        "maxrss_kb": max((rep["maxrss_kb"] for rep in reports), default=0),
        "traces": [rep["trace"] for rep in reports if rep["trace"]],
    }


def git_revision():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "codebounds").rglob("*")):
        if path.suffix in (".py", ".csv"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "codebounds" / "cli.py").is_file():
        print(f"no codebounds package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "loadavg_start": os.getloadavg(),
    }
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        plain, traced = run_pass(wl, False, deadline), run_pass(wl, True, deadline)
        passes = (plain, traced)
        # spans are raw times; the overhead compares the passes at the reference speed
        values = layer_metrics(merge(traced["traces"]), traced["raw_op_s"], traced["op_s"] / plain["op_s"])
        declared_metrics = declared["per_layer"]
    else:
        setup = measure_setup(SETUP_SAMPLES // 2 + 1, deadline)
        plain = run_pass(wl, False, deadline)
        setup += measure_setup(SETUP_SAMPLES // 2, deadline)
        passes = (plain,)
        if not plain["latencies"]:
            sys.exit("no operation completed")
        lat_ms = [s * 1e3 for s in plain["latencies"]]
        raw_ms = [s * 1e3 for s in plain["raw_latencies"]]
        raw_setup = statistics.median(s for s, _ in setup)
        values = {
            "setup_s": raw_setup * REF_IMPORT_S / statistics.median(ref for _, ref in setup),
            "latency_p50_ms": statistics.median(lat_ms),
            "work_per_s": plain["work"] / sum(plain["latencies"]),
            "peak_rss_mb": plain["maxrss_kb"] / 1024,
        }
        info["samples"] = {"setup_s": len(setup), "latency": len(lat_ms)}
        info["latency_p90_ms"] = percentile(lat_ms, 90)
        info["work"] = f"{plain['work']} {wl.work_unit}"
        info["unscaled"] = {
            "setup_s": raw_setup,
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": percentile(raw_ms, 90),
            "work_per_s": plain["work"] / sum(plain["raw_latencies"]),
        }
        declared_metrics = declared["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared_metrics):
        sys.exit(f"metrics computed {sorted(values)} differ from BENCHMARK.json")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info["ops"] = len(wl.ops)
    info["error_rate"] = failed / attempted
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
