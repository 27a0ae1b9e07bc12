"""Self-test of the benchmark, in about a minute.

    python3 bench/selftest.py

Runs every workload declared in BENCHMARK.json at `--seconds 1`, untraced and
traced, and checks that each run passes its output checks and reports exactly
the declared metrics.  Then checks that a directory holding only the
benchmark, without the program, is refused without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in declared["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            proc = bench(ROOT, "--workload", workload["name"], "--seed", "1", "--seconds", "1", "--trace", trace)
            if proc.returncode != 0:
                fail(f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
                fail(f"{name}: {proc.stdout.splitlines()[-1][:500]}")
            if sorted(result["metrics"]) != sorted(m["name"] for m in declared[kind]):
                fail(f"{name}: metrics {sorted(result['metrics'])}")
            print(f"ok {name}: {result['attempted']} ops")
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(Path(tmp), "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"ran without the program: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    print("ok refused without the program")


if __name__ == "__main__":
    main()
