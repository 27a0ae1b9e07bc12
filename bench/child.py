"""Run codebounds CLI invocations in this fresh interpreter and report them.

    python3 bench/child.py < spec.json
    python3 bench/child.py --import-time MODULE

The first form reads one JSON object on stdin:
    {"argvs": [[...], ...], "warmup": [...] or null, "trace": false}
and prints one JSON line: per invocation its exit code, captured stdout and
stderr, the seconds spent in `cli.main` and the factor to the reference
speed (see speed.py); the seconds spent timing the speed kernel; the peak RSS
of this process; and, when traced, the per-layer span totals.  The warm-up
invocation runs first, untimed and untraced.

The second form prints the seconds importing MODULE takes.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from speed import kernel_s, scale  # noqa: E402
from tracer import Tracer  # noqa: E402


def run(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line this way
            rc = exc.code
    seconds = time.perf_counter() - t0
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": seconds}


def import_time(module: str) -> None:
    t0 = time.perf_counter()
    importlib.import_module(module)
    print(json.dumps(time.perf_counter() - t0))


def main() -> None:
    if sys.argv[1:2] == ["--import-time"]:
        import_time(sys.argv[2])
        return
    from codebounds import bounds, cli, golden, oracle

    spec = json.load(sys.stdin)
    if spec.get("warmup"):
        run(cli, spec["warmup"])
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install({"cli": cli, "bounds": bounds, "golden": golden, "oracle": oracle})
    results = []
    t0 = time.perf_counter()
    before = kernel_s()
    kernel_time = time.perf_counter() - t0
    try:
        for argv in spec["argvs"]:
            results.append(run(cli, argv))
            t0 = time.perf_counter()
            after = kernel_s()
            kernel_time += time.perf_counter() - t0
            results[-1]["scale"] = scale(before, after)
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({
        "results": results,
        "kernel_s": kernel_time,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.export() if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
