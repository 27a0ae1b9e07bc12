"""Per-layer spans recorded around calls into the codebounds modules.

The program is not edited: the tracer replaces module attributes with timing
wrappers and puts the originals back on `uninstall`.  A module calls another
layer through the name it imported, so each layer boundary is wrapped at the
import site where the call is made (for example `bounds.sphere_volume`, not
`exactmath.sphere_volume`).

Spans are folded into per-name totals when they close: calls, busy time, and
self time (busy time minus the time covered by child spans).  Durations are
kept for the names whose percentiles are reported.
"""

import statistics
import time
from dataclasses import dataclass, field

LEV = "levenshtein.levenshtein_max_size"
LINEAR = "oracle.best_linear_d_witness"
LINEAR_CODES = "oracle.best_linear_d_witness.codes"

# names whose span durations are kept, for percentiles
KEEP_DURATIONS = {LEV}

# the Levenshtein scan is exhaustive up to this length and uses a patience
# cutoff above it (levenshtein._EXHAUSTIVE_N), so time is split there
EXHAUSTIVE_N = 120


def _split_levenshtein(tracer, dt, n, d, q):
    tracer.add("levenshtein.n_le_120" if n <= EXHAUSTIVE_N else "levenshtein.n_gt_120", dt, dt)


def _count_linear_codes(tracer, dt, n, k, q, budget=None):
    # computed from the arguments, not counted: one code per tail matrix
    tracer.counters[LINEAR_CODES] += q ** (k * (n - k))


_BOUND_FUNCS = {
    "bound_a_max_k": "bounds.bound_a_max_k",
    "elias_max_size": "bounds.elias_max_size",
    "griesmer_max_k": "bounds.griesmer_max_k",
    "hamming_max_size": "bounds.hamming_max_size",
    "levenshtein_max_size": LEV,
}

# (module, attribute, span name, hook called after each span with its duration
# and the call's arguments)
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "best_upper_k", "bounds.best_upper_k", None),
    ("cli", "bound_a_check", "cli.bound_a_check", None),
    ("cli", "diff_table1", "golden.diff_table1", None),
    ("cli", "refutation_crosscheck", "oracle.refutation_crosscheck", None),
    ("bounds", "bound_a_check", "bounds.bound_a_check", None),
    ("bounds", "plotkin_max_size", "bounds.plotkin_max_size", None),
    ("bounds", "singleton_max_k", "bounds.singleton_max_k", None),
    ("bounds", "sphere_volume", "exactmath.sphere_volume", None),
    ("bounds", "floor_log_q", "exactmath.floor_log_q", None),
    ("golden", "load_table1", "golden.load_table1", None),
    ("golden", "recompute_row", "golden.recompute_row", None),
    ("oracle", "best_linear_d_witness", LINEAR, _count_linear_codes),
    ("oracle", "min_distance", "oracle.min_distance", None),
) + tuple(
    (module, attr, name, _split_levenshtein if name == LEV else None)
    for module in ("bounds", "golden")
    for attr, name in _BOUND_FUNCS.items()
)


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {LINEAR_CODES: 0}
        self._child_time: list[float] = []  # one entry per open span
        self._originals = []

    def add(self, name: str, busy: float, self_: float) -> None:
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.busy += busy
        st.self_ += self_
        if name in KEEP_DURATIONS:
            st.durations.append(busy)

    def _wrap(self, fn, name, hook):
        open_spans = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                self.add(name, dt, dt - children)
                if hook is not None:
                    hook(self, dt, *args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        for module, attr, name, hook in WRAPS:
            mod = modules[module]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def export(self) -> dict:
        return {
            "stats": {k: [s.calls, s.busy, s.self_, s.durations] for k, s in self.stats.items()},
            "counters": dict(self.counters),
        }


def merge(exports: list[dict]) -> dict:
    """Sum the exports of several traced processes."""
    stats: dict[str, Stat] = {}
    counters: dict[str, int] = {}
    for ex in exports:
        for name, (calls, busy, self_, durations) in ex["stats"].items():
            st = stats.setdefault(name, Stat())
            st.calls += calls
            st.busy += busy
            st.self_ += self_
            st.durations.extend(durations)
        for name, value in ex["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"stats": stats, "counters": counters}


def percentile(values: list, p: int) -> float:
    """p-th percentile (inclusive method); 0.0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(merged: dict, traced_s: float, overhead: float) -> dict:
    """The per-layer metrics of one traced run.

    traced_s is the summed time of the traced operations, as measured like
    the spans; overhead is the traced over the untraced time of the same
    operations.
    """
    stats, counters = merged["stats"], merged["counters"]

    def st(name):
        return stats.get(name, Stat())

    lev = st(LEV)
    linear = st(LINEAR)
    crosscheck = st("oracle.refutation_crosscheck")
    nonlinear_codes = st("oracle.min_distance").calls  # one call per enumerated nonlinear code
    m = {
        f"{LEV}.calls": lev.calls,
        f"{LEV}.busy_s": lev.busy,
        f"{LEV}.p50_ms": percentile(lev.durations, 50) * 1e3,
        f"{LEV}.p90_ms": percentile(lev.durations, 90) * 1e3,
        f"{LEV}.share": _rate(lev.busy, traced_s),
        "levenshtein.n_le_120.busy_s": st("levenshtein.n_le_120").busy,
        "levenshtein.n_gt_120.busy_s": st("levenshtein.n_gt_120").busy,
        "bounds.best_upper_k.calls": st("bounds.best_upper_k").calls,
        "bounds.best_upper_k.self_s": st("bounds.best_upper_k").self_,
        "bounds.bound_a_max_k.busy_s": st("bounds.bound_a_max_k").busy,
        "bounds.bound_a_check.calls": st("bounds.bound_a_check").calls,
    }
    for name in ("elias_max_size", "hamming_max_size", "griesmer_max_k", "plotkin_max_size", "singleton_max_k"):
        m[f"bounds.{name}.busy_s"] = st(f"bounds.{name}").busy
    for name in ("sphere_volume", "floor_log_q"):
        m[f"exactmath.{name}.calls"] = st(f"exactmath.{name}").calls
        m[f"exactmath.{name}.busy_s"] = st(f"exactmath.{name}").busy
    m.update({
        "cli.self_s": st("cli.main").self_,
        "cli.bound_a_check.calls": st("cli.bound_a_check").calls,
        "golden.load_table1.busy_s": st("golden.load_table1").busy,
        "golden.recompute_row.calls": st("golden.recompute_row").calls,
        "golden.recompute_row.busy_s": st("golden.recompute_row").busy,
        "golden.diff_table1.self_s": st("golden.diff_table1").self_,
        f"{LINEAR}.calls": linear.calls,
        f"{LINEAR}.busy_s": linear.busy,
        LINEAR_CODES: counters.get(LINEAR_CODES, 0),
        "oracle.linear.codes_per_s": _rate(counters.get(LINEAR_CODES, 0), linear.busy),
        "oracle.min_distance.calls": st("oracle.min_distance").calls,
        "oracle.min_distance.busy_s": st("oracle.min_distance").busy,
        "oracle.refutation_crosscheck.self_s": crosscheck.self_,
        "oracle.nonlinear.codes": nonlinear_codes,
        # the nonlinear phase is everything in the cross-check after the linear search
        "oracle.nonlinear.codes_per_s": _rate(nonlinear_codes, crosscheck.busy - linear.busy),
        "trace.overhead": overhead,
    })
    return m
