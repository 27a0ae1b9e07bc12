"""Host-speed calibration, so that times taken at different moments compare.

The benchmark runs on shared cores whose speed swings by up to 1.5x, in
periods from a second to more than half a minute, as other tenants come and
go: on the reference host the mean speed over 30 s windows has an
interquartile spread of 20%, and no run is long enough to average that out.
So between operations the child interpreter times a fixed kernel of
small-integer and big-integer Python arithmetic, the kind of work the bound
engine does, and each operation's time is rescaled by REF_KERNEL_S over the
mean of the kernel times taken just before and just after it: the time it
would have taken at the reference speed.  The kernel runs outside the timed
operations and never changes, so a change to the program does not change
the factor.

Measured on the reference host, rescaling cut the run-to-run spread of the
query workload's median latency from 14% to 6%.  Work that is not interpreter
arithmetic follows the kernel less closely: the oracle's numpy search and
small-object allocation slow down less than the kernel on a busy host.

Importing (set-up) is file and memory work and follows the kernel poorly: on
a busy host it slowed by 1.8x while the kernel slowed by 1.2x.  Its
calibration is an import too: fresh interpreters that import numpy, the
package's one dependency, alternate with the ones that import
codebounds.cli, and set-up time is rescaled by REF_IMPORT_S over their
median.  Over 40 alternating pairs taken while the host's speed swung by 2x,
the median import time of codebounds.cli per block of five moved by 1.9x, its
ratio to numpy's by 19%.
"""

import time

# kernel time at the reference speed: about its time on a quiet 2-vCPU
# 2.1 GHz host (Python 3.11); it reads up to 1.5 ms when the host is busy
REF_KERNEL_S = 1.0e-3

# numpy's import time at the reference speed, the same host when quiet
REF_IMPORT_S = 0.09

_BIG = 3 ** 700


def _kernel() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i % 7
    for i in range(100):
        x += (_BIG + i) * (_BIG - i) // 97
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The kernel's time now: the fastest of three runs, which drops runs
    hit by an interrupt."""
    return min(_kernel() for _ in range(3))


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel timings to the
    reference speed."""
    return 2 * REF_KERNEL_S / (before + after)
