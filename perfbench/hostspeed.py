"""How long a job takes, on a host that does not hold still.

The benchmark's host shares its cores with other tenants, which slows a
job in two ways: the hypervisor takes the CPU away (steal), and the CPU
runs slower while the job has it.  Both swing by tens of percent within
seconds, which no median over one run can hide.  So:

* a job is timed by its main thread's CPU time (``time.thread_time``).  On
  a paravirtualized guest that excludes stolen time; the jobs are
  single-threaded and do no I/O, so on a quiet host it is their wall time.
  (Process CPU time would also count numpy's idle BLAS threads.)
* a probe times a fixed pure-Python loop every ``PERIOD`` seconds from a
  SIGALRM handler, in the same thread and on the same core as the job, so
  the loop slows down exactly when the job does.  A job's time is scaled by
  ``reference / (median loop time during the job)``: the seconds it would
  take on a host where the loop takes ``reference``.  The loop is benchmark
  code, so a change to the library cannot move it.

Time spent in the handler (under 1% of the job) is kept out of every
duration measured with :meth:`HostSpeed.clock`.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.05  # seconds between samples
_STEPS = 3000
_TABLE = tuple((i * 7919) & 0xFFFF for i in range(256))


def _loop() -> float:
    t0 = time.thread_time()
    acc = 0
    for i in range(_STEPS):
        acc = (acc * 31 + _TABLE[(acc ^ i) & 255]) & 0xFFFF
    return time.thread_time() - t0


class HostSpeed:
    """Samples the loop time from a timer signal until stopped."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, loop seconds)
        self.spent = 0.0  # thread CPU seconds spent in the handler

    def _tick(self, _signum, _frame) -> None:
        t0 = time.thread_time()
        self.samples.append((time.perf_counter(), _loop()))
        self.spent += time.thread_time() - t0

    def start(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """This thread's CPU seconds, less the time spent sampling."""
        return time.thread_time() - self.spent

    def loop_time(self, start: float, end: float, least: int = 5) -> float:
        """Median loop time over the samples taken between two perf_counter
        readings, widened to the ``least`` samples nearest the window's
        middle when it holds fewer (short jobs)."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < least:
            while len(self.samples) < least:
                self._tick(None, None)
            mid = (start + end) / 2
            inside = [s for _t, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:least]]
        return statistics.median(inside)
