"""Machine-speed reference, timed next to the measured work.

The benchmark machine (a shared 2-core Xeon) has stretches of minutes in
which everything on it runs 30–100% slower: the same knuth-yao IMCIS
repetition took 0.36 s in one stretch and 0.48–0.77 s half an hour
later, with nothing else running in the container. No amount of work within one run averages that out. So
every run also times this fixed kernel, which uses none of the program's
code, and ``ops_per_s`` is rated at the speed the kernel shows in the
same stretch of time: a slow stretch slows both and cancels.

The kernel mixes what the workloads spend their time on: small NumPy
ops and Dirichlet draws called from Python loops, a sparse mat-vec and a
log-sum-exp. Inside a :class:`Calibration` block it also runs from a
``SIGALRM`` handler every :data:`PERIOD_S` seconds, so a study run that
lasts many seconds gets samples from its whole length. The handler
pauses the run; :attr:`Calibration.paused` lets the caller subtract that
time again.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import sparse

#: Kernel seconds on the reference machine (2-core Xeon, numpy 2.4,
#: scipy 1.17, in a quiet stretch); rated throughputs read as if measured
#: there. The constant cancels in any comparison between runs.
REFERENCE_S = 0.0115
#: Seconds between kernel samples taken inside a run.
PERIOD_S = 0.5
#: Samples in one :meth:`Calibration.burst`.
BURST = 5


class Calibration:
    """Timings of the fixed kernel.

    Use as a context manager to sample periodically from a ``SIGALRM``
    handler (main thread only); :meth:`sample` takes one sample directly.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2018)
        self._alpha = rng.uniform(0.5, 3.0, size=8)
        self._counts = sparse.random(700, 20, density=0.15, format="csr", random_state=2018)
        self._log_a = np.log(rng.uniform(0.1, 1.0, size=20))
        self.samples: "list[float]" = []
        #: Seconds spent in the periodic handler so far.
        self.paused = 0.0
        self._previous = None
        self._busy = False

    def _kernel(self) -> float:
        rng = np.random.default_rng(7)
        total = 0.0
        for _ in range(150):
            rows = {state: rng.dirichlet(self._alpha) for state in range(6)}
            logs = np.log(np.concatenate(list(rows.values())))
            ratios = self._counts @ self._log_a - logs[:1].sum()
            peak = ratios.max()
            total += peak + float(np.log(np.exp(ratios - peak).sum()))
        return total

    def sample(self) -> float:
        """Time the kernel once; returns and records the seconds taken."""
        self._busy = True
        try:
            started = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - started
        finally:
            self._busy = False
        self.samples.append(elapsed)
        return elapsed

    def burst(self) -> None:
        """Take :data:`BURST` samples in a row.

        Single samples fall into a fast (~10 ms) and a slow (~17 ms) mode
        on the reference machine, so a span timed outside the kernel is
        rated by the median of bursts taken on either side of it.
        """
        for _ in range(BURST):
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # an alarm during a sample must not nest one
            self.paused += self.sample()

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self) -> "tuple[int, float]":
        """Open a measurement window: one sample, then a mark to close it."""
        self.sample()
        return len(self.samples) - 1, self.paused

    def close(self, mark: "tuple[int, float]") -> "tuple[float, float]":
        """Close the window opened at *mark*: one more sample, then the
        mean kernel seconds over the window and the seconds it was paused."""
        first, paused = mark
        paused = self.paused - paused
        self.sample()
        inside = self.samples[first:]
        return sum(inside) / len(inside), paused
