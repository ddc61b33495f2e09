"""Wall time corrected for the CPU's changing speed.

On a shared host a CPU can run the same code at very different speeds from
one second to the next.  On the 2-CPU box the baseline was taken on, each
CPU switched every few seconds between two speeds 1.5 to 2 times apart, and
the two CPUs switched independently.  Medians of raw pass times over 20 s then
moved by 10-40% between runs of the same input.

``SpeedProbe`` measures the speed of the CPU the process runs on while it
runs: every ``INTERVAL_S`` a timer signal runs a small fixed kernel and
records how long it took.  The kernel does what latticehk spends its time on,
``Fraction`` arithmetic, so it slows down as the program does; a kernel of
plain integer operations corrected kg-net pass times far less well (spread
of the corrected times 0.17 against 0.02 with this kernel).

``nominal_seconds`` turns a wall interval into the seconds it would have
taken at the nominal speed, at which the kernel takes ``NOMINAL_KERNEL_S``;
every stretch between two probes is scaled by the speed measured at its end.
That nominal speed is close to the faster of the two speeds of the baseline
box, so corrected times there are close to wall times on a quiet machine.
The probe costs about 1% of the process's time.  Work of other kinds
(integer elimination, set and dict work) is read a few per cent short in
slow phases; check_correction.py measures by how much.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
NOMINAL_KERNEL_S = 110e-6


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i, 7) * Fraction(3, i + 1)
    return s


class SpeedProbe:
    """Kernel timings taken from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel s)
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def nominal_seconds(self, t0: float, t1: float) -> float:
        """Seconds that the wall interval [t0, t1] takes at nominal speed."""
        samples = list(self.samples)   # the handler may append meanwhile
        ks = [k for _, k in samples]

        def speed_at(i):
            # a kernel run hit by an interrupt reads slow: smooth over three
            return statistics.median(ks[max(0, i - 1):i + 2])

        inside = [i for i, (t, _) in enumerate(samples) if t0 < t < t1]
        if not inside:
            before = [i for i, (t, _) in enumerate(samples) if t <= t0]
            k = speed_at(before[-1]) if before else NOMINAL_KERNEL_S
            return (t1 - t0) * NOMINAL_KERNEL_S / k
        total, edge = 0.0, t0
        for i in inside:
            total += (samples[i][0] - edge) / speed_at(i)
            edge = samples[i][0]
        total += (t1 - edge) / speed_at(inside[-1])
        return total * NOMINAL_KERNEL_S
