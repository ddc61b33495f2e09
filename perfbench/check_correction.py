"""Check that the speed correction reads a program change as wall time does.

    python3 perfbench/check_correction.py --workload kg-net --seconds 120

``run_s`` and ``setup_s`` are wall times scaled by the speed of a
``Fraction`` kernel (speed.py).  If the host's slow phases slowed other kinds
of code by another factor, a change that moved work out of ``Fraction``
arithmetic would read differently in corrected time than in wall time.

This script measures how far that holds.  In one process it runs passes of
a workload, each followed by three fixed pieces of work: integer
fraction-free elimination (the work of an integer Bareiss path), dict,
frozenset and bitmask work (the work of a cache or of the site code), and
``Fraction`` arithmetic (a control: the probe's own kind of work).  Every
pass and every piece does the same work each time, so a correction that fits
it reads the same time whatever the CPU's speed.  For each kind the script
splits the timings into the half taken at the higher speed and the half
taken at the lower one, and prints the ratio of their corrected medians.
The speed of a timing is that of its whole round (the pass and the three
pieces, wall time over corrected time), so that noise in the probe's reading
of one piece does not decide which half the piece falls in.  A ratio of 1
means the correction fits that kind of work; 0.9 means that on the slower
CPU it reads that work 10% short.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

_rng = random.Random(0)
MATRIX = [[_rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]


def bareiss_work():
    """Forty fraction-free eliminations of a 40x40 integer matrix."""
    for _ in range(40):
        m = [row[:] for row in MATRIX]
        prev = 1
        for k in range(len(m) - 1):
            for i in range(k + 1, len(m)):
                for j in range(k + 1, len(m)):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]


def set_work():
    """Dict updates keyed by frozensets, with bitmask values."""
    seen = {}
    for i in range(250_000):
        key = frozenset(range(i % 50, i % 50 + 8))
        seen[key] = seen.get(key, 0) | (1 << (i % 60))


def fraction_work():
    """Sums of Fraction products, as in the speed probe's kernel."""
    s = Fraction(0)
    for i in range(1, 40_000):
        s += Fraction(i % 89, 7) * Fraction(3, i % 13 + 1)


KINDS = {"bareiss": bareiss_work, "set": set_work,
         "fraction": fraction_work}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    wl = workloads.make(args.workload, 7)
    wl.setup()
    probe = SpeedProbe()
    probe.start()
    rounds, timings = [], {kind: [] for kind in ("pass", *KINDS)}
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < args.seconds:
            start = t0 = time.perf_counter()
            wl.run_pass()
            timings["pass"].append((t0, time.perf_counter()))
            for kind, work in KINDS.items():
                t0 = time.perf_counter()
                work()
                timings[kind].append((t0, time.perf_counter()))
            rounds.append((start, time.perf_counter()))
    finally:
        probe.stop()
    speeds = [(t1 - t0) / probe.nominal_seconds(t0, t1) for t0, t1 in rounds]
    print(f"{args.workload}: {len(rounds)} rounds")
    for kind, intervals in timings.items():
        pairs = sorted((speed, probe.nominal_seconds(*i))
                       for speed, i in zip(speeds, intervals))
        half = len(pairs) // 2
        fast, slow = pairs[:half], pairs[-half:]
        ratio = statistics.median(c for _, c in slow) / \
            statistics.median(c for _, c in fast)
        print(f"{kind}: corrected {statistics.median(c for _, c in pairs):.4f}"
              f" s; slow/fast corrected {ratio:.3f} at speeds "
              f"{statistics.median(w for w, _ in fast):.2f} and "
              f"{statistics.median(w for w, _ in slow):.2f} wall/corrected "
              f"(rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
