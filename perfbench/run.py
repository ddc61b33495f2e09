"""Benchmark of the latticehk workbench, run from the root of a checkout:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: field-descent, site-localization, kg-net, demo-mix (README.md says
why each exists).  The benchmark uses only the standard library; the program
is imported from the checkout's ``src`` directory.

It starts ``SETUP_SAMPLES`` fresh interpreters one after another, each of
which imports latticehk and sets the workload up; the last one then runs
timed passes in a closed loop for ``--seconds`` seconds and checks each pass
against the reference digest in ``reference.json``.  Times are corrected
for the CPU's changing speed (speed.py); the raw wall-time medians are
printed next to the corrected ones, and the traced run reports them as
metrics.  The human-readable lines name every metric with its unit; the last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` they are the per-layer ones from a traced run, including
the tracing overhead.  ``--record`` rewrites ``reference.json`` from the
current program instead; do that only at a commit whose verdicts are known to
be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib.util import find_spec
from pathlib import Path

from spans import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("field-descent", "site-localization", "kg-net", "demo-mix")
SETUP_SAMPLES = 15
DEFAULT_SECONDS = 20.0
DEADLINE_S = 170.0   # a run must end within 180 s
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio"))


class BenchError(Exception):
    pass


def machine_facts() -> dict:
    """The facts a result is only comparable under."""
    src = ROOT / "src" / "latticehk"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "gmpy2": find_spec("gmpy2") is not None,
            "commit": git_commit(ROOT),
            "src_sha256": h.hexdigest()}


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git work tree.  Git
    may not look above the checkout, so that a checkout that merely lies
    inside another repository reports None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tail_percentile(values):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it (nearest rank), or None when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def start_worker(mode, args, deadline):
    """Start a worker and wait until it is set up.  Returns it, its
    (speed-corrected, wall) set-up times, and a timer that kills it at the
    deadline."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    words = proc.stdout.readline().split()
    if len(words) != 3 or words[0] != "ready":
        finish(proc, timer)
        raise BenchError(f"{mode} worker failed before it was ready "
                         f"(exit code {proc.returncode})")
    return proc, (float(words[1]), float(words[2])), timer


def finish(proc, timer) -> str:
    """Read the rest of a worker's output and wait until it has ended."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return rest


def measure(args) -> tuple[list[tuple[float, float]], dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup, timer = start_worker("setup", args, deadline)
        finish(proc, timer)
        if proc.returncode != 0:
            raise BenchError(f"setup worker exit code {proc.returncode}")
        setups.append(setup)
    proc, setup, timer = start_worker("run", args, deadline)
    setups.append(setup)
    rest = finish(proc, timer)
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"run worker exit code {proc.returncode}")
    return setups, json.loads(lines[-1])


def report(args, setups, res) -> dict:
    facts = machine_facts()
    times = res["pass_s"]
    corrected_setups = [c for c, _ in setups]
    wall_setup = statistics.median(w for _, w in setups)
    attempted, failed = len(times), len(res["failures"])
    print(f"machine: python {facts['python']}, nproc {facts['nproc']}, "
          f"gmpy2 {'present' if facts['gmpy2'] else 'absent'}, "
          f"commit {facts['commit'] or 'unknown'}, "
          f"src sha256 {facts['src_sha256'][:16]}")
    print(f"workload: {args.workload}, seed {args.seed} (variant "
          f"{res['variant']}), {args.seconds:g} s closed loop, one client, "
          f"one process, jobs=1, trace {args.trace}")
    for reason in sorted(set(res["failures"])):
        print(f"failure: {reason}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:g} "
          f"(ratio)")
    if args.trace:
        metrics = {**res["layers"], "trace.wall_setup_s": wall_setup}
        print(f"spans: {res['spans_file']}")
    else:
        for label, values in (("speed-corrected", times),
                              ("wall", res["wall_s"])):
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                         "no percentile above the median has ten samples "
                         "beyond it")
            print(f"run_s ({label}): median "
                  f"{statistics.median(values):.4f} s, {tail_text}, "
                  f"n={attempted} passes")
        print(f"setup_s: median {statistics.median(corrected_setups):.4f} s "
              f"speed-corrected, {wall_setup:.4f} s wall, over "
              f"{len(setups)} fresh interpreters")
        metrics = {"run_s": statistics.median(times),
                   "setup_s": statistics.median(corrected_setups),
                   "peak_rss_mb": res["peak_rss_mb"],
                   "pass_ratio": (attempted - failed) / attempted}
    units = dict(END_TO_END)
    out = {}
    for name, value in metrics.items():
        unit = units.get(name) or metric_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="latticehk benchmark; see perfbench/README.md")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current program")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "latticehk" / "__init__.py").is_file():
        print(f"perfbench: no latticehk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record:
        return subprocess.run([sys.executable, str(WORKER), "record"],
                              cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")
    try:
        setups, res = measure(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, setups, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
