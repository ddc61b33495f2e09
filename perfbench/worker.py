"""One benchmark process: set up a workload, then run timed passes.

Started by run.py, never by hand.  It starts a speed probe (speed.py),
imports latticehk from the checkout's ``src`` directory, sets the workload up
(scenario validation and ``build_context``, or the kg-net universe) and writes
``ready <corrected s> <wall s>`` on stdout: the set-up time since this
module started to run in the fresh interpreter, speed-corrected and raw.  In
``run`` mode it then runs passes in a closed loop (one client, one process)
for the given number of seconds.  Every pass is checked against the
reference digest of its workload and variant.  The last stdout
line is a JSON object with the pass times, the failures and the process's
peak resident memory.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, so that the tracing overhead is measured in the
same process; the spans of the traced passes are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402


def import_program():
    """Import latticehk from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latticehk
    if Path(latticehk.__file__).resolve().parent != src / "latticehk":
        raise ImportError(f"latticehk imported from {latticehk.__file__}, "
                          f"not from {src}")


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def timed_passes(wl, seconds: float, expected, failures: list) -> list:
    """Closed loop: start a pass while time is left.  Returns the (start,
    end) of every pass; a pass that raises or whose digest differs from
    ``expected`` adds a line to ``failures``."""
    intervals = []
    begin = time.perf_counter()
    while not intervals or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        try:
            digest = wl.run_pass()
        except Exception as e:  # a raising pass is a failed pass
            failures.append(f"{type(e).__name__}: {e}")
        else:
            if digest != expected:
                failures.append(f"digest {digest[:16]} != reference "
                                f"{str(expected)[:16]}")
        intervals.append((t0, time.perf_counter()))
    return intervals


def write_spans(spans: list, name: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start", "end", "self_s"],
        "spans": spans}))
    return path


def traced_run(args, wl, probe, expected, failures):
    """Untraced passes, then traced ones.  Per-layer times are scaled by
    their pass's speed correction, like the pass times."""
    import spans
    import workloads
    check_ids = workloads.all_check_ids()
    plain = timed_passes(wl, args.seconds / 2, expected, failures)
    tracer = spans.Tracer()
    traced, per_pass, kept = [], [], []
    tracer.install()
    try:
        begin = time.perf_counter()
        while not traced or time.perf_counter() - begin < args.seconds / 2:
            tracer.reset()
            traced += timed_passes(wl, 0, expected, failures)
            per_pass.append((traced[-1], tracer.pass_metrics(check_ids)))
            kept += tracer.spans
    finally:
        tracer.remove()
    scales = [probe.nominal_seconds(t0, t1) / (t1 - t0)
              for (t0, t1), _ in per_pass]
    layers = {name: statistics.median(
        metrics[name] * (scale if name.endswith("_s") else 1)
        for scale, (_, metrics) in zip(scales, per_pass))
        for name in per_pass[0][1]}
    layers["trace.run_s"] = statistics.median(
        probe.nominal_seconds(*s) for s in traced)
    layers["trace.untraced_run_s"] = statistics.median(
        probe.nominal_seconds(*s) for s in plain)
    layers["trace.overhead_s"] = layers["trace.run_s"] - \
        layers["trace.untraced_run_s"]
    layers["trace.wall_run_s"] = statistics.median(t1 - t0
                                                   for t0, t1 in plain)
    path = write_spans(kept, args.workload, args.seed)
    return plain + traced, layers, str(path.relative_to(ROOT))


def run(args, wl, probe) -> dict:
    import workloads
    variant = args.seed % workloads.VARIANTS
    expected = load_reference().get(args.workload, {}).get(str(variant))
    failures: list[str] = []
    result = {"variant": variant}
    if args.trace:
        passes, result["layers"], result["spans_file"] = traced_run(
            args, wl, probe, expected, failures)
    else:
        passes = timed_passes(wl, args.seconds, expected, failures)
    result.update(
        pass_s=[probe.nominal_seconds(t0, t1) for t0, t1 in passes],
        wall_s=[t1 - t0 for t0, t1 in passes],
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024)
    return result


def record() -> dict:
    """Reference digests of every variant of every workload."""
    import workloads
    ref = {}
    for name in workloads.NAMES:
        ref[name] = {}
        for variant in range(workloads.VARIANTS):
            wl = workloads.make(name, variant)
            wl.setup()
            ref[name][str(variant)] = wl.run_pass()
            print(f"recorded {name} variant {variant}", file=sys.stderr,
                  flush=True)
    return ref


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=["setup", "run", "record"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.mode != "record" and None in (args.workload, args.seed,
                                          args.seconds, args.trace):
        ap.error("setup and run need --workload, --seed, --seconds and "
                 "--trace")
    out = sys.stdout
    sys.stdout = sys.stderr   # only this protocol writes to stdout
    try:
        import_program()
        if args.mode == "record":
            REFERENCE.write_text(json.dumps(record(), indent=1,
                                            sort_keys=True) + "\n")
            return 0
        import workloads
        wl = workloads.make(args.workload, args.seed)
        wl.setup()
        now = time.perf_counter()
        print(f"ready {probe.nominal_seconds(STARTED, now)} {now - STARTED}",
              file=out, flush=True)
        if args.mode == "run":
            print(json.dumps(run(args, wl, probe)), file=out, flush=True)
    finally:
        probe.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
