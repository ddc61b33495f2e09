"""Run the benchmark over several seeds and write a BENCH_<n>.json file.

    python3 perfbench/baseline.py --out perfbench/BENCH_0.json

For every workload it runs ``run.py`` once per seed 1-10 with tracing off
and records each run's metrics, then their median, quartiles and spread (the
distance between the quartiles as a share of the median).  It then takes
one traced run per workload at seed 7 for the per-layer metrics.  Every run
measures for run.py's default ``--seconds``.  The runs are sequential, so
that they do not compete for CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SECONDS, WORKLOADS, machine_facts  # noqa: E402

SEEDS = list(range(1, 11))


def run_once(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True,
                    help="write the results here as JSON")
    args = ap.parse_args(argv)
    doc = {"machine": machine_facts(), "seconds": DEFAULT_SECONDS,
           "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            res = run_once(workload, seed, 0)
            runs.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        entry = {"runs": [{"attempted": r["attempted"],
                           "failed": r["failed"]} for r in runs],
                 "end_to_end": summarize(runs)}
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"{s['unit']}, spread {s['spread']:.4f}", flush=True)
        entry["per_layer"] = run_once(workload, 7, 1)["metrics"]
        doc["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
