"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads census,lr,queries --seeds 1-10 [--out FILE]

For every workload and metric it prints the median of the runs, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.  With
`--out` it also writes those figures and every run's values as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="census,lr,queries")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds_of(args.seeds)]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print("%-8s %-15s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f (bound %.2f)%s" % (
                workload, name, med, q1, q3, spread, bound, "" if spread < bound / 3 else "  *"), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
