"""The schubrigid benchmark.

    python3 perfbench/run.py --workload census|lr|queries|all --seed 0 --seconds 30 --trace 0

Runs each workload in its own child process, one at a time, with one
closed-loop client.  With `--trace 0` it prints the end-to-end metrics:
a few measured runs of whole passes (MEASURE_CHILDREN) that share `--seconds`
(`ops_per_s` is the median over all their passes, and each op's latency is
the least of its times in their first passes), plus PROBES_PER_CHILD fresh
interpreters before each of them that time `import schubrigid.cli` and the
first op (`probe.py`).
With `--trace 1` it prints the per-layer metrics of one traced pass.  Every
op's outcome is checked against the golden data in `perfbench/golden/`; the
last line of stdout is one JSON object, and a mismatch makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYCACHE = ROOT / ".perfbench-out" / "pycache"
PROBES_PER_CHILD = 3
# Measuring processes per run.  How fast a process runs the program drifts by
# several per cent from one process to the next and over seconds (a shared
# host), most for calls of a few ms; six processes, one after the other, put
# six such draws under every figure.
MEASURE_CHILDREN = 6
# Each child has its own deadline: a probe is one import and one op, a traced
# run is one pass whatever --seconds is, and a measured run ends with the
# first whole pass after its share of --seconds (census passes take about 3 s).
PROBE_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 170
MEASURE_SLACK_S = 60

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child(script, args, timeout):
    """Run one child to completion and return its JSON result.  The hash
    seed is pinned so that traced call counts repeat exactly.  Bytecode is
    cached in PYCACHE, and only there, whatever the environment says, so
    that set-up time never includes compiling the package (the first probe
    of a checkout fills the cache; set-up time is a median)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise ChildFailed("%s %s exited %d:\n%s" % (script, args[:2], proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(runs):
    """Outcome counts of several measured runs as one."""
    total = dict(runs[0], mismatched=sorted({k for r in runs for k in r["mismatched"]}))
    for key in ("attempted", "failed", "unverified"):
        total[key] = sum(r[key] for r in runs)
    for key in ("escaped", "exit_codes"):
        total[key] = dict(sum((Counter(r[key]) for r in runs), Counter()))
    return total


def end_to_end(workload, seed, seconds, report):
    """`ops_per_s` is the median over the passes of MEASURE_CHILDREN
    processes that share `seconds`, so that no one process's memory layout
    decides the figures; the latency percentiles are taken over the ops of
    the pass, each op timed by the least of its times in the first pass of
    each process (`metrics.op_latencies`); set-up time is the median over
    the fresh interpreters of PROBES_PER_CHILD probes run before each
    process, so that they sample the whole run and not one moment of it."""
    ops = workloads.build_pass(workload, seed)
    share = seconds / MEASURE_CHILDREN
    probes, runs = [], []
    for index in range(MEASURE_CHILDREN):
        probes += [
            child("probe.py", [workload, seed, *ops[0].argv], PROBE_TIMEOUT_S)
            for _ in range(PROBES_PER_CHILD)
        ]
        runs.append(child("worker.py", ["measure", workload, seed, share, index], share + MEASURE_SLACK_S))
    latencies = metrics.op_latencies([r["call_ms"] for r in runs], [op.weight for op in ops])
    p90, q90 = metrics.tail_percentile(latencies, 0.90)
    p99, q99 = metrics.tail_percentile(latencies, 0.99)
    out = {
        "ops_per_s": statistics.median(rate for r in runs for rate in r["ops_per_s"]),
        "latency_p50_ms": metrics.median(latencies),
        "latency_p90_ms": p90,
        "latency_p99_ms": p99,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024.0,
    }
    run = merge(runs)
    report("%d passes in %d processes over %.2f s; %d latency samples (one per op, the least of %d first passes), "
           "p90 taken at q=%.4f, p99 at q=%.4f"
           % (sum(len(r["pass_walls"]) for r in runs), len(runs), sum(sum(r["pass_walls"]) for r in runs),
              len(latencies), len(runs), q90, q99))
    bad_probes = [p["status"] for p in probes if p["status"] not in ("ok", "escaped", "unverified")]
    if bad_probes:
        run["mismatched"].append("set-up probe: %s" % bad_probes[0])
    digests = sorted({r["digest"] for r in runs})
    golden = run["golden_digest"]
    if golden is not None and digests != [golden]:
        run["mismatched"].append("pass digest %s != golden %s" % (",".join(digests), golden))
    report("pass digest %s (%s)" % (
        ",".join(digests),
        "no golden digest for this seed" if golden is None
        else "golden match" if digests == [golden] else "GOLDEN MISMATCH"))
    return run, {name: (value, END_TO_END[name]) for name, value in out.items()}


def traced(workload, seed, report):
    run = child("worker.py", ["trace", workload, seed], TRACE_TIMEOUT_S)
    report("one traced pass: %d spans; traced %.1f ops/s vs untraced %.1f ops/s" % (
        run["spans"], run["metrics"]["trace.traced_ops_per_s"][0],
        run["metrics"]["trace.untraced_ops_per_s"][0]))
    return run, {name: tuple(value) for name, value in run["metrics"].items()}


def run_workload(workload, seed, seconds, trace):
    def report(line):
        print("[%s] %s" % (workload, line))

    if trace:
        run, values = traced(workload, seed, report)
    else:
        run, values = end_to_end(workload, seed, seconds, report)
    for name, (value, unit) in values.items():
        report("%-34s %14.6g %s" % (name, value, unit))
    report("attempted %d, failed %d (error share %.4f), unverified %d, escaped exceptions %s, exit codes %s"
           % (run["attempted"], run["failed"], run["failed"] / run["attempted"],
              run["unverified"], run["escaped"] or "none", run["exit_codes"]))
    for key in run["mismatched"][:10]:
        report("MISMATCH %s" % key)
    return {
        "correct": not run["mismatched"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schubrigid" / "cli.py").is_file():
        print("perfbench: no src/schubrigid/cli.py under %s" % ROOT, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
