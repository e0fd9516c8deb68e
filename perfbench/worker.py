"""One child process of the benchmark: a measured run or a traced run of one
workload (set-up probes are `probe.py`).  Prints one JSON object as its last
line.

    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS INDEX
    python3 perfbench/worker.py trace WORKLOAD SEED
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
from collections import Counter

import program
import tracing
import workloads

TRACE_DIR = program.ROOT / ".perfbench-out"


def check(ops, outcomes, golden):
    """Compare each outcome with its golden record and the input's built-in
    expectation.  Returns per-op statuses: ok, escaped (an exception escaped,
    as it did when the golden data was made), unverified (it escaped then and
    returns now, so there is nothing to compare with) or mismatch."""
    statuses = []
    for op, outcome in zip(ops, outcomes):
        expected = golden.expected(op)
        if expected is None:
            status = "mismatch"
        elif outcome.exception is not None:
            status = "escaped" if expected[2] == outcome.exception else "mismatch"
        elif expected[2] is not None:
            status = "unverified"
        elif op.expect is not None and (outcome.exit_code, outcome.error_kind) != op.expect:
            status = "mismatch"
        else:
            status = "ok" if outcome.record() == expected else "mismatch"
        statuses.append(status)
    return statuses


FAILED = ("escaped", "mismatch")


class Tally:
    """Outcome counts over any number of passes."""

    def __init__(self):
        self.attempted = self.failed = self.unverified = 0
        self.mismatched = set()
        self.escaped = Counter()
        self.exit_codes = Counter()

    def add(self, ops, outcomes, statuses):
        for op, outcome, status in zip(ops, outcomes, statuses):
            self.attempted += op.weight
            self.failed += op.weight if status in FAILED else 0
            self.unverified += status == "unverified"
            if status == "mismatch":
                self.mismatched.add(op.key)
            if outcome.exception is not None:
                self.escaped[outcome.exception] += 1
            else:
                self.exit_codes[str(outcome.exit_code)] += 1

    def as_dict(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatched": sorted(self.mismatched),
            "unverified": self.unverified,
            "escaped": dict(self.escaped),
            "exit_codes": dict(self.exit_codes),
        }


def one_pass(main_of, ops):
    """Run every op of the pass once; returns the outcomes and the wall time."""
    outcomes = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        outcomes.append(program.call(main_of(i), op.argv))
    return outcomes, time.perf_counter() - start


def measure(workload, seed, seconds, index):
    """Closed loop, one client: whole passes until `seconds` have gone by.
    Each pass is checked against the golden data right after it and reduced
    to its ops per second, so that the harness's memory does not grow with
    the number of passes; the call times of the first pass are kept, so
    that every process gives each op one latency sample however fast the
    program is.  Process `index` runs the pass in its own order
    (`workloads.run_order`); call times are returned in the pass's order.
    Objects that exist before the loop (the harness's
    inputs and golden data) are frozen out of the collector, so its pauses
    come only from what the ops allocate."""
    canonical = workloads.build_pass(workload, seed)
    order = workloads.run_order(workload, seed, index, len(canonical))
    ops = [canonical[i] for i in order]
    golden = workloads.Golden()
    for op in ops:
        golden.expected(op)  # load census reports before the loop
    cli = program.load_cli()
    tally, rates, walls = Tally(), [], []
    gc.freeze()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        outcomes, wall = one_pass(lambda i: cli.main, ops)
        statuses = check(ops, outcomes, golden)
        tally.add(ops, outcomes, statuses)
        done = sum(op.weight for op, status in zip(ops, statuses) if status not in FAILED)
        rates.append(done / wall)
        walls.append(wall)
        if len(walls) == 1:
            call_ms = [None] * len(ops)
            for i, outcome, status in zip(order, outcomes, statuses):
                call_ms[i] = None if status in FAILED else outcome.seconds * 1e3
            digest = workloads.pass_digest(ops, [o.record() for o in outcomes], golden)
        del outcomes, statuses
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(
        tally.as_dict(),
        ops_per_s=rates,
        call_ms=call_ms,
        pass_walls=walls,
        peak_rss_kb=peak_kb,
        digest=digest,
        golden_digest=golden.digest(workload, seed),
    )


def trace(workload, seed):
    """One traced pass, then one untraced pass of the same ops."""
    ops = workloads.build_pass(workload, seed)
    cli = program.load_cli()
    tracer = tracing.Tracer()
    tracer.install()
    gc.freeze()

    def main_of(i):
        tracer.op_id = i
        return cli.main

    traced, traced_wall = one_pass(main_of, ops)
    tracer.uninstall()
    untraced, untraced_wall = one_pass(lambda i: cli.main, ops)
    golden = workloads.Golden()
    statuses = check(ops, traced, golden)
    untraced_statuses = check(ops, untraced, golden)
    done = sum(op.weight for op, s in zip(ops, statuses) if s not in FAILED)
    layer = tracing.layer_metrics(tracer, ops)
    tally = Tally()
    tally.add(ops, traced, statuses)
    tally.mismatched |= {op.key for op, s in zip(ops, untraced_statuses) if s == "mismatch"}
    result = tally.as_dict()
    layer["trace.traced_ops_per_s"] = (done / traced_wall, "1/s")
    layer["trace.untraced_ops_per_s"] = (done / untraced_wall, "1/s")
    layer["outcome.escaped"] = (sum(result["escaped"].values()), "count")
    layer["outcome.exit1"] = (result["exit_codes"].get("1", 0), "count")
    layer["outcome.exit2"] = (result["exit_codes"].get("2", 0), "count")
    tracer.dump(TRACE_DIR / ("trace-%s" % workload))
    return dict(result, metrics=layer, spans=len(tracer.start))


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    try:
        if mode == "measure":
            result = measure(workload, seed, float(argv[3]), int(argv[4]))
        else:
            result = trace(workload, seed)
    except program.ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
