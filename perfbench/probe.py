"""Set-up probe of the benchmark: one fresh interpreter that times
`import schubrigid.cli` and the workload's first op.

    python3 perfbench/probe.py WORKLOAD SEED ARG...

ARG... is the argv of the pass's first op.  Before the clock stops nothing
is imported but what the interpreter has loaded at start-up (`sys`, `os`,
`io`, `time`), so the figure includes every module the package pulls in,
with its caches cold.  The harness modules that check the outcome are
imported after.  Prints one JSON object as its last line.
"""
import io
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def timed_first_op(argv):
    """Import the package and run `cli.main(argv)` once, with stdout and
    stderr captured.  Returns the module (None if the import failed), the
    seconds taken, and what the call returned, raised and printed."""
    sys.path.insert(0, SRC)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    cli = exit_code = exception = None
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        import schubrigid.cli as cli

        exit_code = cli.main(list(argv))
    except Exception as exc:  # an escaped exception is a measured outcome
        exception = type(exc).__name__
    finally:
        seconds = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return cli, seconds, exit_code, exception, out.getvalue(), err.getvalue()


def main(argv):
    workload, seed, op_argv = argv[0], int(argv[1]), tuple(argv[2:])
    cli, seconds, exit_code, exception, stdout, stderr = timed_first_op(op_argv)

    import json

    import program
    import worker
    import workloads

    if cli is not None:
        try:
            program.check_origin(cli)
        except program.ProgramMissing as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2
    first = workloads.build_pass(workload, seed)[0]
    result = program.outcome(op_argv, seconds, exit_code, exception, stdout, stderr)
    if first.argv != op_argv:
        status = "mismatch"
    else:
        (status,) = worker.check([first], [result], workloads.Golden())
    print(json.dumps({"setup_s": seconds, "status": status}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
