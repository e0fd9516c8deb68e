"""Build the benchmark's input universes and golden outcomes.

    python3 perfbench/make_data.py                # everything
    python3 perfbench/make_data.py --digests-only # only golden/digests.json
    python3 perfbench/make_data.py --lr-costs     # re-time lr products, then digests

Writes `perfbench/data/*.json` (every input a workload may draw, with the
cost each op took here, which the lr sampler uses to stratify) and
`perfbench/golden/` (the outcome of every input: exit code, JSON error kind,
escaped exception type and stdout digest; census reports in full).  Run it
only on a commit whose outputs are trusted: the golden files are the
reference every later run is checked against.  `--digests-only` rebuilds
just the seed-0 pass digests from the stored golden records, without running
the program, after a change to how passes are drawn; `--lr-costs` re-times
the stored lr products (their outcomes are not touched) and rebuilds them too.
"""
from __future__ import annotations

import gc
import gzip
import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402
import workloads  # noqa: E402

UNIVERSE_SEED = 20240121
# Products slower than this when the universe is built are left out, so that a
# 15 s run holds a few passes of 100+ products.  G(12,24) squares (49 s) are
# out for the same reason.
LR_CEILING_MS = 300.0
# The lr sampler pairs products by cost, so each cost is timed as a pass sees
# it: every product once per round, in a new shuffled order each round.
LR_COST_ROUNDS = 7

# Census: one space per kind; SG first, because the first op is also the
# set-up probe and should cost little next to the import.
CENSUS_SPACES = ["SG(6,14)", "G(6,14)", "F(1,2,3,4;8)", "OG(7,17)", "OF(2,4;13)", "SF(2,4;12)"]

QUERY_SPACES = [
    "G(3,7)", "G(4,9)", "F(1,3;6)", "F(1,2,4;6)", "OG(3,8)", "OG(4,11)",
    "OF(1,3;9)", "OF(2,3;10)", "SG(3,8)", "SG(4,10)", "SF(1,3;8)", "SF(2,3;10)",
]
PRODUCT_SPACES = ["G(3,6)", "G(4,8)", "G(5,10)"]
INDICES_PER_SPACE = 40
PRODUCTS_PER_SPACE = 60


def space_kind(space_text):
    return space_text.split("(", 1)[0]


def random_partition(rng, rows, width, size):
    """A partition of `size` cells inside a rows x width box, grown cell by cell."""
    size = max(0, min(size, rows * width))
    lam = [0] * rows
    for _ in range(size):
        open_rows = [i for i in range(rows) if lam[i] < width and (i == 0 or lam[i] < lam[i - 1])]
        lam[rng.choice(open_rows)] += 1
    return lam


def grass_literal(k, n, lam):
    """The G(k,n) index literal of partition `lam`: a_i = n - k + i - lam_i."""
    lam = list(lam) + [0] * (k - len(lam))
    a = [n - k + i - part for i, part in enumerate(lam, start=1)]
    return "%s @ G(%d,%d)" % (",".join(map(str, a)), k, n)


def product_argv(rng, k, n, lam_size, mu_size):
    lam = random_partition(rng, k, n - k, lam_size)
    mu = random_partition(rng, k, n - k, mu_size)
    return ["product", grass_literal(k, n, lam), grass_literal(k, n, mu), "--json"]


def lr_universe(rng):
    """(shape, argv) pairs: square, rectangle and thin boxes, plus deep thin products."""
    ops = []
    for k in range(5, 11):
        box = k * k
        for _ in range(40):
            sizes = [rng.randint(-(-box // 4), box // 2) for _ in range(2)]
            ops.append(("square", product_argv(rng, k, 2 * k, *sizes)))
    for _ in range(120):
        k = rng.choice((3, 4))
        n = rng.randint(k + 8, 40)
        box = k * (n - k)
        ops.append(("rect", product_argv(rng, k, n, rng.randint(1, box // 4), rng.randint(1, box // 4))))
    for _ in range(120):
        if rng.random() < 0.5:
            k, n, mu_max = 2, rng.randint(40, 1200), 300
        else:
            k, n, mu_max = 3, rng.randint(20, 240), 40
        box = k * (n - k)
        ops.append(("thin", product_argv(rng, k, n, rng.randint(0, box), rng.randint(1, mu_max))))
    # |mu| >= 1100 in G(2,n): the tableau search recurses once per cell and
    # raises RecursionError today.  Kept on purpose; it counts as a failure.
    for _ in range(20):
        n = rng.randint(1150, 1200)
        lam = random_partition(rng, 2, n - 2, rng.randint(0, 50))
        mu = [rng.randint(1100, n - 2), rng.randint(0, 50)]
        ops.append(("deep", ["product", grass_literal(2, n, lam), grass_literal(2, n, mu), "--json"]))
    return ops


def _literals(space_text, rng):
    from schubrigid import enumerate_indices, parse_space, render_literal

    space = parse_space(space_text)
    literals = [render_literal(space, idx) for idx in enumerate_indices(space)]
    return rng.sample(literals, min(INDICES_PER_SPACE, len(literals)))


def _essential_refs(main, literal):
    outcome = program.call(main, ["essential", literal, "--json"], keep_text=True)
    return {"%s%d" % (r["side"], r["position"]) for r in json.loads(outcome.text)["essential"]}


def _all_refs(literal):
    body = literal.split("@", 1)[0].strip()
    if body.startswith("("):
        a_part, b_part = body[1:-1].split("|")
    else:
        a_part, b_part = body, ""
    count = lambda part: len([x for x in part.split(",") if x.strip()])  # noqa: E731
    return ["a%d" % i for i in range(1, count(a_part) + 1)] + [
        "b%d" % j for j in range(1, count(b_part) + 1)
    ]


def _blocks(space_text):
    inner = space_text.split("(", 1)[1].split(";")[0]
    return len(inner.split(","))


def queries_universe(main, rng):
    """Valid queries per (command, space) cell, plus built-to-fail ones (exit 1)."""
    valid, invalid = [], []

    def add(command, space_text, argv):
        valid.append({"cell": "%s %s" % (command, space_text), "command": command,
                      "kind": space_kind(space_text), "argv": argv})

    def bad(space_text, argv, error_kind):
        invalid.append({"cell": "invalid", "command": argv[0], "kind": space_kind(space_text),
                        "argv": argv, "expect": [1, error_kind]})

    for space_text in QUERY_SPACES:
        kind = space_kind(space_text)
        blocks = _blocks(space_text)
        for literal in _literals(space_text, rng):
            for command in ("rigid", "essential", "validate"):
                add(command, space_text, [command, literal, "--json"])
            essential = _essential_refs(main, literal)
            for ref in sorted(essential):
                add("rigid-sub", space_text, ["rigid", literal, "--sub", ref, "--json"])
            for ref in sorted(set(_all_refs(literal)) - essential):
                bad(space_text, ["rigid", literal, "--sub", ref, "--json"], "validation")
            if kind in ("G", "OG"):
                add("multirigid", space_text, ["multirigid", literal, "--json"])
            else:
                bad(space_text, ["multirigid", literal, "--json"], "validation")
            if kind in ("G", "F"):
                add("dual", space_text, ["dual", literal, "--json"])
                add("dim", space_text, ["dim", literal, "--json"])
            if kind in ("F", "OF", "SF"):
                for t in range(1, blocks):
                    add("push", space_text, ["push", literal, "--t", str(t), "--json"])
            if kind in ("F", "OF"):
                for t in range(1, blocks):
                    add("fiber", space_text, ["fiber", literal, "--t", str(t), "--json"])
            if kind in ("SG", "SF"):
                bad(space_text, ["fiber", literal, "--t", "1", "--json"], "validation")
            if kind == "OG":
                add("expand-from", space_text, ["expand", literal, "--from-schubert", "--json"])
                add("expand-to-grass", space_text, ["expand", literal, "--to-grass", "--json"])
            bad(space_text, ["essential", literal[:-1], "--json"], "parse")
    for space_text in PRODUCT_SPACES:
        k, n = (int(x) for x in space_text[2:-1].split(","))
        for _ in range(PRODUCTS_PER_SPACE):
            box = k * (n - k)
            add("product", space_text, product_argv(rng, k, n, rng.randint(0, box // 2), rng.randint(0, box // 2)))
        bad(space_text, ["product", grass_literal(k, n, [1]), grass_literal(k, n + 1, [1]), "--json"], "validation")
        # lambda_k > lambda_{k-1}: the a entries come out decreasing
        bad(space_text, ["dim", grass_literal(k, n, [0] * (k - 1) + [n - k + 1]), "--json"], "validation")
    return valid + invalid


def measure(main, argv, repeats):
    outcomes = [program.call(main, argv) for _ in range(repeats)]
    records = {json.dumps(o.record()) for o in outcomes}
    if len(records) != 1:
        raise SystemExit("nondeterministic outcome for %s: %s" % (argv, records))
    return outcomes[0], statistics.median(o.seconds for o in outcomes) * 1e3


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_lines(path, entries):
    """A JSON object with one entry per line, so that diffs stay readable."""
    body = ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True)) for k, v in entries)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n%s\n}\n" % body)


def write_ops(path, ops):
    body = ",\n".join(json.dumps(op, sort_keys=True) for op in ops)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"ops": [\n%s\n]}\n' % body)


def build_census(main):
    spaces = []
    for space_text in CENSUS_SPACES:
        outcome = program.call(main, ["census", space_text, "--json"], keep_text=True)
        assert outcome.exit_code == 0, outcome
        report = json.loads(outcome.text)
        spaces.append({"space": space_text, "kind": space_kind(space_text), "classes": report["total"]})
        path = workloads.census_golden_path(space_text)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(outcome.text)
    write_json(workloads.DATA / "census.json", {"spaces": spaces})


def build_lr(main, rng):
    ops, golden = [], {}
    for shape, argv in lr_universe(rng):
        outcome, cost_ms = measure(main, argv, repeats=3)
        if cost_ms > LR_CEILING_MS:
            continue
        ops.append({"shape": shape, "kind": "G", "argv": argv, "cost_ms": round(cost_ms, 3)})
        golden[json.dumps(argv)] = outcome.record()
    time_lr_costs(main, ops)
    write_ops(workloads.DATA / "lr.json", ops)
    write_lines(workloads.GOLDEN / "lr.json", sorted(golden.items()))


def time_lr_costs(main, ops):
    """Set each op's `cost_ms` to the median of its times over LR_COST_ROUNDS
    rounds; a product timed three times in a row runs faster than it does
    between other products, and by different amounts."""
    rng = random.Random(UNIVERSE_SEED)
    order = list(range(len(ops)))
    times = [[] for _ in ops]
    gc.freeze()
    for _ in range(LR_COST_ROUNDS):
        rng.shuffle(order)
        for i in order:
            times[i].append(program.call(main, ops[i]["argv"]).seconds * 1e3)
    for op, op_times in zip(ops, times):
        op["cost_ms"] = round(statistics.median(op_times), 3)


def build_queries(main, rng):
    ops, golden = [], {}
    for op in queries_universe(main, rng):
        outcome, cost_ms = measure(main, op["argv"], repeats=3)
        expect = op.get("expect")
        if expect and [outcome.exit_code, outcome.error_kind] != expect:
            raise SystemExit("built-to-fail query %s gave %s" % (op["argv"], outcome))
        if op["command"] == "expand-to-grass" and outcome.exit_code == 2:
            op["expect"] = [2, outcome.error_kind]  # unsupported degeneration
        op["cost_ms"] = round(cost_ms, 3)
        ops.append(op)
        golden[json.dumps(op["argv"])] = outcome.record()
    write_ops(workloads.DATA / "queries.json", ops)
    write_lines(workloads.GOLDEN / "queries.json", sorted(golden.items()))


def build_digests():
    golden = workloads.Golden()
    digests = {}
    for name in workloads.WORKLOADS:
        ops = workloads.build_pass(name, workloads.DEFAULT_SEED)
        digests[name] = workloads.pass_digest(ops, [golden.expected(op) for op in ops], golden)
    write_json(workloads.GOLDEN / "digests.json", {"seed": workloads.DEFAULT_SEED, "digests": digests})


def main(argv):
    if argv == ["--digests-only"]:
        build_digests()
        return
    cli = program.load_cli()
    if argv == ["--lr-costs"]:
        ops = workloads._load("lr.json")["ops"]
        time_lr_costs(cli.main, ops)
        write_ops(workloads.DATA / "lr.json", ops)
        build_digests()
        return
    rng = random.Random(UNIVERSE_SEED)
    build_census(cli.main)
    build_lr(cli.main, rng)
    build_queries(cli.main, rng)
    build_digests()


if __name__ == "__main__":
    main(sys.argv[1:])
