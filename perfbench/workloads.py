"""Seeded workload generators and the golden outcomes they are checked against.

A workload is built as one *pass*: a list of ops drawn from the input
universe in `data/` with `random.Random(seed)`.  A run repeats whole passes
until its time is up.  The same seed always gives the same pass.

* census  - one `census S --json` call per space kind; an op is one class.
* lr      - `product A B --json` in G(k,n), stratified by the cost each
            product had when the universe was built, so that every seed
            draws the same mix of cheap and expensive products.
* queries - single CLI calls: the same count for every command form, spread
            over the form's spaces, Zipf-like repeats inside each (command, space)
            cell, and 5 % built-to-fail inputs that must exit 1.

In every pass the cheapest op goes first, since it is also the set-up probe.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import program

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

WORKLOADS = ("census", "lr", "queries")
DEFAULT_SEED = 0

# lr: every product that cost at least LR_HEAVY_MS when the universe was
# built is in every pass (a certainty stratum: these set the pass time and the
# tail); the cheaper products of all shapes are ranked together by cost and
# one is drawn from each run of LR_GROUP neighbours, so that the k-th cheapest
# op of every pass comes from the same run.  One "deep" product per pass.
LR_HEAVY_MS = 50.0
LR_GROUP = 2

# queries: calls per pass for each command form, spread evenly over its
# spaces.  No usage data exists for the CLI, so every command form gets the
# same share; the built-to-fail inputs are 5 % of the pass.
QUERY_FORMS = (
    "rigid", "rigid-sub", "essential", "multirigid", "push", "fiber", "dual",
    "dim", "validate", "product", "expand-from", "expand-to-grass",
)
QUERY_COUNTS = dict({form: 80 for form in QUERY_FORMS}, invalid=50)
ZIPF_EXPONENT = 1.0
ZIPF_STRATA = 8


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str                   # space kind of the op's input (G, F, OG, OF, SG, SF)
    weight: int = 1             # ops the call stands for: the classes of a census call
    cost_ms: float = 0.0        # what the op cost when the universe was built
    expect: tuple | None = None  # (exit code, error kind) the input is built to produce

    @property
    def key(self):
        return json.dumps(list(self.argv))


def _load(name):
    return json.loads((DATA / name).read_text())


def _cheapest_first(ops):
    first = min(range(len(ops)), key=lambda i: ops[i].cost_ms)
    return [ops[first]] + ops[:first] + ops[first + 1:]


def census_pass(rng):
    spaces = _load("census.json")["spaces"]
    ops = [
        Op(argv=("census", s["space"], "--json"), kind=s["kind"], weight=s["classes"])
        for s in spaces
    ]
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


def lr_pass(rng):
    items = _load("lr.json")["ops"]
    deep = [item for item in items if item["shape"] == "deep"]
    ranked = sorted(
        (item for item in items if item["shape"] != "deep"),
        key=lambda item: (item["cost_ms"], item["argv"]),
    )
    light = [item for item in ranked if item["cost_ms"] < LR_HEAVY_MS]
    # the cheapest product goes first in every pass, as the set-up probe
    chosen = [item for item in ranked if item["cost_ms"] >= LR_HEAVY_MS] + light[:1]
    for start in range(1, len(light) - LR_GROUP + 1, LR_GROUP):
        chosen.append(rng.choice(light[start:start + LR_GROUP]))
    chosen.append(rng.choice(deep))
    ops = [Op(argv=tuple(item["argv"]), kind="G", cost_ms=item["cost_ms"]) for item in chosen]
    rng.shuffle(ops)
    return _cheapest_first(ops)


def _zipf_draws(rng, items, count):
    """Zipf-like repeats: `count` calls shared out in proportion to 1/rank.
    Ranks are dealt round-robin over the cell's cost strata, so that every
    seed gives its cheap and its costly inputs the same popularity; the seed
    picks which input of a stratum gets which rank."""
    by_cost = sorted(items, key=lambda item: (item["cost_ms"], item["argv"]))
    size = -(-len(by_cost) // ZIPF_STRATA)
    strata = [by_cost[i:i + size] for i in range(0, len(by_cost), size)]
    for stratum in strata:
        rng.shuffle(stratum)
    ranked = [s[i] for i in range(size) for s in strata if i < len(s)]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    # apportion `count` by weight (largest remainder) instead of sampling it
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    shares = [int(q) for q in quotas]
    by_remainder = sorted(range(len(ranked)), key=lambda r: shares[r] - quotas[r])
    for r in by_remainder[: count - sum(shares)]:
        shares[r] += 1
    return [item for item, share in zip(ranked, shares) for _ in range(share)]


def queries_pass(rng):
    cells = {}
    for item in _load("queries.json")["ops"]:
        command = "invalid" if item["cell"] == "invalid" else item["command"]
        cells.setdefault(command, {}).setdefault(item["cell"], []).append(item)
    ops = []
    for command, count in QUERY_COUNTS.items():
        command_cells = [cells[command][name] for name in sorted(cells[command])]
        for i, items in enumerate(command_cells):
            share = count // len(command_cells) + (i < count % len(command_cells))
            for item in _zipf_draws(rng, items, share):
                expect = tuple(item["expect"]) if item.get("expect") else None
                ops.append(Op(argv=tuple(item["argv"]), kind=item["kind"],
                              cost_ms=item["cost_ms"], expect=expect))
    rng.shuffle(ops)
    return _cheapest_first(ops)


def build_pass(workload, seed):
    make = {"census": census_pass, "lr": lr_pass, "queries": queries_pass}[workload]
    return make(random.Random("%s:%d" % (workload, seed)))


def run_order(workload, seed, index, size):
    """The order in which measuring process `index` runs a pass of `size`
    ops, as positions in the pass.  An op's time depends on the ops run just
    before it, so each process shuffles the pass anew; the first op, the
    set-up probe, stays first."""
    rest = list(range(1, size))
    random.Random("%s:%d:order:%d" % (workload, seed, index)).shuffle(rest)
    return [0] + rest


def census_golden_path(space_text):
    slug = "".join(ch if ch.isalnum() else "_" for ch in space_text).strip("_")
    return GOLDEN / "census" / ("%s.json.gz" % slug)


class Golden:
    """Expected outcome records, as `program.Outcome.record()` gives them."""

    def __init__(self):
        self._records = {}
        for name in ("lr.json", "queries.json"):
            path = GOLDEN / name
            if path.exists():
                self._records.update(json.loads(path.read_text()))

    def expected(self, op):
        if op.argv[0] == "census":
            if op.key not in self._records:
                with gzip.open(census_golden_path(op.argv[1]), "rt", encoding="utf-8") as fh:
                    self._records[op.key] = [0, None, None, program.digest(0, fh.read())]
            return self._records[op.key]
        return self._records.get(op.key)

    def digest(self, workload, seed):
        if seed != DEFAULT_SEED:
            return None
        return json.loads((GOLDEN / "digests.json").read_text())["digests"][workload]


def pass_digest(ops, records, golden):
    """One digest over a pass: every op's input and outcome record, sorted, so
    that the order the pass ran in does not change it.  Ops whose golden
    outcome is an escaped exception are left out, so that a fix which makes
    them return keeps the digest (they count as unverified)."""
    lines = sorted(
        "%s\t%s\n" % (op.key, json.dumps(record))
        for op, record in zip(ops, records)
        if golden.expected(op)[2] is None
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()[:24]
