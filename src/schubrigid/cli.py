"""Command-line front end.

Every command accepts --json for machine-readable output; diagnostics go to
stderr.  Exit codes: 0 success, 1 invalid input (parse/validation), 2
unsupported configuration (kind, degeneration, enumeration cap) or usage
(arguments the parser rejects).

`main` builds the parser once per process, on its first call, and looks
`cmd_<name>` up by name at call time, so a rebound `cmd_*` (a test's
monkeypatch, `perfbench`'s tracer) is the one that runs.  Importing this
module imports every engine module, which `perfbench/tracing.py` reads from
`sys.modules`; only `checks`, `csv` and `datetime` load inside the commands
that use them.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, chow, multirigid, projections, restriction, rigidity
from .errors import (
    CoefficientOverflowError,
    SchubertError,
    UnsupportedDegenerationError,
    UsageError,
    ValidationError,
)
from .indices import (
    SpaceKind,
    dimension,
    dual,
    index_to_json,
    render_literal,
)
from .parser import parse_index, parse_sequence, parse_space


def _print(args, payload, human):
    try:
        text = json.dumps(payload, sort_keys=True) if args.json else str(human)
    except ValueError:  # an int past the interpreter's int-string limit
        raise CoefficientOverflowError("result too large to render") from None
    print(text)


def _parse_sub(raw):
    side, digits = raw[:1], raw[1:]
    if side in ("a", "b") and digits.isascii() and digits.isdigit():
        try:
            return side, int(digits)
        except ValueError:  # past the interpreter's int-string digit limit
            pass
    raise ValidationError(["--sub expects a ref like a1 or b2"])


def cmd_validate(args):
    try:
        space, index = parse_index(args.literal)
    except ValidationError as exc:
        payload = {"valid": False, "errors": exc.violations}
        _print(args, payload, "invalid: " + "; ".join(exc.violations))
        return 1
    payload = index_to_json(space, index, valid=True, errors=[])
    _print(args, payload, "valid: %s" % render_literal(space, index))
    return 0


def cmd_dim(args):
    space, index = parse_index(args.literal)
    value = dimension(space, index)
    _print(args, {"dimension": value}, value)
    return 0


def cmd_dual(args):
    space, index = parse_index(args.literal)
    result = dual(space, index)
    _print(
        args,
        {"source": index.to_json(), "dual": result.to_json(), "space": space.render()},
        render_literal(space, result),
    )
    return 0


def cmd_push(args):
    space, index = parse_index(args.literal)
    t = args.t
    result = projections.pushforward_flag(space, index, t)
    target = projections.target_space(space, t)
    payload = {
        "source": {"space": space.render(), "index": index.to_json()},
        "t": t,
        "result": {"space": target.render(), "index": result.to_json()},
    }
    if space.kind is SpaceKind.FLAG_SYMP:
        payload["note"] = "symplectic push-forward: removal rule, unverified by oracle"
    _print(args, payload, render_literal(target, result))
    return 0


def cmd_fiber(args):
    space, index = parse_index(args.literal)
    t = args.t
    if space.kind is SpaceKind.FLAG_A:
        result = projections.fiber_class_mid(space, index, t)
    elif space.kind is SpaceKind.FLAG_ORTH:
        result = projections.fiber_class_orth(space, index, t)
    else:
        raise ValidationError(["fiber classes are computed for F and OF indices"])
    payload = {
        "source": {"space": space.render(), "index": index.to_json()},
        "t": t,
        "result": {"space": space.render(), "index": result.to_json()},
    }
    _print(args, payload, render_literal(space, result))
    return 0


def cmd_essential(args):
    space, index = parse_index(args.literal)
    verdict = rigidity.classify(space, index, paper_literal=args.paper_literal)
    refs = verdict.essential_refs()
    payload = {"essential": [r.to_json() for r in refs]}
    _print(args, payload, " ".join(str(r) for r in refs) or "(none)")
    return 0


def cmd_rigid(args):
    space, index = parse_index(args.literal)
    verdict = rigidity.classify(space, index, paper_literal=args.paper_literal)
    if args.sub:
        side, position = _parse_sub(args.sub)
        sub = verdict.sub(side, position)
        if not sub.essential:
            raise ValidationError(
                ["rigidity undefined for non-essential sub-index %s%d" % (side, position)]
            )
        _print(
            args,
            sub.to_json(),
            "%s rigid=%s" % (sub.ref, sub.rigid),
        )
        return 0
    human = "class_rigid=%s  essential=%s  rigid=%s" % (
        verdict.class_rigid,
        ",".join(str(r) for r in verdict.essential_refs()) or "-",
        ",".join(str(v.ref) for v in verdict.subs if v.rigid) or "-",
    )
    _print(args, verdict.to_json(), human)
    return 0


def cmd_multirigid(args):
    space, index = parse_index(args.literal)
    if space.kind is SpaceKind.GRASS_ORTH:
        verdict = multirigid.multirigid_class_og(space, index)
        payload = verdict.to_json()
        report = multirigid.og_pushforward_leading(space, index)
        payload["leading_term"] = report.to_json()
        _print(
            args,
            payload,
            "multi_rigid=%s" % verdict.class_rigid,
        )
        return 0
    if space.kind is SpaceKind.GRASS_A:
        rows = multirigid.multirigid_grass(space, index)
        payload = {"sub_indices": [{"position": i, "multi_rigid": v} for i, v in rows]}
        _print(args, payload, " ".join("a%d=%s" % (i, v) for i, v in rows) or "(none)")
        return 0
    raise ValidationError(["multirigid handles G(k,n) and OG(k,n) indices"])


def cmd_gamma(args):
    space = parse_space(args.space)
    members = []
    for raw in args.term:
        coeff_text, _, index_text = raw.partition(":")
        try:
            coeff = int(coeff_text)
        except ValueError:
            raise ValidationError(["--term expects coeff:index, e.g. 2:1,3"])
        _, index = parse_index("%s @ %s" % (index_text, args.space))
        members.append((index, coeff))
    family = multirigid.IndexFamily(space=space, members=tuple(members))
    value = multirigid.gamma_mid(family, args.i)
    diag = {
        "i": args.i,
        "gamma": value,
        "determined": value is not None,
        "gamma_top": multirigid.gamma_top(family),
        "gamma_bottom": multirigid.gamma_bottom(family).__dict__,
    }
    _print(args, diag, "gamma_%d = %s" % (args.i, "undetermined" if value is None else value))
    return 0


def cmd_product(args):
    space_a, idx_a = parse_index(args.lhs)
    space_b, idx_b = parse_index(args.rhs)
    if space_a != space_b:
        raise ValidationError(["both factors must live on the same space"])
    result = chow.product_indices(space_a, idx_a, idx_b)
    _print(args, result.to_json(), result.render())
    return 0


def cmd_expand(args):
    trace = None
    try:
        if not (args.from_schubert or args.to_grass):
            cls, trace = restriction.expand(parse_sequence(args.literal))
        elif args.to_grass:
            cls, trace = restriction.og_to_grass(*parse_index(args.literal))
        else:
            seq = restriction.schubert_to_sequence(*parse_index(args.literal))
            cls, trace = restriction.expand(seq)
    except UnsupportedDegenerationError as exc:
        trace = exc.partial_trace
        raise
    finally:
        # an unsupported state's steps up to it print before the error line
        if args.trace and trace is not None:
            for line in trace.to_json_lines():
                print(line, file=sys.stderr)
    _print(args, cls.to_json(), cls.render())
    return 0


def cmd_census(args):
    import csv
    from datetime import datetime, timezone

    space = parse_space(args.space)
    rows = []
    counts = {"rigid": 0, "non_rigid": 0, "unknown": 0}
    for verdict in rigidity.classify_space(space, args.paper_literal):
        if verdict.class_rigid is True:
            bucket = "rigid"
        elif verdict.class_rigid is False:
            bucket = "non_rigid"
        else:
            bucket = "unknown"
        counts[bucket] += 1
        rows.append(
            {
                "index": verdict.index.render(),
                "class_rigid": verdict.class_rigid,
                "essential": [str(r) for r in verdict.essential_refs()],
                "rigid": [str(v.ref) for v in verdict.subs if v.rigid],
            }
        )
    report = {
        "space": space.render(),
        "total": len(rows),
        "counts": counts,
        "rows": rows,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "engine_version": __version__,
        "flags": {"paper_literal": args.paper_literal},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "class_rigid", "essential", "rigid"])
            for row in rows:
                writer.writerow(
                    [
                        row["index"],
                        row["class_rigid"],
                        " ".join(row["essential"]),
                        " ".join(row["rigid"]),
                    ]
                )
    human = "%s: %d classes, %d rigid, %d non-rigid, %d unknown" % (
        space.render(),
        len(rows),
        counts["rigid"],
        counts["non_rigid"],
        counts["unknown"],
    )
    _print(args, report, human)
    return 0


def cmd_selftest(args):
    from . import checks

    if not args.json:
        return 1 if checks.run_checks(scope=args.scope) else 0
    start = time.perf_counter()
    results = [
        {
            "name": name,
            "status": "ok" if passed else "fail",
            "summary": summary,
            "elapsed_s": round(elapsed, 3),
        }
        for name, passed, summary, elapsed in checks.check_results(args.scope)
    ]
    failures = sum(1 for result in results if result["status"] == "fail")
    payload = {
        "scope": args.scope,
        "checks": results,
        "failures": failures,
        "elapsed_s": round(time.perf_counter() - start, 3),
    }
    _print(args, payload, None)
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise `UsageError` instead of
    printing and exiting; sub-parsers inherit the class."""

    def error(self, message):
        usage = "%s%s: error: %s\n" % (self.format_usage(), self.prog, message)
        raise UsageError(message, usage)


def build_parser():
    parser = _Parser(
        prog="schubrigid",
        description="Rigidity and multi-rigidity of Schubert classes in classical flag varieties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def paper_literal(p):
        p.add_argument(
            "--paper-literal",
            action="store_true",
            help="use the published min-threshold in the order relations",
        )

    p = sub.add_parser("validate", help="validate an index literal")
    p.add_argument("literal")
    common(p)

    p = sub.add_parser("dim", help="dimension of a type-A Schubert class")
    p.add_argument("literal")
    common(p)

    p = sub.add_parser("dual", help="Poincare dual of a type-A index")
    p.add_argument("literal")
    common(p)

    p = sub.add_parser("push", help="push-forward along the t-th projection")
    p.add_argument("literal")
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("fiber", help="generic fiber class of the t-th projection")
    p.add_argument("literal")
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("essential", help="essential sub-indices")
    p.add_argument("literal")
    common(p)
    paper_literal(p)

    p = sub.add_parser("rigid", help="rigidity verdict")
    p.add_argument("literal")
    p.add_argument("--sub", help="restrict to one sub-index, e.g. a1 or b2")
    common(p)
    paper_literal(p)

    p = sub.add_parser("multirigid", help="multi-rigidity verdict")
    p.add_argument("literal")
    common(p)

    p = sub.add_parser("gamma", help="gamma invariant of an index family")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--term", action="append", required=True, help="coeff:index")
    common(p)

    p = sub.add_parser("product", help="product of two Schubert classes in G(k,n)")
    p.add_argument("lhs")
    p.add_argument("rhs")
    common(p)

    p = sub.add_parser("expand", help="expand a restriction sequence")
    p.add_argument("literal")
    p.add_argument("--from-schubert", action="store_true", help="input is an OG index")
    p.add_argument("--to-grass", action="store_true", help="expand into G(k,n) classes")
    p.add_argument("--trace", action="store_true", help="emit the step log to stderr")
    common(p)

    p = sub.add_parser("census", help="classify every index of a space")
    p.add_argument("space")
    p.add_argument("--out", help="write the JSON report to a file")
    p.add_argument("--csv", help="write one CSV row per class")
    common(p)
    paper_literal(p)

    p = sub.add_parser("selftest", help="run the cross-check suite")
    p.add_argument("scope", nargs="?", default="quick", choices=("quick", "full"))
    common(p)

    return parser


_parser = None  # built by the first `main` call


def _fail(exc, as_json):
    if as_json:
        print(json.dumps(exc.to_json(), sort_keys=True), file=sys.stderr)
    elif isinstance(exc, UsageError):
        sys.stderr.write(exc.usage)
    else:
        print("%s: %s" % (exc.kind, exc.message), file=sys.stderr)
    return exc.exit_code


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser.parse_args(argv)
    except UsageError as exc:
        # argparse accepts any unambiguous prefix of --json, as "--js"
        return _fail(exc, any(len(a) > 2 and "--json".startswith(a) for a in argv))
    try:
        return globals()["cmd_" + args.command](args)
    except SchubertError as exc:
        return _fail(exc, args.json)


if __name__ == "__main__":
    sys.exit(main())
