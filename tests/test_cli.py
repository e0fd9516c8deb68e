"""Command-line behavior: output shape, exit codes, census files, selftest."""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubrigid import checks, cli
from schubrigid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestBasicCommands:
    def test_rigid_json(self, capsys):
        code, out, _ = run(capsys, "rigid", "2^1,4^2 @ F(1,2;4)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class_rigid"] is True
        assert payload["relation"]["totally_ordered"] is True

    def test_rigid_sub(self, capsys):
        code, out, _ = run(capsys, "rigid", "(3^2|3^1,1^1,0^2) @ OF(2,4;11)", "--sub", "b2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rigid"] is True
        assert [r["value"] for r in payload["witness"]["chain"]] == [3, 3, 1]

    def test_validate_flat_json_fields(self, capsys):
        code, out, _ = run(capsys, "validate", "(3^2|3^1,1^1,0^2) @ OF(2,4;11)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True and payload["errors"] == []
        assert payload["space"] == "OF(2,4;11)"
        assert payload["a"] == [3] and payload["alpha"] == [2]
        assert payload["b"] == [0, 1, 3] and payload["beta"] == [2, 1, 1]

    def test_validate_reports_violations(self, capsys):
        code, out, _ = run(capsys, "validate", "1^1,3^2,5^2 @ F(2,3;5)", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False and payload["errors"]

    def test_dim_and_dual(self, capsys):
        code, out, _ = run(capsys, "dim", "2^1,4^2 @ F(1,2;4)")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "dual", "1,3 @ G(2,4)")
        assert code == 0 and out.strip() == "2,4 @ G(2,4)"

    def test_expand_sequence(self, capsys):
        code, out, _ = run(capsys, "expand", "F:2 | Q:6^0 @ OG(2,7)")
        assert code == 0
        assert out.strip() == "1·(1|1) + 1·(2|2)"

    def test_expand_to_grass_with_trace(self, capsys):
        code, out, err = run(
            capsys, "expand", "(1|1) @ OG(2,7)", "--from-schubert", "--to-grass", "--trace"
        )
        assert code == 0
        assert out.strip() == "2·1,5"
        lines = [json.loads(line) for line in err.strip().splitlines()]
        assert any(step["event"] == "break" for step in lines)

    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "2,4 @ G(2,4)", "1,4 @ G(2,4)")
        assert code == 0 and out.strip() == "1·1,3"

    def test_push_and_fiber(self, capsys):
        code, out, _ = run(capsys, "push", "1^1,3^2,5^2 @ F(1,3;5)", "--t", "2")
        assert code == 0 and out.strip() == "1,3,5 @ G(3,5)"
        code, out, _ = run(capsys, "fiber", "2^1,4^2 @ F(1,2;4)", "--t", "1")
        assert code == 0 and out.strip() == "1^1,4^2 @ F(1,2;4)"

    def test_essential(self, capsys):
        code, out, _ = run(capsys, "essential", "(3|0,1,3) @ OG(4,11)", "--json")
        assert code == 0
        payload = json.loads(out)
        got = {(r["side"], r["position"]) for r in payload["essential"]}
        assert got == {("a", 1), ("b", 1), ("b", 3)}

    def test_multirigid(self, capsys):
        code, out, _ = run(capsys, "multirigid", "(1|1) @ OG(2,7)", "--json")
        assert code == 0
        assert json.loads(out)["class_rigid"] is True

    def test_gamma(self, capsys):
        code, out, _ = run(
            capsys,
            "gamma",
            "--i", "2",
            "--space", "G(3,9)",
            "--term", "1:1,2,8",
            "--term", "1:2,3,8",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["gamma"] == 3


class TestExitCodes:
    def test_validation_failure_is_one(self, capsys):
        code, _, err = run(capsys, "dual", "9,9 @ G(2,4)")
        assert code == 1
        assert "validation" in err or "increasing" in err

    def test_parse_failure_is_one(self, capsys):
        code, _, _ = run(capsys, "dim", "not an index")
        assert code == 1

    def test_unsupported_kind_is_two(self, capsys):
        code, _, err = run(capsys, "dim", "(1|1) @ OG(2,7)")
        assert code == 2
        assert "unsupported-kind" in err

    def test_unsupported_degeneration_is_two(self, capsys):
        code, _, err = run(
            capsys, "expand", "(|2,3) @ OG(2,8)", "--from-schubert", "--to-grass"
        )
        assert code == 2
        assert "unsupported-degeneration" in err

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    def test_unsupported_degeneration_trace_prints_partial_trace(self, capsys, as_json):
        # the steps up to the unsupported state, then the error line last
        argv = ["expand", "(2,3|0) @ OG(3,9)", "--to-grass", "--trace"]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2 and out == ""
        *steps, last = err.splitlines()
        assert [(s["event"], s["path"]) for s in map(json.loads, steps)] == [("split", "r")]
        if as_json:
            assert json.loads(last)["kind"] == "unsupported-degeneration"
        else:
            assert last.startswith("unsupported-degeneration: static a_i = r_j + 1")
        # without --trace only the error line is printed
        code, _, err = run(capsys, *argv[:-1], *(["--json"] if as_json else []))
        assert code == 2 and err.splitlines() == [last]

    def test_enumeration_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_ENUM_CAP", "2")
        code, _, err = run(capsys, "census", "G(2,4)")
        assert code == 2
        assert "enumeration-cap" in err

    def test_enumeration_cap_not_an_integer_is_one(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_ENUM_CAP", "abc")
        code, _, err = run(capsys, "census", "G(2,4)", "--json")
        assert code == 1
        assert json.loads(err)["kind"] == "validation"

    def test_enumeration_cap_negative_is_one(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_ENUM_CAP", "-5")
        code, _, err = run(capsys, "census", "G(2,4)", "--json")
        assert code == 1
        assert json.loads(err)["kind"] == "validation"

    def test_product_over_enumeration_cap_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_ENUM_CAP", "10")
        code, out, err = run(
            capsys, "product", "2,4,6,8 @ G(4,8)", "2,4,6,8 @ G(4,8)", "--json"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "enumeration-cap"

    def test_degenerate_space_is_one(self, capsys):
        code, _, _ = run(capsys, "census", "G(5,4)")
        assert code == 1

    def test_json_error_objects(self, capsys):
        code, _, err = run(capsys, "dim", "(1|1) @ OG(2,7)", "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "unsupported-kind" and payload["message"]

    @pytest.mark.parametrize(
        "argv, location",
        [
            (("dim", "\u00b2,3 @ G(2,4)"), 0),
            (("expand", "F:\u00b2 | Q:6^0 @ OG(2,7)"), 2),
            (("validate", "1,3 @ G(2,\u0664)"), 10),
            (("dim", "9" * 5000 + " @ G(1,2)"), 0),
            (("census", "G(1,%s)" % ("9" * 5000)), 4),
        ],
        ids=["superscript", "superscript-in-sequence", "arabic-indic", "long-index", "long-space"],
    )
    def test_non_ascii_digits_and_overlong_numbers_are_parse_errors(self, capsys, argv, location):
        # ASCII 0-9 only, and no number past the interpreter's int-string limit
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert (payload["kind"], payload["location"]) == ("parse", location)

    @pytest.mark.parametrize(
        "argv, kind, message, location",
        [
            (("census", "G(2,4) x"), "parse", "trailing input after space", 7),
            (("census", "G(2)"), "parse", "expected (k,n)", 3),
            # a descriptor that fails its own checks is reported before trailing input
            (("census", "G(0,4) x"), "validation", "step dimensions must be positive", None),
            (("rigid", "1^1,3 @ F(1,2;4)"), "parse", "mixed flagged and unflagged entries", None),
            (
                ("rigid", "(1^1|0) @ OF(1,2;5)"),
                "parse",
                "a and b parts must be both flagged or both plain",
                None,
            ),
            (("rigid", "1,3 @ G(2,4) junk"), "parse", "trailing input after space", 13),
            (("expand", "F:2 | R:6^0 @ OG(2,7)"), "parse", "expected 'Q:' after '|'", 6),
            (("expand", "F:2 | Q:6^0 @ OG(2,7) x"), "parse", "trailing input after space", 22),
        ],
        ids=[
            "space-trailing", "space-short", "space-invalid-then-trailing", "mixed-labels",
            "pair-labels", "index-trailing", "sequence-no-Q", "sequence-trailing",
        ],
    )
    def test_literal_errors(self, capsys, argv, kind, message, location):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert (payload["kind"], payload["message"], payload.get("location")) == (
            kind, message, location
        )

    @pytest.mark.parametrize("ref", ["a\u00b2", "a" + "9" * 5000], ids=["superscript", "long"])
    def test_bad_sub_ref_is_validation(self, capsys, ref):
        code, out, err = run(capsys, "rigid", "1,3 @ G(2,4)", "--sub", ref, "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "validation"

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, kind, message",
        [
            # 8,000 digits of class count against the cap
            (
                ("census", "G(2,%s)" % ("9" * 4000)),
                "enumeration-cap",
                "class count of 8000 digits exceeds cap",
            ),
            # N-8,...,N @ G(9,N), N = 10^4300 - 1: a 4,301-digit dimension
            (
                ("dim", ",".join("9" * 4299 + str(d) for d in range(1, 10)) + " @ G(9,%s)" % ("9" * 4300)),
                "overflow",
                "result too large to render",
            ),
        ],
        ids=["census-count", "dim"],
    )
    def test_numbers_past_the_int_string_limit_exit_two(self, capsys, argv, kind, message, as_json):
        # accepted input whose result outgrows the int-string limit: a
        # documented error, never an escaping ValueError
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2 and out == ""
        if as_json:
            payload = json.loads(err)
            assert payload["kind"] == kind and payload["message"].startswith(message)
        else:
            assert err.startswith("%s: %s" % (kind, message))

    def test_push_from_a_grassmannian_is_unsupported_kind(self, capsys):
        code, out, err = run(capsys, "push", "1,3 @ G(2,4)", "--t", "1", "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "unsupported-kind"

    def test_sequence_outside_og_is_validation(self, capsys):
        code, out, err = run(capsys, "expand", "F:2 | Q:6^0 @ G(2,7)", "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "validation"


# literals of all six kinds: valid, invalid, degenerate and unparseable
LITERALS = (
    "1,3 @ G(2,4)", "2,3 @ G(2,4)", "9,9 @ G(2,4)", "1 @ G(1,1)", "1,2 @ G(5,4)",
    "2^1,4^2 @ F(1,2;4)", "1^2,3^1,4^2 @ F(1,3;4)", "2^1,4^3 @ F(1,2;4)", "1,3 @ F(1,2;4)",
    "(1|1) @ OG(2,7)", "(2,3|0) @ OG(3,9)", "(|2,3) @ OG(2,8)", "(1|0) @ OG(2,7)",
    "(6|0,1,2,3,4) @ OG(6,12)", "(1,2|) @ OG(2,4)", "(1|1) @ OG(3,5)",
    "(1^1|1^2) @ OF(1,2;5)", "(2^1|0^2) @ OF(1,2;7)", "(1^1|1^1) @ OF(1,2;5)",
    "(1,4|) @ SG(2,8)", "(2|0) @ SG(2,8)", "(1|1) @ SG(2,7)",
    "(1^1|1^2) @ SF(1,2;8)", "(1^1|) @ SF(1;4)", "(1|2) @ SF(1,2;6)",
    "", "not an index", "1,3 @ X(2,4)", "9" * 5000 + " @ G(1,2)",
)
SPACES = ("G(2,4)", "F(1,2;4)", "OG(2,5)", "OF(1,2;5)", "SG(1,4)", "SF(1,2;4)", "OG(2,4)",
          "G(5,4)", "SG(1,5)", "F(2,1;4)", "OG(0,3)", "G(1,%s)" % ("9" * 5000), "")
SEQUENCES = ("F:2 | Q:6^0 @ OG(2,7)", "F:2 | Q:5^0,4^0 @ OG(3,9)", "F: | Q:8^1,7^0 @ OG(2,9)",
             "F:2 | Q:6^0 @ G(2,7)", "F:9 | Q:1^5 @ OG(2,7)", "F:")
INTS = ("-1", "0", "1", "2", "3", "x")
TERMS = ("1:1,2,8", "1:2,3,8", "2:1,3,9", "0:1,2,8", "1:9,9,9", "x")
G24 = ("1,2 @ G(2,4)", "1,3 @ G(2,4)", "2,4 @ G(2,4)", "3,4 @ G(2,4)")
PATHS = ("{tmp}/out.json", "{tmp}/out.csv")
# each command but selftest: positional pools, then (option, value pool or None)
FORMS = {
    "validate": ([LITERALS], []),
    "dim": ([LITERALS], []),
    "dual": ([LITERALS], []),
    "push": ([LITERALS], [("--t", INTS)]),
    "fiber": ([LITERALS], [("--t", INTS)]),
    "essential": ([LITERALS], [("--paper-literal", None)]),
    "rigid": (
        [LITERALS], [("--sub", ("a1", "a2", "b1", "b2", "c1", "a0", "")), ("--paper-literal", None)]
    ),
    "multirigid": ([LITERALS], []),
    "gamma": ([], [
        ("--i", INTS),
        ("--space", ("G(3,9)", "G(3,9)", "G(2,4)", "OG(2,5)", "G(5,4)", "")),
        ("--term", TERMS),
        ("--term", TERMS),
    ]),
    "product": ([G24 + LITERALS, G24 + LITERALS], []),
    "expand": (
        [SEQUENCES + LITERALS], [("--from-schubert", None), ("--to-grass", None), ("--trace", None)]
    ),
    "census": ([SPACES], [("--out", PATHS), ("--csv", PATHS), ("--paper-literal", None)]),
}
REQUIRED = ("--t", "--i", "--space", "--term")
FOREIGN = ("--t", "--sub", "--paper-literal", "--from-schubert", "--js", "--bogus")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FORMS)))
    positional, options = FORMS[command]
    argv = [command] + [draw(st.sampled_from(pool)) for pool in positional]
    for option, values in options + [("--json", None)]:
        if draw(st.integers(0, 7)) if option in REQUIRED else draw(st.booleans()):
            argv += [option] if values is None else [option, draw(st.sampled_from(values))]
    if draw(st.integers(0, 7)) == 0:  # now and then one more option, mostly a foreign one
        argv.append(draw(st.sampled_from(FOREIGN)))
    return argv


class TestWholeArgvFuzz:
    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(argvs())
    def test_every_argv_exits_zero_one_or_two(self, argv):
        # every command but selftest, over literals of all six kinds and the
        # command's options: an answer or a documented exit code, never a
        # traceback (--help and --version exit through SystemExit(0))
        with tempfile.TemporaryDirectory() as tmp:
            assert main([arg.replace("{tmp}", tmp) for arg in argv]) in (0, 1, 2)


class TestUsageErrors:
    def test_missing_option_json(self, capsys):
        code, out, err = run(capsys, "push", "(1|0) @ OF(1;5)", "--json")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload == {
            "kind": "usage",
            "message": "the following arguments are required: --t",
        }

    def test_missing_option_text_keeps_argparse_lines(self, capsys):
        code, out, err = run(capsys, "push", "(1|0) @ OF(1;5)")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith("usage: schubrigid push ")
        assert lines[-1] == "schubrigid push: error: the following arguments are required: --t"

    @pytest.mark.parametrize("argv", [("bogus", "--json"), ("push", "1,3 @ G(2,4)", "--js")])
    def test_json_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["kind"] == "usage"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_paper_literal_rejected_where_unread(self, capsys):
        code, out, err = run(capsys, "dim", "1,3 @ G(2,4)", "--paper-literal", "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("essential", "1,3 @ G(2,4)"),
        ("rigid", "1,3 @ G(2,4)"),
        ("census", "G(2,4)"),
    ])
    def test_paper_literal_accepted_where_read(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--paper-literal", "--json")
        assert code == 0 and err == ""


class TestParserOnce:
    def test_import_defers_only_checks_csv_datetime(self):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, %r); import json, schubrigid.cli; "
            "print(json.dumps(sorted(sys.modules)))" % src
        )
        loaded = set(json.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout))
        for name in ("chow", "indices", "multirigid", "parser", "projections", "restriction", "rigidity"):
            assert "schubrigid." + name in loaded
        assert not {"schubrigid.checks", "csv", "datetime"} & loaded

    def test_parser_built_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(3):
            assert run(capsys, "dim", "1,3 @ G(2,4)")[0] == 0
        assert len(builds) == 1

    def test_commands_dispatch_by_name_at_call_time(self, capsys, monkeypatch):
        assert run(capsys, "dim", "1,3 @ G(2,4)")[:2] == (0, "1\n")
        monkeypatch.setattr(cli, "cmd_dim", lambda args: 7)
        assert run(capsys, "dim", "1,3 @ G(2,4)")[:2] == (7, "")

    def test_no_state_between_calls(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "rigid", "1,3 @ G(2,4)", "--sub", "a1", "--json")
        assert code == 0 and "class_rigid" not in json.loads(out)
        code, out, _ = run(capsys, "rigid", "1,3 @ G(2,4)", "--json")
        assert code == 0 and json.loads(out)["class_rigid"] is True
        terms = []
        monkeypatch.setattr(cli, "cmd_gamma", lambda args: terms.append(args.term) or 0)
        run(capsys, "gamma", "--i", "2", "--space", "G(3,9)", "--term", "1:1,2,8")
        run(capsys, "gamma", "--i", "2", "--space", "G(3,9)", "--term", "1:2,3,8")
        assert terms == [["1:1,2,8"], ["1:2,3,8"]]


class TestProductOutput:
    def test_golden_products(self, capsys):
        # `product --json` stdout recorded with the earlier per-partition
        # tableau engine: every ordered pair of G(3,6) plus twelve products
        # each in G(5,10), G(4,20) and G(2,40)
        path = pathlib.Path(__file__).parent / "data" / "products_golden.json"
        cases = json.loads(path.read_text())
        assert len(cases) == 436
        for case in cases:
            code, out, _ = run(capsys, "product", case["lhs"], case["rhs"], "--json")
            assert (code, out) == (0, case["stdout"]), (case["lhs"], case["rhs"])

    def test_deep_thin_product(self, capsys):
        code, out, err = run(
            capsys, "product", "1199,1200 @ G(2,1200)", "99,1200 @ G(2,1200)", "--json"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["terms"] == [{"coefficient": 1, "index": {"a": [99, 1200]}}]


class TestCensus:
    def test_census_g24(self, capsys, tmp_path):
        out_path = tmp_path / "census.json"
        csv_path = tmp_path / "census.csv"
        code, out, _ = run(
            capsys,
            "census",
            "G(2,4)",
            "--out", str(out_path),
            "--csv", str(csv_path),
            "--json",
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["total"] == 6
        assert report["counts"] == {"rigid": 5, "non_rigid": 1, "unknown": 0}
        by_index = {row["index"]: row["class_rigid"] for row in report["rows"]}
        assert by_index["2,4"] is False and by_index["1,3"] is True
        header = csv_path.read_text().splitlines()[0]
        assert header == "index,class_rigid,essential,rigid"

    def test_census_of125_includes_rigid_example(self, capsys):
        code, out, _ = run(capsys, "census", "OF(1,2;5)", "--json")
        assert code == 0
        report = json.loads(out)
        verdicts = {row["index"]: row["class_rigid"] for row in report["rows"]}
        assert verdicts["(1^1|1^2)"] is True

    def test_census_golden_file(self, capsys):
        golden = json.loads(
            (pathlib.Path(__file__).parent / "data" / "census_g24.json").read_text()
        )
        code, out, _ = run(capsys, "census", "G(2,4)", "--json")
        assert code == 0
        report = json.loads(out)
        report.pop("generated_at")
        assert report == golden

    def test_census_deterministic_modulo_timestamp(self, capsys):
        code, first, _ = run(capsys, "census", "OG(2,5)", "--json")
        code2, second, _ = run(capsys, "census", "OG(2,5)", "--json")
        assert code == code2 == 0
        a, b = json.loads(first), json.loads(second)
        a.pop("generated_at"), b.pop("generated_at")
        assert a == b

    def test_census_symplectic_unknowns(self, capsys):
        code, out, _ = run(capsys, "census", "SG(2,6)", "--json")
        assert code == 0
        report = json.loads(out)
        counts = report["counts"]
        assert counts["rigid"] + counts["non_rigid"] + counts["unknown"] == report["total"]
        assert counts["unknown"] > 0

    def test_paper_literal_changes_only_relation(self, capsys):
        code, strict, _ = run(capsys, "rigid", "1^2,3^1,4^2 @ F(1,3;4)", "--json")
        code2, literal, _ = run(
            capsys, "rigid", "1^2,3^1,4^2 @ F(1,3;4)", "--json", "--paper-literal"
        )
        assert code == code2 == 0
        a, b = json.loads(strict), json.loads(literal)
        assert a["rigid"] == b["rigid"] and a["essential"] == b["essential"]
        assert a["relation"]["totally_ordered"] != b["relation"]["totally_ordered"]


class TestSelftest:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, "selftest", "quick")
        assert code == 0
        assert out.count("ok") >= 7 and "FAIL" not in out

    def test_quick_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "quick", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["scope"] == "quick" and payload["failures"] == 0
        assert [c["name"] for c in payload["checks"]] == [n for n, _ in checks.QUICK_CHECKS]
        assert all(c["status"] == "ok" and c["summary"] for c in payload["checks"])
        assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0 for c in payload["checks"])
        assert payload["elapsed_s"] >= 0

    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    def test_a_failing_check_fails_the_run(self, capsys, monkeypatch, as_json):
        before = []  # what was printed when the second check ran

        def broken():
            before.append(capsys.readouterr().out)
            checks._expect(False, "expected %d, got %d", 1, 2)

        names = [name for name, _ in checks.QUICK_CHECKS]
        patched = list(checks.QUICK_CHECKS)
        patched[1] = (names[1], broken)
        monkeypatch.setattr(checks, "QUICK_CHECKS", tuple(patched))
        code, out, _ = run(capsys, "selftest", "quick", *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            assert before == [""]
            payload = json.loads(out)
            assert payload["failures"] == 1
            assert [c["status"] for c in payload["checks"]] == ["ok", "fail"] + ["ok"] * (
                len(names) - 2
            )
            assert payload["checks"][1]["summary"] == "expected 1, got 2"
        else:
            # each line is printed as its check finishes
            assert len(before) == 1 and before[0].startswith("ok   %s (" % names[0])
            lines = out.splitlines()
            assert lines[0] == "FAIL %s: expected 1, got 2" % names[1]
            assert [line.split(" (")[0] for line in lines[1:]] == [
                "ok   %s" % name for name in names[2:]
            ]

    def test_json_report_round_trip(self, capsys):
        code, out, _ = run(capsys, "rigid", "(1^1|1^2) @ OF(1,2;5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
