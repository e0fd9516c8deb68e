"""Command-line behavior: output shape, exit codes, census files, selftest."""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

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

    def test_json_report_round_trip(self, capsys):
        code, out, _ = run(capsys, "rigid", "(1^1|1^2) @ OF(1,2;5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
