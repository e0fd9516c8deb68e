"""Restriction sequences: validation, the degeneration loop, OG-to-G expansion."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from schubrigid import checks, cli, restriction
from schubrigid.errors import UnsupportedDegenerationError, ValidationError
from schubrigid.indices import (
    SpaceKind,
    dimension,
    enumerate_indices,
    plain_index,
    render_literal,
)
from schubrigid.parser import parse_index, parse_sequence, parse_space


def seq(text):
    return parse_sequence(text)


class TestValidateSequence:
    def test_plane_in_smooth_hyperplane_quadric_valid(self):
        for n in (7, 9, 11):
            s = seq("F:2 | Q:%d^0 @ OG(2,%d)" % (n - 1, n))
            assert restriction.validate_sequence(s) == []

    def test_a1_violation(self):
        s = seq("F:2 | Q:5^3 @ OG(2,9)")
        report = restriction.validate_sequence(s)
        assert any("(A1)" in msg for msg in report)

    def test_a2_violation(self):
        s = seq("F:2 | Q:8^1 @ OG(2,9)")
        report = restriction.validate_sequence(s)
        assert any("(A2)" in msg for msg in report)

    def test_a3_violation(self):
        # k = 3 with smooth quadrics of dimension 5 and 4: the j = 1 bound is
        # 3 - 1 + 1 - floor(5/2) = 1 but x_1 = 0
        s = seq("F:2 | Q:5^0,4^0 @ OG(3,9)")
        report = restriction.validate_sequence(s)
        assert any("(A3)" in msg for msg in report)

    def test_corank_nesting(self):
        s = seq("F: | Q:8^1,7^0 @ OG(2,9)")
        report = restriction.validate_sequence(s)
        assert any("(1)" in msg for msg in report)

    def test_schubert_data_always_valid(self):
        sp = parse_space("OG(2,9)")
        for idx in enumerate_indices(sp):
            s = restriction.schubert_to_sequence(sp, idx)
            assert restriction.sequence_is_schubert(s)


class TestSchubertRoundTrip:
    def test_examples(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        s = restriction.schubert_to_sequence(sp, idx)
        assert s.isotropic == (1,) and s.ladder == ((6, 1),)
        sp, idx = parse_index("(2|2) @ OG(2,7)")
        s = restriction.schubert_to_sequence(sp, idx)
        assert s.ladder == ((5, 2),)

    def test_fixed_point(self):
        sp = parse_space("OG(2,7)")
        for idx in enumerate_indices(sp):
            s = restriction.schubert_to_sequence(sp, idx)
            cls, _ = restriction.expand(s)
            assert cls.terms == ((idx, 1),)

    def test_round_trip_index(self):
        sp = parse_space("OG(3,9)")
        for idx in enumerate_indices(sp):
            s = restriction.schubert_to_sequence(sp, idx)
            assert restriction.sequence_to_index(s) == idx


class TestExpand:
    def test_smallest_worked_expansion(self):
        cls, trace = restriction.expand(seq("F:2 | Q:6^0 @ OG(2,7)"))
        _, s11 = parse_index("(1|1) @ OG(2,7)")
        _, s22 = parse_index("(2|2) @ OG(2,7)")
        assert dict(cls.terms) == {s11: 1, s22: 1}
        events = [step["event"] for step in trace.steps]
        assert "split" in events

    def test_larger_ambient(self):
        cls, _ = restriction.expand(seq("F:2 | Q:8^0 @ OG(2,9)"))
        _, s11 = parse_index("(1|1) @ OG(2,9)")
        _, s22 = parse_index("(2|2) @ OG(2,9)")
        assert dict(cls.terms) == {s11: 1, s22: 1}

    def test_single_step_public_wrapper(self):
        # the first move, read off expand's trace: the raise 0 -> 1 lands on
        # a_1 - 1 and splits; both branches effective, so both are walked
        _, trace = restriction.expand(seq("F:2 | Q:6^0 @ OG(2,7)"))
        first = trace.steps[0]
        assert first["event"] == "split" and first["effective_L1"]
        assert {step["path"][:2] for step in trace.steps[1:]} == {"r1", "r2"}
        terminal = restriction.schubert_to_sequence(*parse_index("(1|1) @ OG(2,7)"))
        _, trace = restriction.expand(terminal)
        assert [step["event"] for step in trace.steps] == ["terminal"]

    def test_trace_replay_determinism(self):
        s = seq("F:2 | Q:6^0 @ OG(2,7)")
        first_cls, first_trace = restriction.expand(s)
        second_cls, second_trace = restriction.expand(s)
        assert first_cls == second_cls
        assert first_trace == second_trace

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValidationError):
            restriction.expand(seq("F:2 | Q:5^3 @ OG(2,9)"))

    def test_positive_coefficients(self):
        cls, _ = restriction.expand(seq("F:3 | Q:8^0 @ OG(2,9)"))
        assert cls.terms and all(c > 0 for _, c in cls.terms)

    def test_split_behind_frozen_quadric_unsupported(self):
        # the smaller quadric is already at maximal corank; raising the big
        # one to corank 2 lands on a_1 - 1, a state the smallest-quadric
        # split rule does not cover
        s = seq("F:3 | Q:8^1,7^4 @ OG(3,11)")
        assert restriction.validate_sequence(s) == []
        with pytest.raises(UnsupportedDegenerationError):
            restriction.expand(s)

    def test_break_then_ineffective_l1(self):
        # the small quadric breaks (factor 2, new isotropic F_4); raising the
        # big one to corank 3 hits a_1 - 1 = 3 with the L_1 guard failing,
        # so only the isotropic-shrinking branch survives
        cls, trace = restriction.expand(seq("F: | Q:6^0,5^1 @ OG(2,9)"))
        _, s33 = parse_index("(3|3) @ OG(2,9)")
        assert dict(cls.terms) == {s33: 2}
        split_steps = [s for s in trace.steps if s["event"] == "split"]
        assert split_steps and not split_steps[0]["effective_L1"]


class TestOgToGrass:
    def test_corank_one_push(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        cls, _ = restriction.og_to_grass(sp, idx)
        assert cls.terms == ((plain_index((1, 5)), 2),)

    def test_derived_example(self):
        sp, idx = parse_index("(2|2) @ OG(2,7)")
        cls, _ = restriction.og_to_grass(sp, idx)
        assert cls.terms == ((plain_index((2, 4)), 2),)

    def test_split_case(self):
        sp, idx = parse_index("(3|1) @ OG(2,7)")
        cls, _ = restriction.og_to_grass(sp, idx)
        assert dict(cls.terms) == {
            plain_index((3, 4)): 2,
            plain_index((2, 5)): 2,
        }

    def test_no_quadrics(self):
        sp, idx = parse_index("(1,2|) @ OG(2,7)")
        cls, _ = restriction.og_to_grass(sp, idx)
        assert cls.terms == ((plain_index((1, 2)), 1),)

    def test_dimension_conservation(self):
        for text in ("OG(2,7)", "OG(2,9)", "OG(3,9)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                try:
                    cls, _ = restriction.og_to_grass(sp, idx)
                except UnsupportedDegenerationError:
                    continue
                dims = {dimension(cls.space, t) for t, _ in cls.terms}
                assert len(dims) == 1

    def test_even_boundary_unsupported(self):
        # b = n/2 - 1 marks the two-component case the displayed rules skip
        sp, idx = parse_index("(|2,3) @ OG(2,8)")
        with pytest.raises(UnsupportedDegenerationError) as info:
            restriction.og_to_grass(sp, idx)
        # the start check fails before any move: an empty partial trace
        assert info.value.partial_trace.steps == ()

    def test_leading_coefficient_power_of_two(self):
        sp = parse_space("OG(2,9)")
        for idx in enumerate_indices(sp):
            try:
                cls, _ = restriction.og_to_grass(sp, idx)
            except UnsupportedDegenerationError:
                continue
            total = 2 ** (2 - len(idx.a))
            assert all(c % 1 == 0 for _, c in cls.terms)
            if idx.a and plain_index(idx.a) in [t for t, _ in cls.terms]:
                pass  # prefix coverage exercised in test_multirigid
            assert sum(c for _, c in cls.terms) % total == 0


GOLDEN_DEGENERATIONS = pathlib.Path(__file__).parent / "data" / "degenerations_golden.jsonl"
GOLDEN_EXPAND_FLAGS = (
    ("--to-grass", "--json"),
    ("--to-grass", "--json", "--trace"),
    ("--from-schubert", "--json"),
    ("--from-schubert", "--json", "--trace"),
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_degeneration_lines():
    """One line per class of every OG(k,n) with n <= 13, both components at
    n = 2k: per ``expand`` call of GOLDEN_EXPAND_FLAGS the exit code, a digest
    of stdout and a digest of stderr (of its last line only on a nonzero exit,
    so lines printed before the error do not count)."""
    for space in checks._spaces((SpaceKind.GRASS_ORTH,), 13, 1):
        for idx in enumerate_indices(space):
            literal = render_literal(space, idx)
            calls = []
            for flags in GOLDEN_EXPAND_FLAGS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["expand", literal, *flags])
                err = err.getvalue()
                if code:
                    err = err.splitlines()[-1]
                calls.append([code, _digest(out.getvalue()), _digest(err)])
            yield json.dumps({"literal": literal, "calls": calls}) + "\n"


class TestGoldenDegenerations:
    def test_expand_byte_identical(self):
        # every degeneration result, error and trace line of the machine, as
        # the CLI prints them; recorded before the trace became plain events
        golden = GOLDEN_DEGENERATIONS.read_text().splitlines(keepends=True)
        got = list(golden_degeneration_lines())
        assert len(got) == len(golden) == 2172
        for line, want in zip(got, golden):
            assert line == want
