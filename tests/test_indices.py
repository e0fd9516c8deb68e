"""Index shapes: parsing, validation, dimension, duality, rank tables, enumeration."""
from __future__ import annotations

import itertools
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_flag_schubert_points, dim_by_rank_conditions
from schubrigid import checks
from schubrigid.errors import (
    EnumerationCapError,
    ParseError,
    SchubertError,
    UnsupportedKindError,
    ValidationError,
)
from schubrigid.indices import (
    SchubertIndex,
    SpaceDescriptor,
    SpaceKind,
    canonical_key,
    dimension,
    dual,
    enumerate_indices,
    flagged_index,
    index_from_lambda,
    lambda_notation,
    pair_index,
    plain_index,
    rank_table,
    render_literal,
    validate,
)
from schubrigid.parser import parse_index, parse_sequence, parse_space

CENSUS_SPACES = ("SG(6,14)", "G(6,14)", "F(1,2,3,4;8)", "OG(7,17)", "OF(2,4;13)", "SF(2,4;12)")

# the literal grammar's characters and words, digits, letters and spaces that
# str.isdigit / isalpha / isspace accept outside ASCII, and one number past
# the interpreter's int-string digit limit
LITERAL_TOKENS = tuple("0123456789GFOSQ()|,;^@: ") + (
    "OG", "OF", "SG", "SF", "F:", "Q:", " @ ",
    "\u00b2", "\u0664", "\u0967", "\u00e9", "\u03a9", "\u00a0", "\u2003",
    "9" * 4301,
)


def space(text):
    return parse_space(text)


def candidate_indices(sp):
    """Every index of the shape of ``sp`` (a and b increasing, of the lengths
    the shape asks for), with each value range one wider on both sides and
    block labels in 1..blocks."""
    n, d_k = sp.ambient, sp.top_step

    def labels(m):
        return itertools.product(range(1, sp.blocks + 1), repeat=m) if sp.kind.is_flag else [None]

    if sp.kind.is_type_a:
        for a in itertools.combinations(range(0, n + 2), d_k):
            for alpha in labels(d_k):
                yield SchubertIndex(a=a, alpha=alpha)
        return
    for s in range(d_k + 1):
        for a in itertools.combinations(range(0, sp.half + 2), s):
            for b in itertools.combinations(range(-1, sp.half + 1), d_k - s):
                for alpha, beta in itertools.product(labels(s), labels(d_k - s)):
                    yield SchubertIndex(a=a, alpha=alpha, b=b, beta=beta)


class TestParsing:
    def test_flagged_literal(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        assert sp == space("F(1,2;4)")
        assert idx == flagged_index([(2, 1), (4, 2)])

    def test_orth_pair_ascending(self):
        sp, idx = parse_index("(3 | 0,1,3) @ OG(4,11)")
        assert sp.kind is SpaceKind.GRASS_ORTH
        assert idx == pair_index((3,), (0, 1, 3))

    def test_descending_b_is_canonicalized(self):
        _, idx = parse_index("(3 | 3,1,0) @ OG(4,11)")
        assert idx.b == (0, 1, 3)

    def test_flagged_pair_descending_b(self):
        _, idx = parse_index("(3^2 | 3^1,1^1,0^2) @ OF(2,4;11)")
        assert idx.b == (0, 1, 3)
        assert idx.beta == (2, 1, 1)

    def test_adjacent_pair_value_rejected(self):
        with pytest.raises(ValidationError, match="a_i = b_j"):
            parse_index("(2 | 1) @ OG(2,7)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_index("2^1,4^2 F(1,2;4)")
        assert err.value.location is not None

    def test_non_increasing_rejected(self):
        with pytest.raises(ValidationError):
            parse_index("9,9 @ G(2,4)")

    def test_empty_slots(self):
        _, idx = parse_index("(|1,3) @ OG(2,11)")
        assert idx.a == () and idx.b == (1, 3)
        _, idx = parse_index("(1,2|) @ OG(2,11)")
        assert idx.a == (1, 2) and idx.b == ()

    def test_grass_takes_k_n_form(self):
        with pytest.raises(ParseError):
            parse_space("G(1,2;4)")
        with pytest.raises(ParseError):
            parse_space("F(2,4)")

    def test_round_trip_battery(self):
        for text in (
            "G(2,5)",
            "F(1,2;4)",
            "F(1,3;5)",
            "OG(2,7)",
            "OG(2,8)",
            "OF(1,2;5)",
            "SG(2,6)",
            "SF(1,2;6)",
        ):
            sp = space(text)
            for idx in enumerate_indices(sp):
                assert parse_index(render_literal(sp, idx)) == (sp, idx)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LITERAL_TOKENS), max_size=24).map("".join))
    def test_any_text_parses_or_raises_schubert_error(self, text):
        for parse in (parse_index, parse_space, parse_sequence):
            try:
                parse(text)
            except SchubertError:
                pass


class TestValidation:
    def test_case_one_example_space(self):
        # the 1^1,3^2,5^2 index fits F(1,3;5), not F(2,3;5)
        sp = space("F(1,3;5)")
        idx = flagged_index([(1, 1), (3, 2), (5, 2)])
        assert validate(sp, idx) == []
        bad = space("F(2,3;5)")
        report = validate(bad, idx)
        assert any("block 1" in msg for msg in report)

    def test_og_empty_a_valid(self):
        sp = space("OG(2,11)")
        assert validate(sp, pair_index((), (1, 3))) == []

    def test_parity_rule_for_maximal_even(self):
        sp = space("OG(2,4)")
        assert validate(sp, pair_index((1, 2), ())) == []
        report = validate(sp, pair_index((1,), (0,)))
        assert any("parity" in msg for msg in report)

    def test_component_choice_flips_parity(self):
        sp = SpaceDescriptor(SpaceKind.GRASS_ORTH, (2,), 4, component_choice=False)
        assert validate(sp, pair_index((2,), (0,))) == []
        assert validate(sp, pair_index((1, 2), ())) != []

    def test_symp_needs_even_ambient(self):
        with pytest.raises(ValidationError):
            space("SG(2,7)")

    def test_symp_pair_gap_rule(self):
        sp = space("SG(2,8)")
        report = validate(sp, pair_index((2,), (1,)))
        assert any("a_i = b_j + 1" in msg for msg in report)

    def test_bounds(self):
        sp = space("OG(2,7)")
        assert validate(sp, pair_index((4,), (0,)))  # a above floor(n/2)
        assert validate(sp, pair_index((1,), (3,)))  # b above floor(n/2)-1


class TestDimension:
    def test_point_and_fundamental(self):
        sp = space("G(3,7)")
        assert dimension(sp, plain_index((1, 2, 3))) == 0
        assert dimension(sp, plain_index((5, 6, 7))) == 12

    def test_flag_example_frozen_from_oracle(self):
        # value 3 frozen from the finite-field chart count (21 over F_2,
        # 52 over F_3, the degree-3 polynomial (p+1)(p^2+p+1))
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        assert dimension(sp, idx) == 3
        assert count_flag_schubert_points(2, 4, (1, 2), ((2, 1), (4, 2))) == 21
        assert count_flag_schubert_points(3, 4, (1, 2), ((2, 1), (4, 2))) == 52

    def test_matches_rank_condition_oracle(self):
        for text in ("F(1,2;4)", "F(1,3;5)", "F(2,3;5)", "F(1,2,3;5)"):
            sp = space(text)
            for idx in enumerate_indices(sp):
                assert dimension(sp, idx) == dim_by_rank_conditions(idx)

    def test_unsupported_kinds(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        with pytest.raises(UnsupportedKindError):
            dimension(sp, idx)

    def test_complementarity(self):
        for text in ("G(2,5)", "G(3,6)", "G(2,8)", "F(1,2;4)", "F(1,3;5)", "F(1,2,3;5)"):
            sp = space(text)
            dims = sp.steps + (sp.ambient,)
            total = sum(d * (e - d) for d, e in zip(dims, dims[1:]))
            for idx in enumerate_indices(sp):
                assert dimension(sp, idx) + dimension(sp, dual(sp, idx)) == total


class TestGrassFlagTwin:
    def test_dimension_and_dual_match_the_one_step_flag(self):
        # G(k,n) is F(k;n) with every entry in block 1: the dimension is equal
        # and dual commutes with that labelling, on every class with n <= 8
        checked = 0
        for n in range(1, 9):
            for k in range(1, n + 1):
                grass = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
                flag = SpaceDescriptor(SpaceKind.FLAG_A, (k,), n)
                for idx in enumerate_indices(grass):
                    twin = flagged_index((value, 1) for value in idx.a)
                    assert dimension(flag, twin) == dimension(grass, idx)
                    assert dual(flag, twin) == flagged_index((v, 1) for v in dual(grass, idx).a)
                    checked += 1
        assert checked == sum(2 ** n - 1 for n in range(1, 9))


class TestDual:
    def test_direct_formula(self):
        sp = space("G(2,4)")
        assert dual(sp, plain_index((1, 3))) == plain_index((2, 4))

    def test_flag_formula(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        assert dual(sp, idx) == flagged_index([(1, 2), (3, 1)])

    def test_involution(self):
        for text in ("G(2,6)", "G(3,8)", "F(1,2;4)", "F(1,2,3;5)", "F(2,4;6)"):
            sp = space(text)
            for idx in enumerate_indices(sp):
                assert dual(sp, dual(sp, idx)) == idx

    def test_unsupported(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        with pytest.raises(UnsupportedKindError):
            dual(sp, idx)


class TestLambdaNotation:
    def test_examples(self):
        sp = space("G(2,4)")
        assert lambda_notation(sp, plain_index((1, 3))) == (2, 1)
        assert lambda_notation(sp, plain_index((3, 4))) == (0, 0)
        assert lambda_notation(sp, plain_index((1, 2))) == (2, 2)

    def test_round_trip(self):
        for text in ("G(2,6)", "G(3,8)", "G(1,5)"):
            sp = space(text)
            for idx in enumerate_indices(sp):
                lam = lambda_notation(sp, idx)
                assert all(x >= y for x, y in zip(lam, lam[1:]))
                assert index_from_lambda(sp, lam) == idx


class TestRankTable:
    def test_flag_mu(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        table = rank_table(sp, idx)
        assert table.mu == ((1, 1), (1, 2))

    def test_nu_example_against_set_enumeration(self):
        sp, idx = parse_index("(3^2 | 0^2,1^1,3^1) @ OF(2,4;11)")
        table = rank_table(sp, idx)
        # j = 3 is the entry of value 3; t = 1
        assert idx.b[2] == 3
        by_formula = table.nu[2][0]
        direct = sum(1 for al in idx.alpha if al <= 1) + sum(
            1 for b_e, be in zip(idx.b, idx.beta) if b_e >= 3 and be <= 1
        )
        assert by_formula == direct == 1

    def test_mu_monotone_and_full(self):
        for text in ("F(1,2;4)", "F(1,2,3;5)", "OF(1,2;5)", "OF(2,4;11)"):
            sp = space(text)
            for idx in list(enumerate_indices(sp))[:200]:
                table = rank_table(sp, idx)
                for row in table.mu:
                    assert all(x <= y for x, y in zip(row, row[1:]))
                for col in range(sp.blocks):
                    column = [row[col] for row in table.mu]
                    assert all(x <= y for x, y in zip(column, column[1:]))
                if sp.kind is SpaceKind.FLAG_A:
                    assert table.mu[-1][-1] == sp.top_step
                    assert all(table.mu[i][-1] == i + 1 for i in range(len(idx.a)))

    def test_nu_and_x_shape_invariants(self):
        for text in ("OF(1,2;5)", "OF(1,2;7)", "OF(2,4;11)"):
            sp = space(text)
            for idx in list(enumerate_indices(sp))[:300]:
                table = rank_table(sp, idx)
                if table.nu is None:
                    continue
                for row in table.nu:
                    assert all(x <= y for x, y in zip(row, row[1:]))  # nondecreasing in t
                for col in range(sp.blocks):
                    column = [row[col] for row in table.nu]
                    # nonincreasing in j (larger b imposes weaker co-conditions)
                    assert all(x >= y for x, y in zip(column, column[1:]))
                assert all(0 <= x_j <= idx.s for x_j in table.x)

    def test_counters_on_demand(self):
        sp, idx = parse_index("(3^2 | 0^2,1^1,3^1) @ OF(2,4;11)")
        table = rank_table(sp, idx)
        assert table.y(1, 1) == 0          # no a-entry in block 1
        assert table.y(1, 2) == 1          # a=3 > b_1=0
        assert table.h(1, 1) == 1          # b=3 >= a=3 in block 1
        assert table.z(2, 1) == 2          # b in {1,3} with labels 1

    def test_unflagged_rejected(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        with pytest.raises(UnsupportedKindError):
            rank_table(sp, idx)


class TestEnumeration:
    def test_tiny_grassmannian(self):
        sp = space("G(1,2)")
        assert list(enumerate_indices(sp)) == [plain_index((1,)), plain_index((2,))]

    def test_binomial_count(self):
        assert len(list(enumerate_indices(space("G(2,4)")))) == 6

    def test_og15_count(self):
        # hand enumeration honoring the defining constraints: a=(1), a=(2),
        # b=(0), b=(1) — four classes, matching the four Chow groups of a
        # quadric threefold
        got = list(enumerate_indices(space("OG(1,5)")))
        assert [(idx.a, idx.b) for idx in got] == [
            ((1,), ()),
            ((2,), ()),
            ((), (0,)),
            ((), (1,)),
        ]

    def test_og27_count_matches_weyl_orbit(self):
        assert len(list(enumerate_indices(space("OG(2,7)")))) == 12

    def test_deterministic_canonical_order(self):
        sp = space("OF(1,2;5)")
        listed = list(enumerate_indices(sp))
        assert listed == sorted(listed, key=canonical_key)
        assert listed == list(enumerate_indices(sp))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_indices(space("G(10,25)"), cap=1000))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SCHUBERT_ENUM_CAP", "3")
        with pytest.raises(EnumerationCapError):
            list(enumerate_indices(space("G(2,4)")))

    def test_cap_compares_the_exact_count(self):
        # OG(7,17) has exactly 1,024 classes among 11,440 (a | b) candidates
        assert len(list(enumerate_indices(space("OG(7,17)"), cap=1024))) == 1024

    def test_label_sequences_without_permuting(self):
        # 132 classes, 11 label sequences out of 11! permutations of the labels
        start = time.perf_counter()
        listed = list(enumerate_indices(space("F(10,11;12)")))
        assert len(listed) == 132
        assert time.perf_counter() - start < 0.5

    def test_every_valid_candidate_enumerated_once(self):
        # the converse of test_all_enumerated_valid, on every space with n <= 6
        # and <= 2 steps, both components when n = 2 d_k
        ones = [SpaceDescriptor(kind, (1,), 1) for kind in (SpaceKind.GRASS_A, SpaceKind.FLAG_A)]
        spaces = itertools.chain(ones, checks._spaces(tuple(SpaceKind), max_n=6, max_steps=2))
        for sp in spaces:
            valid = [idx for idx in candidate_indices(sp) if not validate(sp, idx)]
            assert Counter(enumerate_indices(sp)) == Counter(valid), str(sp)

    def test_all_enumerated_valid(self):
        # the census classifies what the enumerator yields without validating
        # it: every space with n <= 7 and <= 3 steps, both components when
        # n = 2 d_k, then the perfbench census spaces and OG(2,8)
        small = checks._spaces(tuple(SpaceKind), max_n=7, max_steps=3)
        larger = map(space, CENSUS_SPACES + ("OG(2,8)",))
        for sp in itertools.chain(small, larger):
            for idx in enumerate_indices(sp):
                assert validate(sp, idx) == [], (str(sp), str(idx))
