"""Essential/rigid sub-index criteria and class-level verdicts."""
from __future__ import annotations

import json
import pathlib
from itertools import combinations

import pytest

from schubrigid import checks, cli, indices, projections, rigidity
from schubrigid.indices import SpaceDescriptor, SpaceKind, enumerate_indices
from schubrigid.parser import parse_index, parse_space


def verdict_of(text, paper_literal=False):
    return rigidity.classify(*parse_index(text), paper_literal)


def essential_keys(text):
    return {ref.key() for ref in verdict_of(text).essential_refs()}


def essential_positions(text):
    return {ref.position for ref in verdict_of(text).essential_refs()}


def related(report, source, target):
    """Whether ``source`` relates to ``target`` in the closure rows of
    ``report``; False unless both are elements."""
    keys = [ref.key() for ref in report.elements]
    if source.key() not in keys or target.key() not in keys:
        return False
    return bool(report.rows[keys.index(source.key())] >> keys.index(target.key()) & 1)


# the paper's closed forms meet classify beyond the selftest sweep (n <= 7, <= 3 steps)
CLOSED_FORM_SPACES = ("F(1,2,3,4;8)", "F(2,5;8)")


class TestEssentialGrass:
    def test_all_essential(self):
        sp, idx = parse_index("1,3,5 @ G(3,5)")
        assert rigidity.essential_grass(sp, idx) == {1, 2, 3}

    def test_consecutive_run(self):
        sp, idx = parse_index("1,2,3 @ G(3,7)")
        assert rigidity.essential_grass(sp, idx) == {3}

    def test_two_four(self):
        sp, idx = parse_index("2,4 @ G(2,4)")
        assert rigidity.essential_grass(sp, idx) == {1, 2}


class TestEssentialOrthGrass:
    def test_og411_example(self):
        assert essential_keys("(3|0,1,3) @ OG(4,11)") == {("a", 1), ("b", 1), ("b", 3)}

    def test_last_a_always_essential_odd(self):
        assert ("a", 2) in essential_keys("(2,3|0) @ OG(3,9)")

    def test_b1_always_essential(self):
        assert ("b", 1) in essential_keys("(|0,1) @ OG(2,9)")

    def test_even_n_boundary_clause(self):
        # a_s + b_{k-s} = n - 2 drops the last a-entry
        assert ("a", 1) not in essential_keys("(3|3) @ OG(2,8)")
        assert ("a", 1) in essential_keys("(2|3) @ OG(2,8)")


class TestEssentialFlag:
    def test_f124_example(self):
        assert essential_positions("2^1,4^2 @ F(1,2;4)") == {1, 2}

    def test_remark_index(self):
        assert essential_positions("1^2,3^1,4^2 @ F(1,3;4)") == {1, 2, 3}

    def test_same_block_run(self):
        # 2 and 3 sit consecutively in one block: only the run end is essential
        assert essential_positions("2^1,3^1,4^2 @ F(2,3;6)") == {2, 3}

    def test_closed_form_matches_projection_definition(self):
        # classify reads essential <=> essential in some push-forward
        for text in CLOSED_FORM_SPACES:
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                via_proj = {ref.position for ref in rigidity.classify(sp, idx).essential_refs()}
                assert checks._flag_essential(idx) == via_proj, (text, str(idx))


class TestRigidSubindexGrass:
    def test_middle_not_rigid(self):
        assert verdict_of("1,3,5 @ G(3,5)").sub("a", 2).rigid is False

    def test_last_always_rigid(self):
        for text in ("1,3,5 @ G(3,5)", "2,4 @ G(2,4)", "1,4 @ G(2,5)"):
            verdict = verdict_of(text)
            assert verdict.sub("a", len(verdict.index.a)).rigid is True

    def test_a1_equals_one(self):
        assert verdict_of("1,4 @ G(2,5)").sub("a", 1).rigid is True

    def test_requires_essential(self):
        # rigidity is undefined off the essential set: no verdict, no witness
        sub = verdict_of("1,2,4 @ G(3,5)").sub("a", 1)
        assert (sub.essential, sub.rigid, sub.witness) == (False, None, ())


class TestRigidSubindexFlag:
    def test_rigid_with_block_step(self):
        sub = verdict_of("2^1,4^2 @ F(1,2;4)").sub("a", 1)
        assert sub.rigid is True and sub.witness == ("levels", (1,))

    def test_not_rigid_with_swapped_blocks(self):
        sub = verdict_of("2^2,4^1 @ F(1,2;4)").sub("a", 1)
        assert sub.rigid is False and sub.witness == ()

    def test_case_one_middle_sub_index(self):
        assert verdict_of("1^1,3^2,5^2 @ F(1,3;5)").sub("a", 2).rigid is False

    def test_clause_equals_projection_everywhere_small(self):
        # classify reads rigid <=> rigid in some push-forward
        for text in CLOSED_FORM_SPACES:
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                verdict = rigidity.classify(sp, idx)
                for ref in verdict.essential_refs():
                    clause = checks._flag_clause_rigid(idx, ref.position)
                    assert verdict.sub("a", ref.position).rigid == clause, (text, str(idx))


class TestRelationFlag:
    def test_rigid_example_totally_ordered(self):
        assert verdict_of("2^1,4^2 @ F(1,2;4)").relation.totally_ordered

    def test_remark_index_not_ordered(self):
        verdict = verdict_of("1^2,3^1,4^2 @ F(1,3;4)")
        report = verdict.relation
        assert report.totally_ordered is False
        # refs 1 and 2 are the incomparable pair
        r1 = verdict.sub("a", 1).ref
        r2 = verdict.sub("a", 2).ref
        assert not related(report, r1, r2) and not related(report, r2, r1)

    def test_paper_literal_flips_the_remark_index(self):
        assert verdict_of("1^2,3^1,4^2 @ F(1,3;4)", paper_literal=True).relation.totally_ordered

    def test_single_essential_trivially_ordered(self):
        assert verdict_of("1,2 @ G(2,5)").relation.totally_ordered

    def test_closure_is_transitive_and_strict(self):
        # flag edges only run from lower to higher positions, so the order is
        # automatically strict; the closure must stay transitively closed
        for text in ("F(1,2;5)", "F(1,3;5)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                report = rigidity.classify(sp, idx).relation
                assert report.strict
                for row in report.rows:
                    for j, row_j in enumerate(report.rows):
                        if row >> j & 1:
                            assert row | row_j == row


class TestRigidClassFlag:
    def test_block_order_decides_the_pair(self):
        assert verdict_of("2^1,4^2 @ F(1,2;4)").class_rigid is True
        assert verdict_of("2^2,4^1 @ F(1,2;4)").class_rigid is False

    def test_hyperplane_section_class(self):
        # sigma_{n-k, n-k+2, ..., n} is a singular hyperplane section: not rigid
        for text in ("2,4 @ G(2,4)", "3,5,6 @ G(3,6)", "4,6,7,8 @ G(4,8)"):
            assert verdict_of(text).class_rigid is False

    def test_census_baseline_g24(self):
        sp = parse_space("G(2,4)")
        verdicts = {
            idx.a: rigidity.classify(sp, idx).class_rigid
            for idx in enumerate_indices(sp)
        }
        assert verdicts == {
            (1, 2): True,
            (1, 3): True,
            (1, 4): True,
            (2, 3): True,
            (2, 4): False,
            (3, 4): True,
        }

    def test_rigid_implies_essential_and_order(self):
        for text in ("F(1,2;5)", "F(1,3;5)", "G(2,6)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                verdict = rigidity.classify(sp, idx)
                for sub in verdict.subs:
                    if sub.rigid:
                        assert sub.essential
                if verdict.class_rigid:
                    assert verdict.relation.totally_ordered
                    assert all(v.rigid for v in verdict.subs if v.essential)


class TestRigidOrthGrass:
    def test_og411_a_side(self):
        assert verdict_of("(3|0,1,3) @ OG(4,11)").sub("a", 1).rigid is True

    def test_b_zero_rigid(self):
        assert verdict_of("(3|0,1,3) @ OG(4,11)").sub("b", 1).rigid is True

    def test_b_without_matching_a_not_rigid(self):
        assert verdict_of("(|1,3) @ OG(2,11)").sub("b", 1).rigid is False

    def test_class_verdicts(self):
        assert verdict_of("(3|0,1,3) @ OG(4,11)").class_rigid is True
        assert verdict_of("(|1,3) @ OG(2,11)").class_rigid is False
        assert verdict_of("(1|1) @ OG(2,5)").class_rigid is False

    def test_fundamental_class_literal_corner(self):
        # the class conditions are evaluated verbatim: the all-vacuous index
        # (largest essential b is 0, no matching a) reports not rigid, even
        # though a fundamental class has no representative other than the
        # space itself; the per-sub-index clause still marks b=0 rigid
        verdict = verdict_of("(|0,1) @ OG(2,5)")
        assert verdict.class_rigid is False
        assert verdict.sub("b", 1).rigid is True

    def test_even_n_value_clause_never_fires(self):
        # (n-3)/2 is a half-integer for even n; the equality clause is void,
        # so a-entries recurring in b stay rigid
        assert verdict_of("(1|1) @ OG(2,8)").sub("a", 1).rigid is True


class TestOrthFlag:
    def test_implies_relation_chain(self):
        sp, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
        analysis = rigidity._ClassAnalysis(sp, idx, rigidity._SpaceTables(sp))
        report = analysis.implies_relation()
        a3, b3, b1 = (analysis.refs[q] for q in (0, 3, 2))  # a_1, b_3, b_2
        assert related(report, a3, b3)
        assert related(report, b3, b1)
        assert related(report, a3, b1)  # transitivity
        for e in report.elements:
            assert related(report, e, e)  # reflexivity

    def test_no_edge_into_from_half_minus_one(self):
        sp, idx = parse_index("(|2^1,3^2) @ OF(1,2;8)")
        analysis = rigidity._ClassAnalysis(sp, idx, rigidity._SpaceTables(sp))
        report = analysis.implies_relation()
        b2, b3 = analysis.refs  # b_1 and b_2: no a side
        # b_2 has value 3 = n/2 - 1: no propagation out of it
        assert not related(report, b3, b2)

    def test_rigid_sub_example(self):
        sub = verdict_of("(3^2|3^1,1^1,0^2) @ OF(2,4;11)").sub("b", 2)
        assert sub.ref.value == 1
        assert sub.rigid is True
        kind, (chain, level) = sub.witness
        assert kind == "chain"
        assert [(-1 if r.side == "b" else 1) * r.value for r in chain] == [3, -3, -1]
        assert level == 2

    def test_point_class_projection(self):
        assert verdict_of("(1^1|1^2) @ OF(1,2;5)").sub("a", 1).rigid is True

    def test_class_verdicts(self):
        assert verdict_of("(1^1|1^2) @ OF(1,2;5)").class_rigid is True
        # regression baseline: the block-swapped sibling is not rigid
        verdict = verdict_of("(1^2|1^1) @ OF(1,2;5)")
        assert verdict.class_rigid is False
        assert all(v.rigid is False for v in verdict.subs if v.essential)

    def test_incomparable_pair_blocks_class(self):
        for text in ("OF(1,2;5)", "OF(1,2;6)", "OF(1,2;7)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                verdict = rigidity.classify(sp, idx)
                if verdict.class_rigid:
                    assert verdict.relation.totally_ordered


class TestSymplectic:
    def test_family_members(self):
        assert verdict_of("(1|1) @ SG(2,8)").class_rigid is True
        assert verdict_of("(1,2|2) @ SG(3,10)").class_rigid is True

    def test_unknown(self):
        assert verdict_of("(2|0) @ SG(2,8)").class_rigid is None

    def test_sufficient_sub_index(self):
        verdict = verdict_of("(1,4|) @ SG(2,8)")
        assert verdict.sub("a", 1).rigid is True  # a_1 = 1 with gap >= 3

    def test_flagged_symp_propagation(self):
        verdict = verdict_of("(1^1|1^2) @ SF(1,2;8)")
        assert verdict.sub("a", 1).rigid is True  # point class under pi_1
        assert verdict.class_rigid is None


def walk_levels(space, index):
    """{t: (essential refs, rigid refs) in pi_t}, refs by (side, position),
    by a direct walk: the image through the removal rule, its survivors keyed
    by position, then the kind's essential core and clause test in the image."""
    kind, n = space.kind, space.ambient
    out = {}
    for t in range(1, space.blocks + 1):
        image = projections.remove_above(index, t)
        target = projections.target_space(space, t)
        lands = {}  # image key -> class key
        for side, entries in (("a", index.a_entries()), ("b", index.b_entries())):
            kept = [p for p, (_, block) in enumerate(entries, start=1) if block <= t]
            lands.update(((side, i), (side, p)) for i, p in enumerate(kept, start=1))
        if kind is SpaceKind.FLAG_A:
            essential = {("a", i) for i in rigidity._gap_positions(image.a)}
            rigid = {key for key in essential if rigidity._grass_rigid(image.a, key[1])}
        elif kind is SpaceKind.FLAG_ORTH:
            essential = rigidity._orth_essential(n, image)
            rigid = {key for key in essential if rigidity._orth_rigid(target, image, key)}
        else:
            essential = rigidity._symp_essential(image)
            rigid = {
                key
                for key in essential
                if key[0] == "a" and rigidity._sg_sufficient(target, image, key)
            }
        out[t] = ({lands[key] for key in essential}, {lands[key] for key in rigid})
    return out


def oracle_spaces():
    """Every F(d;n) with n <= 6 and <= 3 steps, and OF / SF spaces of both
    parities, OF(1,3;6) under both components."""
    for n in range(1, 7):
        for size in range(1, 4):
            for steps in combinations(range(1, n + 1), size):
                yield SpaceDescriptor(SpaceKind.FLAG_A, steps, n)
    for text in ("OF(1,2;5)", "OF(1,2;6)", "OF(1,3;7)", "OF(2,3;8)", "SF(1,2;6)", "SF(1,3;8)"):
        yield parse_space(text)
    for component in (True, False):
        yield SpaceDescriptor(SpaceKind.FLAG_ORTH, (1, 3), 6, component)


class TestLevelMaskOracle:
    """The per-level masks and every ``first`` / ``levels`` answer that
    ``classify`` reads, against ``walk_levels``."""

    def test_masks_and_answers_match_the_walk(self, monkeypatch):
        asked = []
        for name in ("first", "levels"):
            original = getattr(rigidity._ClassAnalysis, name)

            def recorded(analysis, table, threshold, need, _original=original, _name=name):
                answer = _original(analysis, table, threshold, need)
                asked.append((_name, table is analysis.rig, threshold, need, answer))
                return answer

            monkeypatch.setattr(rigidity._ClassAnalysis, name, recorded)
        built = []
        original_init = rigidity._ClassAnalysis.__init__

        def init(analysis, *args, **kwargs):
            original_init(analysis, *args, **kwargs)
            built.append(analysis)

        monkeypatch.setattr(rigidity._ClassAnalysis, "__init__", init)
        above_block = two_refs = 0
        for space in oracle_spaces():
            for idx in enumerate_indices(space):
                walk = walk_levels(space, idx)
                for literal in (False, True):
                    asked.clear()
                    built.clear()
                    rigidity.classify(space, idx, literal)
                    (analysis,) = built
                    keys = [ref.key() for ref in analysis.refs]
                    for t, (essential, rigid) in walk.items():
                        assert analysis.ess[t] == sum(1 << keys.index(k) for k in essential)
                        assert analysis.rig[t] == sum(1 << keys.index(k) for k in rigid)
                    for name, on_rigid, threshold, need, answer in asked:
                        refs = [keys[q] for q in range(len(keys)) if need >> q & 1]
                        hits = tuple(
                            t for t in range(threshold, space.blocks + 1)
                            if all(key in walk[t][on_rigid] for key in refs)
                        )
                        want = hits if name == "levels" else (hits[0] if hits else None)
                        assert answer == want, (str(space), str(idx), name, threshold, refs)
                        block = max(analysis.refs[keys.index(key)].block for key in refs)
                        above_block += threshold > block
                        two_refs += len(refs) == 2
        # the relations ask above a ref's own block, and compat asks b -> a on two refs
        assert above_block and two_refs


class TestOnePushForwardPerLevel:
    def test_each_level_pushed_forward_at_most_once(self, monkeypatch):
        # counts the removal rule the analysis calls: every F/OF/SF class
        # pushes forward each level 1..blocks exactly once
        levels = []
        original = rigidity.remove_above

        def counted(index, t):
            levels.append(t)
            return original(index, t)

        monkeypatch.setattr(rigidity, "remove_above", counted)
        for text in ("F(1,2,3,4;8)", "OF(2,4;13)", "SF(2,4;12)"):
            sp = parse_space(text)
            for idx in list(enumerate_indices(sp))[::40]:
                levels.clear()
                rigidity.classify(sp, idx)
                assert sorted(levels) == list(range(1, sp.blocks + 1)), (text, str(idx))


class TestSharedSpaceTables:
    def test_one_target_space_per_level_per_census(self, monkeypatch):
        # a census builds each level's target space once, not once per class
        calls = []
        original = rigidity.target_space

        def counted(space, t):
            calls.append(t)
            return original(space, t)

        monkeypatch.setattr(rigidity, "target_space", counted)
        for text in ("F(1,2,3,4;8)", "OF(2,4;13)", "SF(2,4;12)"):
            sp = parse_space(text)
            calls.clear()
            total = sum(1 for _ in rigidity.classify_space(sp))
            assert total == indices.class_count(sp)
            assert len(calls) <= sp.blocks, (text, len(calls))

    @pytest.mark.parametrize(
        "text, core, fills",
        [
            ("F(1,2,3,4;8)", "_gap_positions", 162),
            ("OF(2,4;13)", "_orth_essential", 300),
            ("SF(2,4;12)", "_symp_essential", 300),
        ],
    )
    def test_masks_filled_once_per_image(self, monkeypatch, text, core, fills):
        # a census runs the essential core once per distinct (t, image): for
        # F(1,2,3,4;8) that is C(8,1) + C(8,2) + C(8,3) + C(8,4) images
        sp = parse_space(text)
        images = {
            (t, image.a, image.b)
            for idx in enumerate_indices(sp)
            for t in range(1, sp.blocks + 1)
            for image in [projections.remove_above(idx, t)]
        }
        calls = []
        original = getattr(rigidity, core)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rigidity, core, counted)
        total = sum(1 for _ in rigidity.classify_space(sp))
        assert total == indices.class_count(sp)
        assert len(calls) == len(images) == fills

    def test_grass_census_removes_nothing(self, monkeypatch):
        # G(k,n) has its own path: no flag view, no push-forward
        calls = []
        monkeypatch.setattr(rigidity, "remove_above", lambda *args: calls.append(args))
        sp = parse_space("G(6,14)")
        verdicts = list(rigidity.classify_space(sp))
        assert len(verdicts) == 3003 and calls == []


class TestValidateOncePerClass:
    CENSUS_SPACES = (
        "SG(6,14)", "G(6,14)", "F(1,2,3,4;8)", "OG(7,17)", "OF(2,4;13)", "SF(2,4;12)"
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = indices.validate

        def counted(space, index):
            calls.append(index)
            return original(space, index)

        monkeypatch.setattr(indices, "validate", counted)
        return calls

    def test_classify_validates_each_class_once(self, calls):
        for text in self.CENSUS_SPACES:
            sp = parse_space(text)
            for idx in list(enumerate_indices(sp))[::40]:
                calls.clear()
                rigidity.classify(sp, idx)
                assert len(calls) == 1, (text, str(idx))

    def test_census_validates_nothing(self, calls):
        # classify_space reads enumerated classes, valid by construction
        for text in self.CENSUS_SPACES:
            sp = parse_space(text)
            assert sum(1 for _ in rigidity.classify_space(sp)) == indices.class_count(sp)
        assert calls == []

    def test_multirigid_on_grass_validates_once_per_call(self, calls, capsys):
        # one validation parsing the literal, one where multirigid reads it
        assert cli.main(["multirigid", "1,2,4,7 @ G(4,9)"]) == 0
        assert capsys.readouterr().out == "a2=False a3=False a4=False\n"
        assert len(calls) == 2


GOLDEN_VERDICTS = pathlib.Path(__file__).parent / "data" / "verdicts_golden.jsonl"
GOLDEN_SPACES = (
    "G(4,8)",
    "F(1,2,3;6)",
    "OG(3,9)",
    "OG(3,8)",
    "OF(1,3;9)",
    "OF(2,3;8)",
    "OF(1,3;6)",
    "SG(3,8)",
    "SF(1,2;6)",
)


def golden_verdict_lines():
    """``classify(...).to_json()`` of every class of GOLDEN_SPACES, one per line,
    under the max reading and then under ``paper_literal``."""
    for text in GOLDEN_SPACES:
        sp = parse_space(text)
        for idx in enumerate_indices(sp):
            for literal in (False, True):
                verdict = rigidity.classify(sp, idx, paper_literal=literal)
                yield json.dumps(verdict.to_json()) + "\n"


def shared_verdict_lines():
    """The lines of ``golden_verdict_lines``, from one ``classify_space`` pass
    per space and reading, interleaved in the same order."""
    for text in GOLDEN_SPACES:
        sp = parse_space(text)
        passes = [rigidity.classify_space(sp, literal) for literal in (False, True)]
        for pair in zip(*passes):
            for verdict in pair:
                yield json.dumps(verdict.to_json()) + "\n"


class TestGoldenVerdicts:
    def test_verdicts_byte_identical(self):
        # recorded before the per-class analysis replaced the per-question
        # push-forwards; witnesses and relation edges are in every line
        golden = GOLDEN_VERDICTS.read_text().splitlines(keepends=True)
        got = list(golden_verdict_lines())
        assert len(got) == len(golden) == 2 * 514
        for line, want in zip(got, golden):
            assert line == want

    def test_shared_tables_byte_identical(self):
        # the census path: every class of a space reads one set of tables
        golden = GOLDEN_VERDICTS.read_text().splitlines(keepends=True)
        got = list(shared_verdict_lines())
        assert len(got) == len(golden) == 2 * 514
        for line, want in zip(got, golden):
            assert line == want
