"""Multi-rigidity criteria and the gamma invariants."""
from __future__ import annotations

import pytest

from schubrigid import multirigid, rigidity
from schubrigid.errors import NonEssentialSubIndexError, UnsupportedKindError, ValidationError
from schubrigid.indices import enumerate_indices, plain_index
from schubrigid.parser import parse_index, parse_space


def family(space_text, *supports, coeff=1):
    sp = parse_space(space_text)
    return multirigid.IndexFamily(
        space=sp, members=tuple((plain_index(a), coeff) for a in supports)
    )


class TestMultirigidGrass:
    def test_first_entry_with_wide_gap(self):
        sp, idx = parse_index("1,5 @ G(2,7)")
        assert multirigid.multirigid_subindex_grass(sp, idx, 1) is True

    def test_top_value_clause(self):
        sp, idx = parse_index("2,7 @ G(2,7)")
        assert multirigid.multirigid_subindex_grass(sp, idx, 2) is True

    def test_gap_clause_fails(self):
        sp, idx = parse_index("1,3,5 @ G(3,7)")
        assert multirigid.multirigid_subindex_grass(sp, idx, 2) is False

    def test_requires_essential(self):
        sp, idx = parse_index("1,2,5 @ G(3,7)")
        with pytest.raises(NonEssentialSubIndexError):
            multirigid.multirigid_subindex_grass(sp, idx, 1)

    def test_rows_read_each_essential_position(self):
        for text in ("1,5 @ G(2,7)", "1,3,5 @ G(3,7)", "1,2,5 @ G(3,7)", "2,7 @ G(2,7)"):
            sp, idx = parse_index(text)
            assert multirigid.multirigid_grass(sp, idx) == tuple(
                (i, multirigid.multirigid_subindex_grass(sp, idx, i))
                for i in sorted(rigidity.essential_grass(sp, idx))
            )

    def test_implies_rigid_sweep(self):
        # rigid verdicts from the per-space census path
        from schubrigid.indices import SpaceDescriptor, SpaceKind

        for n in range(2, 11):
            for k in range(1, min(4, n - 1) + 1):
                sp = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
                for verdict in rigidity.classify_space(sp):
                    idx = verdict.index
                    for i in rigidity.essential_grass(sp, idx):
                        if multirigid.multirigid_subindex_grass(sp, idx, i):
                            assert verdict.sub("a", i).rigid


class TestGamma:
    def test_gamma_top_examples(self):
        assert multirigid.gamma_top(family("G(2,5)", (1, 3), (2, 3))) == 3
        assert multirigid.gamma_top(family("G(2,7)", (1, 5))) is None
        assert multirigid.gamma_top(family("G(2,6)", (2, 4), (3, 4))) == 4

    def test_gamma_bottom_examples(self):
        out = multirigid.gamma_bottom(family("G(3,7)", (1, 4, 6), (1, 2, 6)))
        assert (out.d, out.determined) == (1, True)
        out = multirigid.gamma_bottom(family("G(3,7)", (2, 4, 6), (1, 2, 6)))
        assert (out.d, out.determined) == (0, False)
        out = multirigid.gamma_bottom(family("G(3,7)", (1, 2, 6), (1, 3, 6)))
        assert (out.d, out.determined) == (1, False)

    def test_gamma_mid_examples(self):
        assert multirigid.gamma_mid(family("G(3,9)", (1, 2, 8)), 2) == 2
        assert multirigid.gamma_mid(family("G(3,9)", (1, 2, 8), (1, 2, 7)), 2) == 2
        assert multirigid.gamma_mid(family("G(3,9)", (1, 2, 8), (2, 3, 8)), 2) == 3

    def test_gamma_mid_reduces_to_top(self):
        fam = family("G(2,5)", (1, 3), (2, 3))
        top = multirigid.gamma_top(fam)
        mid = multirigid.gamma_mid(fam, 2)
        if top is not None and mid is not None:
            assert top == mid

    def test_family_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValidationError):
            family("G(2,5)", (1, 3), coeff=0)

    def test_coefficients_do_not_matter(self):
        assert multirigid.gamma_mid(family("G(3,9)", (1, 2, 8), coeff=7), 2) == 2


class TestLeadingTerm:
    def test_og27_examples(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        report = multirigid.og_pushforward_leading(sp, idx)
        assert (report.coefficient, report.prefix, report.admissible) == (2, (1,), True)
        sp, idx = parse_index("(2|2) @ OG(2,7)")
        report = multirigid.og_pushforward_leading(sp, idx)
        assert (report.coefficient, report.prefix, report.admissible) == (2, (2,), True)

    def test_hypothesis_violation_reported(self):
        # x_1 = 0 misses the bound 3 - 1 + 1 - floor((9-1-3)/2) = 1
        sp, idx = parse_index("(4|1,2) @ OG(3,9)")
        report = multirigid.og_pushforward_leading(sp, idx)
        assert not report.admissible and report.violations == (1,)
        assert multirigid.multirigid_class_og(sp, idx).sub("a", 1).rigid is False

    def test_no_b_part(self):
        sp, idx = parse_index("(1,2|) @ OG(2,7)")
        report = multirigid.og_pushforward_leading(sp, idx)
        assert report.coefficient == 1 and report.admissible
        assert report.prefix == idx.a

    def test_leading_coefficient_matches_expansion(self):
        from schubrigid import restriction
        from schubrigid.errors import UnsupportedDegenerationError

        for text in ("OG(2,7)", "OG(2,9)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                if not idx.a:
                    continue
                if not any(ref.side == "a" for ref in rigidity.classify(sp, idx).essential_refs()):
                    continue
                report = multirigid.og_pushforward_leading(sp, idx)
                if not report.admissible:
                    continue
                try:
                    cls, _ = restriction.og_to_grass(sp, idx)
                except UnsupportedDegenerationError:
                    continue
                matching = [
                    (t, c) for t, c in cls.terms if t.a[: len(report.prefix)] == report.prefix
                ]
                term, coeff = max(matching, key=lambda item: item[0].a)
                assert coeff == report.coefficient


class TestMultirigidOG:
    def test_og27_class(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        verdict = multirigid.multirigid_class_og(sp, idx)
        assert verdict.sub("a", 1).rigid is True
        assert verdict.sub("b", 1).rigid is True
        assert verdict.class_rigid is True

    def test_gap_violation(self):
        sp, idx = parse_index("(2|2) @ OG(2,7)")
        assert multirigid.multirigid_class_og(sp, idx).sub("a", 1).rigid is False

    def test_essential_b_without_a_blocks_class(self):
        sp, idx = parse_index("(|0,2) @ OG(2,9)")
        verdict = multirigid.multirigid_class_og(sp, idx)
        assert verdict.class_rigid is False

    @pytest.mark.parametrize(
        "text", ["1,3 @ G(2,4)", "2^1,4^2 @ F(1,2;4)", "(1|1) @ SG(2,8)", "(1^1|1^2) @ OF(1,2;5)"]
    )
    def test_other_kinds_unsupported(self, text):
        # valid classes of every kind but OG: no answer from the OG clauses
        with pytest.raises(UnsupportedKindError):
            multirigid.multirigid_class_og(*parse_index(text))

    def test_multirigid_implies_rigid_og(self):
        for text in ("OG(2,7)", "OG(2,9)", "OG(3,9)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                verdict = multirigid.multirigid_class_og(sp, idx)
                if verdict.class_rigid:
                    assert rigidity.classify(sp, idx).class_rigid
