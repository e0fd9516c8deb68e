"""Push-forward removal rule and generic-fiber classes."""
from __future__ import annotations

import pytest

from schubrigid import chow, projections
from schubrigid.errors import UnsupportedKindError, ValidationError
from schubrigid.indices import (
    dimension,
    dual,
    enumerate_indices,
    flagged_index,
    plain_index,
)
from schubrigid.parser import parse_index, parse_space


class TestPushforwardFlag:
    def test_case_one_example(self):
        sp, idx = parse_index("1^1,3^2,5^2 @ F(1,3;5)")
        assert projections.pushforward_flag(sp, idx, 2) == plain_index((1, 3, 5))

    def test_first_projection(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        assert projections.pushforward_flag(sp, idx, 1) == plain_index((2,))

    def test_top_level_keeps_everything(self):
        sp = parse_space("F(1,2,3;5)")
        for idx in enumerate_indices(sp):
            assert projections.pushforward_flag(sp, idx, 3) == plain_index(idx.a)

    def test_level_out_of_range(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        with pytest.raises(ValidationError):
            projections.pushforward_flag(sp, idx, 3)

    def test_pairing_identification_small(self):
        # the dual of the image is the unique complementary class pairing to 1
        sp = parse_space("F(1,2;5)")
        for idx in enumerate_indices(sp):
            for t in (1, 2):
                image = projections.pushforward_flag(sp, idx, t)
                tgt = projections.target_space(sp, t)
                assert chow.pairing(tgt, image, dual(tgt, image)).value == 1


class TestPushforwardOrthFlag:
    def test_of_example(self):
        sp, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
        image = projections.pushforward_flag(sp, idx, 1)
        assert image.a == () and image.b == (1, 3)

    def test_point_image(self):
        sp, idx = parse_index("(1^1|1^2) @ OF(1,2;5)")
        image = projections.pushforward_flag(sp, idx, 1)
        assert image.a == (1,) and image.b == ()

    def test_identity_at_top(self):
        sp = parse_space("OF(1,2;6)")
        for idx in enumerate_indices(sp):
            image = projections.pushforward_flag(sp, idx, 2)
            assert image.a == idx.a and image.b == idx.b

    def test_symp_removal_rule(self):
        sp, idx = parse_index("(1^1|1^2) @ SF(1,2;6)")
        image = projections.pushforward_flag(sp, idx, 1)
        assert image.a == (1,) and image.b == ()

    def test_component_choice_propagates_to_maximal_target(self):
        from schubrigid.indices import SpaceDescriptor, SpaceKind, flagged_pair_index

        sp = SpaceDescriptor(SpaceKind.FLAG_ORTH, (1, 2), 4, component_choice=False)
        idx = flagged_pair_index([(1, 1)], [(1, 2)])
        image = projections.pushforward_flag(sp, idx, 2)
        assert image.a == (1,) and image.b == (1,)


class TestFiberClasses:
    def test_top_fiber_substitution(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        assert projections.fiber_class_top(sp, idx) == flagged_index([(1, 1), (2, 2)])

    def test_bottom_fiber_example(self):
        sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
        fiber = projections.fiber_class_bottom(sp, idx)
        assert fiber == flagged_index([(1, 1), (4, 2)])
        # the geometric fiber over a point of the first image is a pencil of
        # planes through a line: dimension 2
        assert dimension(sp, fiber) == 2

    def test_bottom_fiber_case_one(self):
        sp, idx = parse_index("1^1,3^2,5^2 @ F(1,3;5)")
        fiber = projections.fiber_class_bottom(sp, idx)
        assert fiber.a == (1, 3, 5) and fiber.alpha == (1, 2, 2)

    def test_pure_bottom_pattern(self):
        sp, idx = parse_index("2^1,4^1 @ F(2;5)")
        fiber = projections.fiber_class_bottom(sp, idx)
        assert fiber == flagged_index([(1, 1), (2, 1)])

    def test_mid_boundaries(self):
        for text in ("F(1,2;4)", "F(1,2,3;5)"):
            sp = parse_space(text)
            k = sp.blocks
            for idx in enumerate_indices(sp):
                assert projections.fiber_class_mid(sp, idx, k) == projections.fiber_class_top(sp, idx)
                assert projections.fiber_class_mid(sp, idx, 1) == projections.fiber_class_bottom(sp, idx)

    def test_dimension_additivity(self):
        for text in ("F(1,2;4)", "F(1,2,3;5)", "F(2,3;5)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                for t in range(1, sp.blocks + 1):
                    image = projections.pushforward_flag(sp, idx, t)
                    tgt = projections.target_space(sp, t)
                    fiber = projections.fiber_class_mid(sp, idx, t)
                    assert dimension(sp, idx) == dimension(tgt, image) + dimension(sp, fiber)

    def test_mid_example_f123(self):
        sp, idx = parse_index("1^1,3^2,5^3 @ F(1,2,3;5)")
        fiber = projections.fiber_class_mid(sp, idx, 2)
        assert fiber == flagged_index([(1, 1), (2, 2), (5, 3)])

    def test_wrong_kind(self):
        sp, idx = parse_index("(1|1) @ OG(2,7)")
        with pytest.raises(UnsupportedKindError):
            projections.fiber_class_top(sp, idx)


class TestFiberClassOrth:
    def test_of_example(self):
        sp, idx = parse_index("(1^1|1^2) @ OF(1,2;5)")
        fiber = projections.fiber_class_orth(sp, idx, 1)
        assert fiber.a == (1,) and fiber.alpha == (1,)
        assert fiber.b == (1,) and fiber.beta == (2,)

    def test_top_level_point_pattern(self):
        sp = parse_space("OF(1,2;6)")
        for idx in enumerate_indices(sp):
            fiber = projections.fiber_class_orth(sp, idx, 2)
            assert fiber.a == tuple(range(1, 3))
            assert fiber.b == ()

    def test_rank_table_reads_when_all_present(self):
        sp, idx = parse_index("(1^1,2^2|) @ OF(1,2;6)")
        fiber = projections.fiber_class_orth(sp, idx, 1)
        # alpha <= 1 entry becomes mu_{1,1} = 1; the block-2 entry shifts
        assert fiber.a[0] == 1

    def test_result_is_valid_everywhere(self):
        for text in ("OF(1,2;5)", "OF(1,2;6)", "OF(1,2;7)"):
            sp = parse_space(text)
            for idx in enumerate_indices(sp):
                for m in (1, 2):
                    fiber = projections.fiber_class_orth(sp, idx, m)
                    from schubrigid.indices import validate

                    assert validate(sp, fiber) == []
