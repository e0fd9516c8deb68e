"""Littlewood-Richardson oracle: products, pairing, zero criterion, Pieri chains."""
from __future__ import annotations

import pytest

from schubrigid import chow
from schubrigid.errors import ValidationError
from schubrigid.indices import dimension, dual, enumerate_indices, plain_index
from schubrigid.parser import parse_space


G24 = parse_space("G(2,4)")
G25 = parse_space("G(2,5)")


def cls(space, a, coeff=1):
    from schubrigid.indices import ChowClass

    return ChowClass.single(space, plain_index(a), coeff)


class TestZeroCriterion:
    def test_examples(self):
        assert chow.is_zero_product(G24, plain_index((1, 3)), plain_index((1, 3)))
        assert not chow.is_zero_product(G24, plain_index((2, 4)), plain_index((1, 3)))

    def test_foreign_index_rejected(self):
        with pytest.raises(ValidationError):
            chow.is_zero_product(G24, plain_index((1, 3)), plain_index((1, 5)))


class TestProduct:
    def test_special_class_collapses_to_chain_index(self):
        out = chow.product_indices(G24, plain_index((2, 4)), plain_index((1, 4)))
        assert out.terms == ((plain_index((1, 3)), 1),)

    def test_fundamental_class_is_unit(self):
        top = plain_index((3, 4))
        for idx in enumerate_indices(G24):
            out = chow.product_indices(G24, top, idx)
            assert out.terms == ((idx, 1),)

    def test_self_product_of_point_condition_class(self):
        # sigma_{1,4}^2 in G(2,4): two "lines through a point" conditions meet
        # in the single connecting line, so the square is the point class
        out = chow.product_indices(G24, plain_index((1, 4)), plain_index((1, 4)))
        assert out.terms == ((plain_index((1, 2)), 1),)
        assert not chow.is_zero_product(G24, plain_index((1, 4)), plain_index((1, 4)))

    def test_commutative_and_associative_exhaustive_g24(self):
        indices = list(enumerate_indices(G24))
        for x in indices:
            for y in indices:
                assert chow.product_indices(G24, x, y) == chow.product_indices(G24, y, x)
        singles = {idx: cls(G24, idx.a) for idx in indices}
        for x in indices:
            for y in indices:
                xy = chow.product_indices(G24, x, y)
                for z in indices:
                    left = chow.product(G24, xy, singles[z])
                    right = chow.product(G24, singles[x], chow.product_indices(G24, y, z))
                    assert left == right

    def test_classic_g25_squares(self):
        # sigma_1^2 = sigma_2 + sigma_{1,1} in lambda terms
        sigma_1 = plain_index((3, 5))  # lambda (1, 0)
        out = chow.product_indices(G25, sigma_1, sigma_1)
        assert out.coefficient(plain_index((2, 5))) == 1  # lambda (2, 0)
        assert out.coefficient(plain_index((3, 4))) == 1  # lambda (1, 1)
        assert len(out.terms) == 2

    def test_lr_coefficient_value(self):
        # c^{(2,1)}_{(1),(1,1)} etc.: classic small checks, one entry of
        # lr_expand capped at nu itself
        def lr_coefficient(lam, mu, nu):
            return chow.lr_expand(lam, mu, nu).get(nu, 0)

        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
        assert lr_coefficient((1,), (1,), (3,)) == 0

    def test_wide_box_matches_narrow_box(self):
        # rows longer than 255 switch the engine's state encoding
        for lam, mu in (((3, 1), (2, 1)), ((4, 2, 1), (3, 2))):
            narrow = chow.lr_expand(lam, mu, (8,) * 5)
            assert narrow and chow.lr_expand(lam, mu, (300,) * 5) == narrow

    def test_bilinearity_with_coefficients(self):
        two_x = cls(G24, (2, 4), 2)
        y = cls(G24, (1, 4))
        out = chow.product(G24, two_x, y)
        assert out.coefficient(plain_index((1, 3))) == 2


class TestPairing:
    def test_dual_pair(self):
        assert chow.pairing(G24, plain_index((1, 3)), plain_index((2, 4))).value == 1

    def test_non_dual(self):
        # equal dimensions but not complementary: zero with the flag cleared
        result = chow.pairing(G24, plain_index((1, 3)), plain_index((1, 3)))
        assert result.value == 0 and not result.complementary
        # complementary but non-dual: zero with the flag set
        result = chow.pairing(G24, plain_index((1, 4)), plain_index((2, 3)))
        assert result.value == 0 and result.complementary

    def test_non_complementary_flagged(self):
        result = chow.pairing(G24, plain_index((1, 3)), plain_index((1, 2)))
        assert result.value == 0 and not result.complementary

    def test_duality_sweep_g25(self):
        box = 2 * 3
        for x in enumerate_indices(G25):
            for y in enumerate_indices(G25):
                if dimension(G25, x) + dimension(G25, y) != box:
                    continue
                expected = 1 if y == dual(G25, x) else 0
                assert chow.pairing(G25, x, y).value == expected


class TestPieriChain:
    def test_chain_rule_at_c_equals_ak(self):
        out = chow.pieri_chain_class(G24, plain_index((2, 4)), 4)
        assert out.terms == ((plain_index((1, 3)), 1),)

    def test_g27_collapse(self):
        g27 = parse_space("G(2,7)")
        out = chow.pieri_chain_class(g27, plain_index((1, 5)), 5)
        assert out.terms == ((plain_index((1, 2)), 1),)

    def test_prefix_rule_and_vanishing(self):
        for space_text in ("G(2,5)", "G(3,6)"):
            sp = parse_space(space_text)
            for idx in enumerate_indices(sp):
                a_k = idx.a[-1]
                out = chow.pieri_chain_class(sp, idx, a_k)
                expected = plain_index((1,) + tuple(a + 1 for a in idx.a[:-1]))
                assert out.terms == ((expected, 1),)
                if a_k + 1 <= sp.ambient:
                    assert chow.pieri_chain_class(sp, idx, a_k + 1).terms == ()

    def test_agrees_with_lr_product(self):
        for space_text in ("G(2,5)", "G(3,6)"):
            sp = parse_space(space_text)
            for idx in enumerate_indices(sp):
                for c in range(sp.top_step, sp.ambient + 1):
                    special = chow.special_class(sp, c)
                    assert chow.pieri_chain_class(sp, idx, c) == chow.product_indices(
                        sp, idx, special
                    )

    def test_c_range(self):
        with pytest.raises(ValidationError):
            chow.pieri_chain_class(G24, plain_index((2, 4)), 1)
        with pytest.raises(ValidationError):
            chow.pieri_chain_class(G24, plain_index((2, 4)), 5)
