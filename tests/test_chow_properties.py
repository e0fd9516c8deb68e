"""Property tests of the LR engine over every G(k,n) with n <= 10.

Derandomized, so every run draws the same examples.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from schubrigid import chow
from schubrigid.indices import SpaceDescriptor, SpaceKind, lambda_notation, plain_index

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def grassmannians(draw):
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n - 1))
    return SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)


def indices(space):
    values = st.lists(
        st.integers(1, space.ambient),
        min_size=space.top_step,
        max_size=space.top_step,
        unique=True,
    )
    return values.map(lambda a: plain_index(tuple(sorted(a))))


@st.composite
def index_pairs(draw):
    space = draw(grassmannians())
    return space, draw(indices(space)), draw(indices(space))


@PROPERTY
@given(index_pairs())
def test_products_commute(case):
    space, x, y = case
    assert chow.product_indices(space, x, y) == chow.product_indices(space, y, x)


@PROPERTY
@given(index_pairs())
def test_fundamental_class_is_identity(case):
    space, x, _ = case
    n, k = space.ambient, space.top_step
    unit = plain_index(tuple(range(n - k + 1, n + 1)))
    assert chow.product_indices(space, unit, x).terms == ((x, 1),)


@PROPERTY
@given(index_pairs())
def test_terms_have_the_sum_of_the_degrees(case):
    space, x, y = case
    degree = sum(lambda_notation(space, x)) + sum(lambda_notation(space, y))
    for term, _ in chow.product_indices(space, x, y).terms:
        assert sum(lambda_notation(space, term)) == degree


@PROPERTY
@given(index_pairs(), st.data())
def test_special_class_products_match_pieri_chains(case, data):
    space, x, _ = case
    c = data.draw(st.integers(space.top_step, space.ambient))
    special = chow.special_class(space, c)
    assert chow.product_indices(space, x, special) == chow.pieri_chain_class(space, x, c)
