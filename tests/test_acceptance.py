"""Acceptance suite: one test per ``selftest full`` check, exact verdicts.

Every criterion is asserted once, in ``schubrigid.checks``; each test here
runs one entry of ``checks.FULL_CHECKS`` and is named after its check
function, so `pytest -v tests/test_acceptance.py` reads as the checklist and
a failure shows the check's detail.  Criterion 09 keeps a test of its own:
it reads multi-rigidity one sub-index at a time, where its check reads the
whole-class rows.
"""
from __future__ import annotations

import pytest

from schubrigid import checks, multirigid, rigidity
from schubrigid.indices import SpaceDescriptor, SpaceKind, enumerate_indices


@pytest.mark.parametrize(
    "check",
    [func for _, func in checks.FULL_CHECKS],
    ids=[func.__name__.removeprefix("check_") for _, func in checks.FULL_CHECKS],
)
def test_check(check):
    check()


def test_criterion_09_multirigid_implies_rigid_sweep():
    cases = 0
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            sp = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            for idx in enumerate_indices(sp):
                verdict = rigidity.classify(sp, idx)
                for i in rigidity.essential_grass(sp, idx):
                    if multirigid.multirigid_subindex_grass(sp, idx, i):
                        assert verdict.sub("a", i).rigid
                    cases += 1
    assert cases > 0
