"""Acceptance suite: one test per criterion, exact verdicts, no tolerances.

Every criterion prints a pass line so `pytest -s tests/test_acceptance.py`
doubles as a readable report; the same checks back the `schubrigid selftest`
command.
"""
from __future__ import annotations

from schubrigid import checks, chow, multirigid, projections, restriction, rigidity
from schubrigid.indices import (
    SpaceDescriptor,
    SpaceKind,
    dimension,
    dual,
    enumerate_indices,
    lambda_notation,
    plain_index,
)
from schubrigid.parser import parse_index, parse_sequence, parse_space


def _ok(number, label):
    print("ACCEPTANCE %02d %s: PASS" % (number, label))


def test_criterion_01_flag_rigidity_examples():
    sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
    assert rigidity.rigid_class_flag(sp, idx).class_rigid is True
    sp, idx = parse_index("2^2,4^1 @ F(1,2;4)")
    assert rigidity.rigid_class_flag(sp, idx).class_rigid is False
    _ok(1, "flag rigidity examples")


def test_criterion_02_pushforward_examples():
    sp, idx = parse_index("1^1,3^2,5^2 @ F(1,3;5)")
    assert projections.pushforward_flag(sp, idx, 2) == plain_index((1, 3, 5))
    sp, idx = parse_index("2^1,4^2 @ F(1,2;4)")
    assert projections.pushforward_flag(sp, idx, 1) == plain_index((2,))
    sp, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
    image = projections.pushforward_pair_flag(sp, idx, 1)
    assert image.a == () and image.b == (1, 3)
    _ok(2, "push-forward examples")


def test_criterion_03_removal_rule_oracle_cross_validation():
    sp = parse_space("F(1,2;5)")
    pairings = 0
    for idx in enumerate_indices(sp):
        for t in (1, 2):
            image = projections.pushforward_flag(sp, idx, t)
            tgt = projections.target_space(sp, t)
            box = tgt.top_step * (tgt.ambient - tgt.top_step)
            want_dual = dual(tgt, image)
            complement = box - dimension(tgt, image)
            for candidate in enumerate_indices(tgt):
                if dimension(tgt, candidate) != complement:
                    continue
                value = chow.pairing(tgt, image, candidate).value
                assert value == (1 if candidate == want_dual else 0)
                pairings += 1
    assert pairings > 0
    _ok(3, "removal-rule pairing cross-validation (%d pairings)" % pairings)


def test_criterion_04_zero_product_criterion_oracle():
    pairs = 0
    for n in range(2, 8):
        for k in range(1, min(3, n - 1) + 1):
            sp = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            box = (n - k,) * k
            indices = list(enumerate_indices(sp))
            for x in indices:
                lam = lambda_notation(sp, x)
                for y in indices:
                    # the raw expansion: product_indices short-circuits on
                    # the criterion itself
                    raw = chow.lr_expand(lam, lambda_notation(sp, y), box)
                    assert chow.is_zero_product(sp, x, y) == (not raw)
                    pairs += 1
    _ok(4, "zero-product criterion == raw LR expansion (%d pairs)" % pairs)


def test_criterion_06_orthogonal_examples():
    sp, idx = parse_index("(3|0,1,3) @ OG(4,11)")
    assert rigidity.rigid_class_orthgrass(sp, idx).class_rigid is True

    sp, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
    ref = rigidity.find_ref(idx, "b", 2)
    assert ref.value == 1
    verdict, witness = rigidity.rigid_subindex_orthflag(sp, idx, ref)
    assert verdict is True
    _, (chain, _level) = witness
    assert tuple((r.side, r.value) for r in chain) == (("a", 3), ("b", 3), ("b", 1))

    sp, idx = parse_index("(1^1|1^2) @ OF(1,2;5)")
    assert rigidity.rigid_class_orthflag(sp, idx).class_rigid is True

    sp, idx = parse_index("(1|1) @ OG(2,5)")
    assert rigidity.rigid_class_orthgrass(sp, idx).class_rigid is False
    _ok(6, "orthogonal examples (OG(4,11), OF(2,4;11) chain, OF(1,2;5), OG(2,5))")


def test_criterion_07_restriction_expansion():
    cls, _ = restriction.expand(parse_sequence("F:2 | Q:6^0 @ OG(2,7)"))
    _, s11 = parse_index("(1|1) @ OG(2,7)")
    _, s22 = parse_index("(2|2) @ OG(2,7)")
    assert dict(cls.terms) == {s11: 1, s22: 1}
    _ok(7, "restriction expansion F_2 < Q_6^0 -> sigma_{1;1} + sigma_{2;2}")


def test_criterion_08_og_to_grass_pushforward():
    sp, idx = parse_index("(1|1) @ OG(2,7)")
    cls, _ = restriction.og_to_grass(sp, idx)
    assert cls.terms == ((plain_index((1, 5)), 2),)
    report = multirigid.og_pushforward_leading(sp, idx)
    assert report.coefficient == 2 ** (2 - 1) == 2 and report.admissible
    assert multirigid.multirigid_class_og(sp, idx).class_rigid is True
    _ok(8, "OG->G push-forward 2*sigma_{1,5}, leading 2^{k-s}, multi-rigid class")


def test_criterion_09_multirigid_implies_rigid_sweep():
    cases = 0
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            sp = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            for idx in enumerate_indices(sp):
                for i in rigidity.essential_grass(sp, idx):
                    if multirigid.multirigid_subindex_grass(sp, idx, i):
                        assert rigidity.rigid_subindex_grass(sp, idx, i)
                    cases += 1
    _ok(9, "multi-rigid => rigid sweep, zero violations (%d sub-indices)" % cases)


def test_criterion_10_fiber_class_consistency():
    cases = 0
    for text in ("F(1,2;4)", "F(1,2,3;5)"):
        sp = parse_space(text)
        k = sp.blocks
        for idx in enumerate_indices(sp):
            assert projections.fiber_class_mid(sp, idx, k) == projections.fiber_class_top(sp, idx)
            assert projections.fiber_class_mid(sp, idx, 1) == projections.fiber_class_bottom(sp, idx)
            for t in range(1, k + 1):
                image = projections.pushforward_flag(sp, idx, t)
                tgt = projections.target_space(sp, t)
                fiber = projections.fiber_class_mid(sp, idx, t)
                assert dimension(sp, idx) == dimension(tgt, image) + dimension(sp, fiber)
                cases += 1
    _ok(10, "fiber boundary reductions + dimension additivity (%d cases)" % cases)


def test_criterion_11_symplectic_family():
    from schubrigid.indices import pair_index

    count = 0
    for k in range(1, 5):
        n = 2 * k + 2
        sp = SpaceDescriptor(SpaceKind.GRASS_SYMP, (k,), n)
        for i in range(1, k + 1):
            idx = pair_index(tuple(range(1, i + 1)), tuple(range(i, k)))
            assert rigidity.rigid_symp(sp, idx).class_rigid is True
            count += 1
    _ok(11, "symplectic family rigid for 1 <= i <= k <= 4 (%d classes)" % count)


def test_criterion_12_remark_counterexample_gate():
    sp, idx = parse_index("1^2,3^1,4^2 @ F(1,3;4)")
    strict = rigidity.relation_flag(sp, idx, paper_literal=False)
    assert strict.totally_ordered is False
    assert rigidity.rigid_class_flag(sp, idx).class_rigid is False
    literal = rigidity.relation_flag(sp, idx, paper_literal=True)
    assert literal.totally_ordered is True  # the documented discrepancy
    _ok(12, "Remark gate: max -> unordered/not rigid; --paper-literal -> ordered")


def test_selftest_full_matches_acceptance():
    failures = checks.run_checks("full", emit=lambda *_: None)
    assert failures == 0
    _ok(13, "selftest full: every cross-check green")
