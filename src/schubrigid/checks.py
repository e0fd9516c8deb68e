"""Cross-checks behind the ``selftest`` command and the acceptance suite.

Each check either returns a short summary string or raises CheckFailure with
the failing detail.  ``quick`` covers the worked-example regressions;
``full`` adds the exhaustive oracle sweeps.
"""
from __future__ import annotations

import time
from collections import Counter
from itertools import combinations, permutations
from math import inf

from . import chow, multirigid, projections, restriction, rigidity
from .errors import UnsupportedDegenerationError, ValidationError
from .indices import (
    ChowClass,
    SpaceDescriptor,
    SpaceKind,
    class_count,
    dimension,
    dual,
    enumerate_indices,
    flagged_index,
    index_from_lambda,
    lambda_notation,
    pair_index,
    plain_index,
)
from .parser import parse_index, parse_sequence, parse_space


class CheckFailure(AssertionError):
    pass


def _expect(condition, detail, *args):
    """Raise ``CheckFailure(detail % args)`` unless ``condition``; a sweep
    passes ``args`` so that the detail is formatted only when it fails."""
    if not condition:
        raise CheckFailure(detail % args if args else detail)


# ---------------------------------------------------------------------------
# quick checks: worked-example regressions


def check_flag_rigidity_examples():
    """rigid(2^1,4^2 @ F(1,2;4)) and not rigid(2^2,4^1 @ F(1,2;4))."""
    space, idx = parse_index("2^1,4^2 @ F(1,2;4)")
    verdict = rigidity.classify(space, idx)
    _expect(verdict.class_rigid is True, "2^1,4^2 should be rigid")
    space, idx = parse_index("2^2,4^1 @ F(1,2;4)")
    verdict = rigidity.classify(space, idx)
    _expect(verdict.class_rigid is False, "2^2,4^1 should not be rigid")
    return "both F(1,2;4) verdicts match"


def check_pushforward_examples():
    space, idx = parse_index("1^1,3^2,5^2 @ F(1,3;5)")
    _expect(
        projections.pushforward_flag(space, idx, 2) == plain_index((1, 3, 5)),
        "pi_2 of 1^1,3^2,5^2 should be (1,3,5)",
    )
    space, idx = parse_index("2^1,4^2 @ F(1,2;4)")
    _expect(
        projections.pushforward_flag(space, idx, 1) == plain_index((2,)),
        "pi_1 of 2^1,4^2 should be (2)",
    )
    space, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
    image = projections.pushforward_flag(space, idx, 1)
    _expect(
        image.a == () and image.b == (1, 3),
        "pi_1 of 3^2;3^1,1^1,0^2 should be (;1,3), got %s" % image,
    )
    return "all three push-forward examples match"


def check_removal_rule_pairing_sweep():
    """Identify each push-forward by pairing against complementary classes."""
    space = parse_space("F(1,2;5)")
    checked = 0
    for idx in enumerate_indices(space):
        for t in (1, 2):
            image = projections.pushforward_flag(space, idx, t)
            tgt = projections.target_space(space, t)
            image_dim = dimension(tgt, image)
            box = tgt.top_step * (tgt.ambient - tgt.top_step)
            expected_dual = dual(tgt, image)
            for candidate in enumerate_indices(tgt):
                if dimension(tgt, candidate) != box - image_dim:
                    continue
                value = chow.pairing(tgt, image, candidate).value
                want = 1 if candidate == expected_dual else 0
                _expect(
                    value == want,
                    "pairing of pi_%d(%s) against %s gave %d, want %d",
                    t, idx, candidate, value, want,
                )
                checked += 1
    _expect(checked > 0, "no complementary pairing was checked")
    return "%d pairings checked" % checked


def check_zero_product_oracle_sweep():
    """is_zero_product agrees with the raw LR expansion for k <= 3, n <= 7."""
    checked = 0
    for n in range(2, 8):
        for k in range(1, min(3, n - 1) + 1):
            space = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            box = (n - k,) * k
            indices = list(enumerate_indices(space))
            for idx_a in indices:
                lam = lambda_notation(space, idx_a)
                for idx_b in indices:
                    fast = chow.is_zero_product(space, idx_a, idx_b)
                    slow = not chow.lr_expand(lam, lambda_notation(space, idx_b), box)
                    _expect(
                        fast == slow,
                        "zero-product mismatch for %s, %s in %s", idx_a, idx_b, space,
                    )
                    checked += 1
    return "%d pairs checked" % checked


JACOBI_TRUDI_SPACES = ((2, 6), (3, 7), (3, 8), (4, 8), (2, 9))


def _jacobi_trudi(mu):
    """s_mu = det(h_{mu_i - i + j}) as {h-degrees, ascending and nonzero: sign}."""
    out = Counter()
    for perm in permutations(range(len(mu))):
        degrees = [part - i + j for i, (part, j) in enumerate(zip(mu, perm))]
        if min(degrees, default=0) < 0:
            continue
        inversions = sum(x > y for x, y in combinations(perm, 2))
        out[tuple(sorted(d for d in degrees if d))] += (-1) ** inversions
    return out


def check_lr_jacobi_trudi_sweep():
    """LR products == Jacobi-Trudi determinants of Pieri steps, every ordered pair.

    s_mu = det(h_{mu_i - i + j}), and each h_r acts on sigma_lambda by the
    horizontal-strip Pieri rule in the k x (n-k) box, so this route shares
    no code with the tableau engine.
    """
    checked = 0
    for k, n in JACOBI_TRUDI_SPACES:
        space = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
        box = (n - k,) * k
        shapes = [lambda_notation(space, idx) for idx in enumerate_indices(space)]
        steps = {}  # (shape, r) -> the Pieri product sigma_shape . h_r

        def pieri(shape, r):
            if (shape, r) not in steps:
                steps[shape, r] = list(chow._horizontal_strips(shape, r, n - k))
            return steps[shape, r]

        for mu in shapes:
            determinant = _jacobi_trudi(chow._strip(mu))
            for lam in shapes:
                want = Counter()
                for degrees, sign in determinant.items():
                    current = Counter({lam: sign})
                    for r in degrees:
                        after = Counter()
                        for shape, c in current.items():
                            for nu in pieri(shape, r):
                                after[nu] += c
                        current = after
                    want.update(current)
                want = {nu: c for nu, c in want.items() if c}
                got = chow.lr_expand(lam, mu, box)
                _expect(
                    got == want,
                    "LR and Jacobi-Trudi differ for %s x %s in %s: %s vs %s",
                    lam, mu, space, got, want,
                )
                checked += 1
    return "%d ordered pairs checked" % checked


def _spaces(kinds, max_n, max_steps):
    """Every space of ``kinds`` with n <= max_n and <= max_steps steps; OG/OF
    with n = 2 d_k once per component."""
    for n in range(2, max_n + 1):
        for size in range(1, max_steps + 1):
            for steps in combinations(range(1, n + 1), size):
                for kind in kinds:
                    maximal = kind.is_orth and n == 2 * steps[-1]
                    for component in (True, False) if maximal else (None,):
                        try:
                            yield SpaceDescriptor(kind, steps, n, component)
                        except ValidationError:
                            continue  # no such space, e.g. OG with d_k > n/2


# ---------------------------------------------------------------------------
# the paper's closed forms for type-A flag sub-indices, the oracle of the
# projection definition that ``rigidity`` runs


def _flag_essential(index):
    """Positions i with i = d_k, a_i < a_{i+1} - 1 or alpha_i < alpha_{i+1}."""
    a, alpha = index.a, index.alpha
    return {
        i
        for i in range(1, len(a) + 1)
        if i == len(a) or a[i - 1] < a[i] - 1 or alpha[i - 1] < alpha[i]
    }


def _flag_clause_rigid(index, i):
    """Closed-form flag rigidity clauses with sentinels a_0 = 0, a_{d_k+1} = inf.

    A block past d_k is never read: such an entry sits behind an infinite gap."""
    a = index.a
    alpha = index.alpha

    def value(p):
        if p == 0:
            return 0
        if p > len(a):
            return inf
        return a[p - 1]

    def block(p):
        return alpha[p - 1] if p else 0

    gap = value(i + 1) - value(i)
    if gap >= 3:
        return True
    if gap == 2:
        return value(i) - value(i - 1) == 1 or block(i) < block(i + 1)
    # gap == 1
    if value(i + 2) - value(i) >= 3:
        return True
    if block(i + 2) > block(i):
        return True
    return value(i - 1) == value(i) - 1 and block(i - 1) < block(i + 1)


def check_flag_corollary_equivalence_sweep():
    """The closed forms above == the projection definitions that ``rigidity``
    runs, read per level off one analysis per class: the image through the
    removal rule, then the essential and rigid tests in that image, from one
    set of image tables per space."""
    checked = 0
    for space in _spaces((SpaceKind.FLAG_A,), max_n=7, max_steps=3):
        tables = rigidity._SpaceTables(space)
        for idx in enumerate_indices(space):
            analysis = rigidity._ClassAnalysis(space, idx, tables)
            essentials = _flag_essential(idx)
            for q, ref in enumerate(analysis.refs):
                via_projection = analysis.first(analysis.ess, 1, 1 << q) is not None
                _expect(
                    (ref.position in essentials) == via_projection,
                    "essential closed form mismatch for a_%d of %s @ %s",
                    ref.position, idx, space,
                )
            for i in sorted(essentials):
                verdict = _flag_clause_rigid(idx, i)
                levels = analysis.levels(analysis.rig, 1, 1 << (i - 1))  # a_i is ref i - 1
                _expect(
                    verdict == bool(levels),
                    "clause/projection mismatch for a_%d of %s @ %s: %s vs %s",
                    i, idx, space, verdict, levels,
                )
                checked += 1
    return "%d sub-indices checked (plus essentialness per entry)" % checked


def check_grass_equals_one_step_flag_sweep():
    """G(k,n) == F(k;n): every class of G(k,n), n <= 10, gets the verdict of
    its all-ones flag twin under both readings, space and index aside.  G has
    its own path in ``rigidity``, so this no longer holds by construction."""
    checked = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            grass = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            flag = SpaceDescriptor(SpaceKind.FLAG_A, (k,), n)
            for idx in enumerate_indices(grass):
                twin = flagged_index((value, 1) for value in idx.a)
                for literal in (False, True):
                    got = rigidity.classify(grass, idx, literal).to_json()
                    want = rigidity.classify(flag, twin, literal).to_json()
                    for payload in (got, want):
                        del payload["space"], payload["index"]
                    _expect(
                        got == want,
                        "%s @ %s, paper_literal=%s: %s, but F(%d;%d) gives %s",
                        idx, grass, literal, got, k, n, want,
                    )
                    checked += 1
    return "%d verdicts compared" % checked


def check_orthogonal_examples():
    space, idx = parse_index("(3|3,1,0) @ OG(4,11)")
    _expect(
        rigidity.classify(space, idx).class_rigid is True,
        "sigma_{3;3,1,0} should be rigid in OG(4,11)",
    )
    space, idx = parse_index("(3^2|3^1,1^1,0^2) @ OF(2,4;11)")
    sub = rigidity.classify(space, idx).sub("b", 2)
    _expect(sub.ref.value == 1, "b_2 of the OF example should have value 1")
    _expect(sub.rigid is True, "b-value 1 should be rigid for the OF(2,4;11) example")
    kind, (chain, _level) = sub.witness
    _expect(kind == "chain", "expected a chain witness")
    values = tuple((r.side, r.value) for r in chain)
    _expect(
        values == (("a", 3), ("b", 3), ("b", 1)),
        "expected the chain a(3) => b(3) => b(1), got %s" % (values,),
    )
    space, idx = parse_index("(1^1|1^2) @ OF(1,2;5)")
    _expect(
        rigidity.classify(space, idx).class_rigid is True,
        "sigma_{1^1;1^2} should be rigid in OF(1,2;5)",
    )
    space, idx = parse_index("(1|1) @ OG(2,5)")
    _expect(
        rigidity.classify(space, idx).class_rigid is False,
        "sigma_{1;1} should not be rigid in OG(2,5)",
    )
    return "all four orthogonal example verdicts match"


def check_restriction_expansion():
    seq = parse_sequence("F:2 | Q:6^0 @ OG(2,7)")
    cls, _trace = restriction.expand(seq)
    space, s11 = parse_index("(1|1) @ OG(2,7)")
    _, s22 = parse_index("(2|2) @ OG(2,7)")
    _expect(
        cls.coefficient(s11) == 1 and cls.coefficient(s22) == 1 and len(cls.terms) == 2,
        "expansion of F_2 < Q_6^0 should be sigma_{1;1} + sigma_{2;2}, got %s" % cls,
    )
    return "expansion matches"


def check_og_to_grass_example():
    space, idx = parse_index("(1|1) @ OG(2,7)")
    cls, _trace = restriction.og_to_grass(space, idx)
    _expect(
        cls.terms == ((plain_index((1, 5)), 2),),
        "push of sigma_{1;1} should be 2 sigma_{1,5}, got %s" % cls,
    )
    report = multirigid.og_pushforward_leading(space, idx)
    _expect(
        report.coefficient == 2 and report.admissible,
        "leading coefficient should be 2 and admissible",
    )
    verdict = multirigid.multirigid_class_og(space, idx)
    _expect(verdict.class_rigid is True, "sigma_{1;1} should be multi-rigid in OG(2,7)")
    return "push-forward, leading term and multi-rigidity all match"


def check_multirigid_implies_rigid_sweep():
    """Multi-rigid => rigid for every essential GrassA sub-index, n <= 10, k <= 4."""
    checked = 0
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            space = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            for idx in enumerate_indices(space):
                verdict = rigidity.classify(space, idx)
                for i, multi_rigid in multirigid.multirigid_grass(space, idx):
                    if multi_rigid:
                        _expect(
                            verdict.sub("a", i).rigid,
                            "multi-rigid but not rigid: a_%d of %s @ %s", i, idx, space,
                        )
                    checked += 1
    return "%d sub-indices checked, zero violations" % checked


def check_fiber_consistency_sweep():
    """Boundary reductions and dimension additivity for the fiber classes."""
    checked = 0
    for text in ("F(1,2;4)", "F(1,2,3;5)"):
        space = parse_space(text)
        k = space.blocks
        for idx in enumerate_indices(space):
            top = projections.fiber_class_top(space, idx)
            _expect(
                projections.fiber_class_mid(space, idx, k) == top,
                "fiber_class_mid(.,k) != fiber_class_top for %s @ %s", idx, space,
            )
            _expect(
                projections.fiber_class_mid(space, idx, 1)
                == projections.fiber_class_bottom(space, idx),
                "fiber_class_mid(.,1) != fiber_class_bottom for %s @ %s", idx, space,
            )
            for t in range(1, k + 1):
                image = projections.pushforward_flag(space, idx, t)
                tgt = projections.target_space(space, t)
                fiber = projections.fiber_class_mid(space, idx, t)
                _expect(
                    dimension(space, idx)
                    == dimension(tgt, image) + dimension(space, fiber),
                    "dimension additivity fails for %s @ %s at t=%d", idx, space, t,
                )
                checked += 1
    return "%d (index, level) pairs checked" % checked


def check_symplectic_family():
    """The (1..i; i..k-1) family is rigid in SG(k, 2k+2) for k <= 4."""
    checked = 0
    for k in range(1, 5):
        n = 2 * k + 2
        space = SpaceDescriptor(SpaceKind.GRASS_SYMP, (k,), n)
        for i in range(1, k + 1):
            idx = pair_index(tuple(range(1, i + 1)), tuple(range(i, k)))
            verdict = rigidity.classify(space, idx)
            _expect(
                verdict.class_rigid is True,
                "family class (1..%d; %d..%d) should be rigid in SG(%d,%d)"
                % (i, i, k - 1, k, n),
            )
            checked += 1
    return "%d family members rigid" % checked


def check_remark_counterexample_gate():
    """The F(1,3;4) Remark index: not totally ordered under max, ordered under min."""
    space, idx = parse_index("1^2,3^1,4^2 @ F(1,3;4)")
    verdict = rigidity.classify(space, idx, paper_literal=False)
    literal = rigidity.classify(space, idx, paper_literal=True).relation
    _expect(
        verdict.relation.totally_ordered is False,
        "max-threshold relation should leave the Remark index unordered",
    )
    _expect(
        verdict.class_rigid is False,
        "the Remark index should not be class-rigid",
    )
    _expect(
        literal.totally_ordered is True,
        "paper-literal (min) relation should order the Remark index — the "
        "discrepancy this gate exists to document",
    )
    return "max: unordered / not rigid; min: ordered (discrepancy reproduced)"


# ---------------------------------------------------------------------------
# extra invariant sweeps for selftest full


def check_leading_term_law():
    """og_to_grass leading coefficient equals 2^(k-s) where the hypothesis holds."""
    checked = 0
    for k, n in ((2, 7), (2, 9), (3, 9), (3, 11)):
        space = SpaceDescriptor(SpaceKind.GRASS_ORTH, (k,), n)
        for idx in enumerate_indices(space):
            if not idx.a:
                continue
            essential = rigidity.classify(space, idx).essential_refs()
            if not any(ref.side == "a" for ref in essential):
                continue
            report = multirigid.og_pushforward_leading(space, idx)
            if not report.admissible:
                continue
            try:
                cls, _ = restriction.og_to_grass(space, idx)
            except UnsupportedDegenerationError:
                continue
            prefix = report.prefix
            matching = [
                (term, c) for term, c in cls.terms if term.a[: len(prefix)] == prefix
            ]
            _expect(matching, "no term with prefix %s in %s", prefix, cls)
            term, coeff = max(matching, key=lambda item: item[0].a)
            _expect(
                coeff == report.coefficient,
                "leading coefficient of %s @ %s is %d, want %d",
                idx, space, coeff, report.coefficient,
            )
            checked += 1
    return "%d leading terms checked" % checked


def check_expand_dimension_conservation():
    """All type-A terms of a push-forward expansion share one dimension."""
    checked = 0
    for n in (7, 9):
        space = SpaceDescriptor(SpaceKind.GRASS_ORTH, (2,), n)
        for idx in enumerate_indices(space):
            try:
                cls, _ = restriction.og_to_grass(space, idx)
            except UnsupportedDegenerationError:
                continue
            dims = {dimension(cls.space, term) for term, _ in cls.terms}
            _expect(
                len(dims) == 1,
                "mixed dimensions %s in push of %s @ %s", dims, idx, space,
            )
            checked += 1
    return "%d expansions checked" % checked


def check_og_fundamental_chern_class():
    """Push of the fundamental class (|0,...,k-1) of OG(k,n) is [OG(k,n)] in
    G(k,n) = c_top(Sym^2 S^dual) = 2^k sigma_(k,k-1,...,1) (Fulton, Intersection
    Theory, ch. 14): an oracle independent of the degeneration machine."""
    checked = 0
    for n in range(3, 22):
        for k in range(1, n // 2 + 1):
            if n == 2 * k:
                continue
            space = SpaceDescriptor(SpaceKind.GRASS_ORTH, (k,), n)
            cls, _ = restriction.og_to_grass(space, pair_index((), tuple(range(k))))
            target = SpaceDescriptor(SpaceKind.GRASS_A, (k,), n)
            want = ChowClass.single(target, index_from_lambda(target, range(k, 0, -1)), 2**k)
            _expect(cls == want, "push of [OG(%d,%d)] is %s, want %s", k, n, cls, want)
            checked += 1
    return "%d fundamental classes checked" % checked


def check_class_rigid_implies_subs_og():
    """Class-rigid OG classes have every essential sub-index rigid (k<=3, n<=9)."""
    checked = 0
    for n in range(3, 10):
        for k in range(1, min(3, n // 2) + 1):
            space = SpaceDescriptor(SpaceKind.GRASS_ORTH, (k,), n)
            for idx in enumerate_indices(space):
                verdict = rigidity.classify(space, idx)
                if verdict.class_rigid:
                    _expect(
                        all(v.rigid for v in verdict.subs if v.essential),
                        "class rigid but an essential sub-index is not: %s @ %s",
                        idx, space,
                    )
                checked += 1
    return "%d classes checked" % checked


def check_class_count_sweep():
    """class_count == the enumerated count, every kind, <= 3 steps, n <= 12.

    Type-A flags stop at n = 8: F(d;12) alone holds 15.7 million classes.
    """
    others = [kind for kind in SpaceKind if kind is not SpaceKind.FLAG_A]
    spaces = [*_spaces(others, 12, 3), *_spaces((SpaceKind.FLAG_A,), 8, 3)]
    for space in spaces:
        got = sum(1 for _ in enumerate_indices(space))
        want = class_count(space)
        _expect(got == want, "%s enumerates %d classes, class_count says %d", space, got, want)
    return "%d spaces checked" % len(spaces)


QUICK_CHECKS = (
    ("flag rigidity examples", check_flag_rigidity_examples),
    ("push-forward examples", check_pushforward_examples),
    ("orthogonal examples", check_orthogonal_examples),
    ("restriction expansion", check_restriction_expansion),
    ("OG to G push-forward", check_og_to_grass_example),
    ("symplectic family", check_symplectic_family),
    ("remark counterexample gate", check_remark_counterexample_gate),
)

FULL_CHECKS = QUICK_CHECKS + (
    ("removal rule pairing sweep", check_removal_rule_pairing_sweep),
    ("zero product oracle sweep", check_zero_product_oracle_sweep),
    ("LR Jacobi-Trudi oracle sweep", check_lr_jacobi_trudi_sweep),
    ("flag corollary equivalence sweep", check_flag_corollary_equivalence_sweep),
    ("G(k,n) equals F(k;n) sweep", check_grass_equals_one_step_flag_sweep),
    ("multi-rigid implies rigid sweep", check_multirigid_implies_rigid_sweep),
    ("fiber consistency sweep", check_fiber_consistency_sweep),
    ("leading term law", check_leading_term_law),
    ("expansion dimension conservation", check_expand_dimension_conservation),
    ("OG fundamental class Chern oracle", check_og_fundamental_chern_class),
    ("OG class verdict implies sub-index verdicts", check_class_rigid_implies_subs_og),
    ("class count sweep", check_class_count_sweep),
)


def check_results(scope="quick"):
    """(name, passed, summary or failure detail, seconds taken) of each check of
    ``scope``, in order."""
    for name, func in QUICK_CHECKS if scope == "quick" else FULL_CHECKS:
        start = time.perf_counter()
        try:
            passed, summary = True, func()
        except CheckFailure as exc:
            passed, summary = False, str(exc)
        yield name, passed, summary, time.perf_counter() - start
