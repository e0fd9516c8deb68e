"""Multi-rigidity criteria and the gamma invariants of non-irreducible classes.

gamma_i(X) is the smallest dimension of a subspace meeting every k-plane of X
in dimension >= i.  The criteria below are sufficient conditions; where the
hypotheses fail the functions answer "undetermined" (None) instead of
guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf

from .errors import (
    NonEssentialSubIndexError,
    UnsupportedKindError,
    ValidationError,
)
from .indices import SpaceDescriptor, SpaceKind, check_valid
from .rigidity import RigidityVerdict, _orth_essential, _subs, essential_grass, make_refs


@dataclass(frozen=True)
class IndexFamily:
    """Support of a nonnegative combination of G(k,n) Schubert classes.

    Coefficients are retained for reporting but ignored by the gamma
    criteria, which depend only on the support.  Classes of honest varieties
    are equidimensional; the criteria themselves never use the dimension, so
    mixed supports are accepted.
    """

    space: SpaceDescriptor
    members: tuple  # ((index, coeff), ...)

    def __post_init__(self):
        if self.space.kind is not SpaceKind.GRASS_A:
            raise UnsupportedKindError("index families live in G(k,n)")
        if not self.members:
            raise ValidationError(["an index family needs at least one member"])
        for index, coeff in self.members:
            check_valid(self.space, index)
            if coeff <= 0:
                raise ValidationError(["family coefficients must be positive"])

    def supports(self):
        return tuple(index for index, _ in self.members)


def multirigid_grass(space, index):
    """(i, multi-rigid?) for each essential position i of a G(k,n) index,
    ascending; the index is validated once."""
    essential = sorted(essential_grass(space, index))
    return tuple((i, _multirigid_grass(space, index, i)) for i in essential)


def multirigid_subindex_grass(space, index, i):
    """a_{i-1}+1 = a_i <= a_{i+1}-3, or a_i = n; ``i`` must be essential."""
    if i not in essential_grass(space, index):
        raise NonEssentialSubIndexError("a%d" % i)
    return _multirigid_grass(space, index, i)


def _multirigid_grass(space, index, i):
    """Unchecked core of ``multirigid_subindex_grass`` for an essential position."""
    a = index.a
    k = len(a)
    n = space.ambient
    a_prev = a[i - 2] if i >= 2 else 0
    a_next = a[i] if i < k else inf
    if a[i - 1] == n:
        return True
    return a_prev + 1 == a[i - 1] and a[i - 1] <= a_next - 3


def gamma_top(family):
    """gamma_k = max a_k when max a_{k-1} + 1 = max a_k; None otherwise."""
    supports = family.supports()
    k = family.space.top_step
    if k < 2:
        return None
    max_k = max(idx.a[k - 1] for idx in supports)
    max_prev = max(idx.a[k - 2] for idx in supports)
    if max_prev + 1 == max_k:
        return max_k
    return None


@dataclass(frozen=True)
class GammaBottom:
    d: int
    determined: bool


def gamma_bottom(family):
    """Largest common forced subspace dimension d, with a determinacy flag.

    d_a = max{i : a_i = i} per member (0 when a_1 >= 2); d = min d_a.
    Determined when d >= 1 and some member has a_d = d and a_{d+1} >= d + 3.
    """
    supports = family.supports()
    k = family.space.top_step

    def d_a(idx):
        best = 0
        for i, a in enumerate(idx.a, start=1):
            if a == i:
                best = i
        return best

    d = min(d_a(idx) for idx in supports)
    if d < 1:
        return GammaBottom(d=0, determined=False)
    witness = any(
        idx.a[d - 1] == d and (idx.a[d] if d < k else inf) >= d + 3 for idx in supports
    )
    return GammaBottom(d=d, determined=witness)


def gamma_mid(family, i):
    """Greedy-max filtration criterion: returns m_i or None when undetermined."""
    supports = family.supports()
    k = family.space.top_step
    if not 1 <= i <= k:
        raise ValidationError(["gamma index %s outside 1..%d" % (i, k)])
    m = [max(idx.a[p] for idx in supports) for p in range(k)]
    pool = list(supports)
    for p in range(i):
        best = max(idx.a[p] for idx in pool)
        pool = [idx for idx in pool if idx.a[p] == best]
    if max(idx.a[i - 1] for idx in pool) != m[i - 1]:
        return None
    m_i = m[i - 1]
    for idx in pool:
        a_prev = idx.a[i - 2] if i >= 2 else 0
        a_next = idx.a[i] if i < k else inf
        if a_prev + 1 == m_i <= a_next - 3:
            return m_i
    return None


# ---------------------------------------------------------------------------
# orthogonal Grassmannians under the inclusion into G(k,n)


@dataclass(frozen=True)
class LeadingTermReport:
    coefficient: int
    prefix: tuple
    admissible: bool
    violations: tuple = ()

    def to_json(self):
        return {
            "coefficient": self.coefficient,
            "prefix": list(self.prefix),
            "admissible": self.admissible,
            "violations": list(self.violations),
        }


def _sentinel_next_a(space, index):
    """a_{s+1} := n - b_{k-s} - (s - x_j) - 1 with j = k - s; inf when b is empty."""
    if not index.b:
        return inf
    n = space.ambient
    s = index.s
    b_last = index.b[-1]
    x_last = sum(1 for a in index.a if a <= b_last)
    return n - b_last - (s - x_last) - 1


def _x_hypothesis_violations(space, index, limit):
    """The co-condition hypothesis for every j with b_j < ``limit``."""
    n = space.ambient
    k = space.top_step
    s = index.s
    sentinel = _sentinel_next_a(space, index)
    bad = []
    for j, b_j in enumerate(index.b, start=1):
        if not b_j < limit:
            continue
        x_j = sum(1 for a in index.a if a <= b_j)
        a_next = index.a[x_j] if x_j < s else sentinel
        if x_j < k - j + 1 - floor((n - b_j - (a_next - 1)) / 2):
            bad.append(j)
    return tuple(bad)


def og_pushforward_leading(space, index, i=None):
    """Leading term data of the push-forward of an OG class into G(k,n).

    Returns coefficient 2^(k-s), the pinned prefix (a_1, ..., a_i) and
    whether the co-condition hypothesis holds for every b_j below a_i.
    ``i`` defaults to the largest essential a-position.
    """
    check_valid(space, index)
    if space.kind is not SpaceKind.GRASS_ORTH:
        raise UnsupportedKindError("og_pushforward_leading needs an OG(k,n) pair")
    k = space.top_step
    s = index.s
    keys = _orth_essential(space.ambient, index)
    if i is None:
        i = max((p for (side, p) in keys if side == "a"), default=0)
    if i:
        if ("a", i) not in keys:
            raise NonEssentialSubIndexError("a%d" % i)
        violations = _x_hypothesis_violations(space, index, index.a[i - 1])
    else:
        violations = ()
    return LeadingTermReport(
        coefficient=2 ** (k - s),
        prefix=index.a[:i],
        admissible=not violations,
        violations=violations,
    )


def _multirigid_og(space, index, keys, key):
    """Multi-rigidity test for the essential OG sub-index ``key`` of a valid
    index whose essential keys are ``keys``.

    a-side: the co-condition hypothesis for every b_j < a_{i+1} plus one of
    the two gap clauses (the i = s clause reads the next-value sentinel).
    b-side: true exactly when the value recurs as a multi-rigid a-entry.
    """
    side, i = key
    if side == "b":
        value = index.b[i - 1]
        if value not in index.a:
            return False
        a_key = ("a", index.a.index(value) + 1)
        return a_key in keys and _multirigid_og(space, index, keys, a_key)
    a_next = index.a[i] if i < index.s else _sentinel_next_a(space, index)
    if _x_hypothesis_violations(space, index, a_next):
        return False
    a_prev = index.a[i - 2] if i >= 2 else 0
    if index.a[i - 1] != a_prev + 1:
        return False
    return index.a[i - 1] <= a_next - 3


def multirigid_class_og(space, index):
    """Class-level criterion: every essential a passes, every essential b recurs in a."""
    check_valid(space, index)
    if space.kind is not SpaceKind.GRASS_ORTH:
        raise UnsupportedKindError("multirigid_class_og needs an OG(k,n) pair")
    keys = _orth_essential(space.ambient, index)
    refs = make_refs(index)
    essential = sum(1 << q for q, ref in enumerate(refs) if ref.key() in keys)
    subs = _subs(refs, essential, lambda q: (_multirigid_og(space, index, keys, refs[q].key()), ()))
    # an essential b whose value is not an a-value already fails its own test
    return RigidityVerdict(
        space=space,
        index=index,
        subs=subs,
        class_rigid=all(v.rigid for v in subs if v.essential),
    )
