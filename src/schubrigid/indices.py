"""Schubert index bookkeeping for classical Grassmannians and partial flag varieties.

Six space kinds are supported: type-A Grassmannians G(k,n) and flag varieties
F(d_1,...,d_k;n), orthogonal Grassmannians OG(k,n) and flags OF(d_1,...,d_k;n),
and their symplectic analogues SG/SF.  Indices come in four shapes:

* plain        a_1 < ... < a_k                      (G)
* flagged      a_i with block labels alpha_i        (F)
* pair         (a_1..a_s | b_1..b_{k-s})            (OG, SG)
* flagged pair (a_i^alpha_i | b_j^beta_j)           (OF, SF)

b-sequences are always stored ascending.  Everything here is immutable and
pure; callers may share objects freely across threads.

``validate`` checks an index once, where it enters: at the public entry
points, such as ``parser.parse_index`` and ``rigidity.classify``.  Code
behind them trusts its input.  ``enumerate_indices`` yields valid indices by
construction, so what reads its output validates nothing
(``rigidity.classify_space``), and ``class_count`` is their exact number.
All three read the n = 2 d_k parity rule from ``_component_parity``.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .errors import (
    CoefficientOverflowError,
    EnumerationCapError,
    UnsupportedKindError,
    ValidationError,
)

DEFAULT_ENUM_CAP = 10 ** 6
ENUM_CAP_ENV = "SCHUBERT_ENUM_CAP"


class SpaceKind(Enum):
    GRASS_A = "G"
    FLAG_A = "F"
    GRASS_ORTH = "OG"
    FLAG_ORTH = "OF"
    GRASS_SYMP = "SG"
    FLAG_SYMP = "SF"

    @property
    def is_flag(self):
        return self in (SpaceKind.FLAG_A, SpaceKind.FLAG_ORTH, SpaceKind.FLAG_SYMP)

    @property
    def is_orth(self):
        return self in (SpaceKind.GRASS_ORTH, SpaceKind.FLAG_ORTH)

    @property
    def is_symp(self):
        return self in (SpaceKind.GRASS_SYMP, SpaceKind.FLAG_SYMP)

    @property
    def is_type_a(self):
        return self in (SpaceKind.GRASS_A, SpaceKind.FLAG_A)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which variety indices live on: kind, step dimensions and ambient dimension."""

    kind: SpaceKind
    steps: tuple
    ambient: int
    component_choice: bool | None = None

    def __post_init__(self):
        problems = []
        if not self.steps:
            problems.append("space needs at least one step dimension")
        if any(d <= 0 for d in self.steps):
            problems.append("step dimensions must be positive")
        if any(x >= y for x, y in zip(self.steps, self.steps[1:])):
            problems.append("step dimensions must be strictly increasing")
        if self.ambient <= 0:
            problems.append("ambient dimension must be positive")
        if not self.kind.is_flag and len(self.steps) != 1:
            problems.append("%s takes a single step dimension" % self.kind.value)
        if problems:
            raise ValidationError(problems)
        d_k = self.steps[-1]
        if self.kind.is_type_a:
            if d_k > self.ambient:
                raise ValidationError(["d_k must not exceed the ambient dimension"])
        else:
            if d_k > self.ambient // 2:
                raise ValidationError(
                    ["isotropic step dimensions must not exceed floor(n/2)"]
                )
            if self.kind.is_symp and self.ambient % 2 != 0:
                raise ValidationError(["symplectic spaces need an even ambient dimension"])
        if self.component_choice is not None and not (
            self.kind.is_orth and self.ambient == 2 * d_k
        ):
            raise ValidationError(
                ["component_choice is only meaningful for OG/OF with n = 2 d_k"]
            )

    @property
    def blocks(self):
        """Number of flag steps (1 for plain Grassmannians)."""
        return len(self.steps)

    @property
    def top_step(self):
        return self.steps[-1]

    @property
    def half(self):
        return self.ambient // 2

    def block_sizes(self):
        prev = 0
        sizes = []
        for d in self.steps:
            sizes.append(d - prev)
            prev = d
        return tuple(sizes)

    def render(self):
        if self.kind.is_flag:
            return "%s(%s;%d)" % (
                self.kind.value,
                ",".join(str(d) for d in self.steps),
                self.ambient,
            )
        return "%s(%d,%d)" % (self.kind.value, self.steps[0], self.ambient)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class SchubertIndex:
    """Tagged union of the four index shapes.

    ``alpha is None`` for unflagged shapes, ``b is None`` for type-A shapes.
    An empty-but-present ``b`` tuple (s = k) is distinct from ``b is None``.
    """

    a: tuple
    alpha: tuple | None = None
    b: tuple | None = None
    beta: tuple | None = None

    @property
    def flagged(self):
        return self.alpha is not None

    @property
    def paired(self):
        return self.b is not None

    @property
    def s(self):
        """Length of the isotropic (a) part."""
        return len(self.a)

    def a_entries(self):
        """(value, block) pairs for the a part; block is None when unflagged."""
        if self.alpha is None:
            return tuple((v, None) for v in self.a)
        return tuple(zip(self.a, self.alpha))

    def b_entries(self):
        if self.b is None:
            return ()
        if self.beta is None:
            return tuple((v, None) for v in self.b)
        return tuple(zip(self.b, self.beta))

    def render(self):
        def seq(values, blocks):
            if blocks is None:
                return ",".join(str(v) for v in values)
            return ",".join("%d^%d" % (v, t) for v, t in zip(values, blocks))

        if not self.paired:
            return seq(self.a, self.alpha)
        return "(%s|%s)" % (seq(self.a, self.alpha), seq(self.b, self.beta))

    def __str__(self):
        return self.render()

    def to_json(self):
        out = {"a": list(self.a)}
        if self.alpha is not None:
            out["alpha"] = list(self.alpha)
        if self.b is not None:
            out["b"] = list(self.b)
        if self.beta is not None:
            out["beta"] = list(self.beta)
        return out


def plain_index(a):
    return SchubertIndex(a=tuple(a))


def flagged_index(entries):
    """Build a FlaggedA index from (value, block) pairs."""
    entries = tuple(entries)
    return SchubertIndex(
        a=tuple(v for v, _ in entries), alpha=tuple(t for _, t in entries)
    )


def pair_index(a, b):
    return SchubertIndex(a=tuple(a), b=tuple(b))


def flagged_pair_index(a_entries, b_entries):
    a_entries = tuple(a_entries)
    b_entries = tuple(b_entries)
    return SchubertIndex(
        a=tuple(v for v, _ in a_entries),
        alpha=tuple(t for _, t in a_entries),
        b=tuple(v for v, _ in b_entries),
        beta=tuple(t for _, t in b_entries),
    )


def canonical_key(index):
    """Deterministic sort key: a-heavy indices first, then lexicographic."""
    return (
        len(index.b) if index.b is not None else 0,
        index.a,
        index.b or (),
        index.alpha or (),
        index.beta or (),
    )


def render_literal(space, index):
    return "%s @ %s" % (index.render(), space.render())


def index_to_json(space, index, valid=None, errors=None):
    out = {"space": space.render()}
    out.update(index.to_json())
    if valid is not None:
        out["valid"] = valid
    if errors is not None:
        out["errors"] = list(errors)
    return out


# ---------------------------------------------------------------------------
# validation


def _component_parity(space):
    """s mod 2 on OG/OF with n = 2 d_k: d_k mod 2, flipped by component_choice=False."""
    if not (space.kind.is_orth and space.ambient == 2 * space.top_step):
        return None
    return (space.top_step + (space.component_choice is False)) % 2


def _strictly_increasing(seq):
    return all(x < y for x, y in zip(seq, seq[1:]))


def validate(space, index):
    """Report every violated invariant; an empty report means the index is valid."""
    problems = []
    if (index.flagged, index.paired) != (space.kind.is_flag, not space.kind.is_type_a):
        problems.append(
            "index shape does not match space kind %s" % space.kind.value
        )
        return problems

    n = space.ambient
    d_k = space.top_step

    if not _strictly_increasing(index.a):
        problems.append("a must be strictly increasing")
    if index.a and index.a[0] < 1:
        problems.append("a entries must be positive")

    if space.kind.is_type_a:  # G(k,n) reads as F(k;n), with no labels to check
        if len(index.a) != d_k:
            problems.append("a must have length %s=%d" % ("d_k" if index.flagged else "k", d_k))
        if index.a and index.a[-1] > n:
            problems.append("a entries must not exceed n=%d" % n)
        if index.flagged:
            problems.extend(_check_blocks([index.alpha], space))
        return problems

    # paired kinds
    half = space.half
    if index.a and index.a[-1] > half:
        problems.append("a entries must not exceed floor(n/2)=%d" % half)
    if index.b:
        if not _strictly_increasing(index.b):
            problems.append("b must be strictly increasing")
        if index.b[0] < 0:
            problems.append("b entries must be nonnegative")
        if index.b[-1] > half - 1:
            problems.append("b entries must not exceed floor(n/2)-1=%d" % (half - 1))
    total = len(index.a) + len(index.b)
    if total != d_k:
        problems.append("a and b together must have length %d" % d_k)
    for a_i in index.a:
        for b_j in index.b:
            if a_i == b_j + 1:
                problems.append("a_i = b_j + 1 for a_i=%d, b_j=%d" % (a_i, b_j))
    parity = _component_parity(space)
    if parity is not None and len(index.a) % 2 != parity:
        problems.append(
            "s = %d violates the parity rule s = d_k (mod 2) for n = 2 d_k"
            % len(index.a)
        )
    if index.flagged:
        problems.extend(_check_blocks([index.alpha, index.beta], space))
    return problems


def _check_blocks(label_seqs, space):
    problems = []
    k = space.blocks
    counts = Counter()
    for labels in label_seqs:
        for t in labels or ():
            if not 1 <= t <= k:
                problems.append("block label %d outside 1..%d" % (t, k))
                return problems
            counts[t] += 1
    for t, size in enumerate(space.block_sizes(), start=1):
        if counts.get(t, 0) != size:
            problems.append(
                "block %d holds %d entries, expected d_%d - d_%d = %d"
                % (t, counts.get(t, 0), t, t - 1, size)
            )
    return problems


def check_valid(space, index):
    problems = validate(space, index)
    if problems:
        raise ValidationError(problems)
    return index


# ---------------------------------------------------------------------------
# dimension / duality / lambda notation (type A only)


def dimension(space, index):
    """Dimension of the Schubert variety; type-A kinds only.  G(k,n) reads as
    F(k;n), a single step whose labels are never looked at."""
    if space.kind.is_type_a:
        return _dim_flagged(space.steps, index.a_entries())
    raise UnsupportedKindError(
        "no dimension formula implemented for %s indices" % space.kind.value
    )


def _dim_flagged(steps, entries):
    # dim = dim of the top projection image + dim of the generic fiber,
    # the fiber being the full sub-flag pattern (1,...,d_k) restricted to
    # the first k-1 blocks inside a d_k-dimensional ambient space.
    top = sum(a - i for i, (a, _) in enumerate(entries, start=1))
    if len(steps) == 1:
        return top
    sub = tuple((i, t) for i, (_, t) in enumerate(entries, start=1) if t <= len(steps) - 1)
    return top + _dim_flagged(steps[:-1], sub)


def dual(space, index):
    """Poincare dual index; an involution on type-A indices.  The values
    a -> n + 1 - a and the labels (none on G(k,n)) reverse together."""
    if space.kind.is_type_a:
        alpha = index.alpha
        return SchubertIndex(
            a=tuple(space.ambient + 1 - a for a in reversed(index.a)),
            alpha=None if alpha is None else alpha[::-1],
        )
    raise UnsupportedKindError(
        "duality is only defined for type-A indices, not %s" % space.kind.value
    )


def lambda_notation(space, index):
    """Translate a G(k,n) index into the usual nonincreasing partition."""
    if space.kind is not SpaceKind.GRASS_A:
        raise UnsupportedKindError("lambda notation is defined for G(k,n) indices only")
    n, k = space.ambient, space.top_step
    return tuple(n - k + i - a for i, a in enumerate(index.a, start=1))


def index_from_lambda(space, lam):
    n, k = space.ambient, space.top_step
    return plain_index(tuple(n - k + i - l for i, l in enumerate(lam, start=1)))


# ---------------------------------------------------------------------------
# rank tables


@dataclass(frozen=True)
class RankTable:
    """mu / nu rank matrices plus the derived counters y, z, h and x.

    ``mu[i-1][t-1]`` counts a-entries with value <= a_i landing in blocks <= t.
    ``nu[j-1][t-1]`` is the co-condition rank for b_j at level t (flagged
    pairs only).  x_j counts a-entries with value <= b_j.
    """

    space: SpaceDescriptor
    index: SchubertIndex
    mu: tuple
    nu: tuple | None
    x: tuple | None

    def y(self, j, m):
        b_j = self.index.b[j - 1]
        return sum(
            1 for a_p, al in zip(self.index.a, self.index.alpha) if a_p > b_j and al <= m
        )

    def z(self, j, m):
        b_j = self.index.b[j - 1]
        return sum(
            1 for b_q, be in zip(self.index.b, self.index.beta) if b_q >= b_j and be <= m
        )

    def h(self, i, m):
        a_i = self.index.a[i - 1]
        return sum(
            1 for b_r, be in zip(self.index.b, self.index.beta) if b_r >= a_i and be <= m
        )


def rank_table(space, index):
    if not index.flagged:
        raise UnsupportedKindError("rank tables are defined for flagged indices")
    k = space.blocks
    a_entries = tuple(zip(index.a, index.alpha))
    mu = tuple(
        tuple(
            sum(1 for a_c, al in a_entries if a_c <= a_i and al <= t)
            for t in range(1, k + 1)
        )
        for a_i, _ in a_entries
    )
    nu = None
    x = None
    if index.paired:
        b_entries = tuple(zip(index.b, index.beta))
        nu = tuple(
            tuple(
                sum(1 for _, al in a_entries if al <= t)
                + sum(1 for b_e, be in b_entries if b_e >= b_j and be <= t)
                for t in range(1, k + 1)
            )
            for b_j, _ in b_entries
        )
        x = tuple(sum(1 for a_i in index.a if a_i <= b_j) for b_j in index.b)
    return RankTable(space=space, index=index, mu=mu, nu=nu, x=x)


# ---------------------------------------------------------------------------
# enumeration


def class_count(space):
    """The exact number of Schubert classes, |W|/|W_P| (Bjorner-Brenti, ch. 2).

    C(n, d_k) value sets for type A; for the paired kinds a d_k-subset of
    1..floor(n/2), each value taken as a_i or as b_j + 1, halved by the parity
    rule when n = 2 d_k.  Flags multiply by the multinomial of block labels.
    """
    d_k = space.top_step
    labels = math.factorial(d_k)
    for size in space.block_sizes():
        labels //= math.factorial(size)
    if space.kind.is_type_a:
        return math.comb(space.ambient, d_k) * labels
    count = 2 ** d_k * math.comb(space.half, d_k) * labels
    return count // 2 if _component_parity(space) is not None else count


def enumeration_cap():
    """The work cap: env SCHUBERT_ENUM_CAP if set and nonempty, else 10^6.

    Anything but a nonnegative integer there is a ValidationError.
    """
    raw = os.environ.get(ENUM_CAP_ENV)
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise ValidationError(
            ["%s must be a nonnegative integer, got %r" % (ENUM_CAP_ENV, raw)]
        )
    return cap


def enumerate_indices(space, cap=None):
    """Yield every valid index of ``space`` once, in canonical order.

    The order is s descending, then a, then b, then the block labels, each
    lexicographic.  Indices are valid by construction; none is validated.
    The guard compares the exact ``class_count`` with the cap (env
    SCHUBERT_ENUM_CAP or 10^6) before anything is yielded.
    """
    if cap is None:
        cap = enumeration_cap()
    count = class_count(space)
    if count > cap:
        try:
            shown = "%d" % count
        except ValueError:  # past the interpreter's int-string limit
            shown = "of %d digits" % _decimal_digits(count)
        raise EnumerationCapError(
            "class count %s exceeds cap %d for %s" % (shown, cap, space.render())
        )
    return _enumerate(space)


def _decimal_digits(value):
    """Decimal digits of ``value`` >= 1, also past the int-string limit."""
    digits = 0
    while value >= 10**1000:
        value //= 10**1000
        digits += 1000
    return digits + len(str(value))


def _enumerate(space):
    if not space.kind.is_flag:
        for a, b in _value_tuples(space):
            yield SchubertIndex(a=a, b=b)
        return
    arrangements = tuple(_label_sequences(space.block_sizes()))
    for a, b in _value_tuples(space):
        s = len(a)
        for labels in arrangements:
            yield SchubertIndex(
                a=a, alpha=labels[:s], b=b, beta=None if b is None else labels[s:]
            )


def _value_tuples(space):
    """(a, b) of every class, labels aside: b is None for type A, and valid b
    values are those v with v + 1 not in a."""
    d_k = space.top_step
    if space.kind.is_type_a:
        for a in combinations(range(1, space.ambient + 1), d_k):
            yield a, None
        return
    half = space.half
    parity = _component_parity(space)
    for s in range(d_k, -1, -1):
        if parity is not None and s % 2 != parity:
            continue
        for a in combinations(range(1, half + 1), s):
            b_values = [v for v in range(half) if v + 1 not in a]
            for b in combinations(b_values, d_k - s):
                yield a, b


def _label_sequences(sizes):
    """Every sequence holding ``sizes[t-1]`` copies of t, in lexicographic order
    (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L)."""
    labels = [t for t, size in enumerate(sizes, start=1) for _ in range(size)]
    while True:
        yield tuple(labels)
        j = len(labels) - 2
        while j >= 0 and labels[j] >= labels[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(labels) - 1
        while labels[j] >= labels[m]:
            m -= 1
        labels[j], labels[m] = labels[m], labels[j]
        labels[j + 1 :] = reversed(labels[j + 1 :])


# ---------------------------------------------------------------------------
# formal nonnegative combinations


@dataclass(frozen=True)
class ChowClass:
    """Formal nonnegative-integer combination of Schubert indices over one space."""

    space: SpaceDescriptor
    terms: tuple = field(default_factory=tuple)  # ((index, coeff), ...) sorted

    MAX_COEFF = 2 ** 63 - 1

    @staticmethod
    def from_counter(space, counter):
        items = []
        for index, coeff in counter.items():
            if coeff == 0:
                continue
            if coeff < 0:
                raise ValidationError(["coefficients must be nonnegative"])
            if coeff > ChowClass.MAX_COEFF:
                raise CoefficientOverflowError("coefficient exceeds 64-bit bound")
            items.append((index, coeff))
        items.sort(key=lambda item: canonical_key(item[0]))
        return ChowClass(space=space, terms=tuple(items))

    @staticmethod
    def single(space, index, coeff=1):
        return ChowClass.from_counter(space, {index: coeff})

    @staticmethod
    def zero(space):
        return ChowClass(space=space, terms=())

    def coefficient(self, index):
        for idx, coeff in self.terms:
            if idx == index:
                return coeff
        return 0

    def render(self):
        if not self.terms:
            return "0"
        return " + ".join("%d·%s" % (c, idx.render()) for idx, c in self.terms)

    def __str__(self):
        return self.render()

    def to_json(self):
        return {
            "space": self.space.render(),
            "terms": [
                {"index": idx.to_json(), "coefficient": c} for idx, c in self.terms
            ],
        }
