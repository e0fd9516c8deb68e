"""Essential / rigid sub-index classification and class-level rigidity verdicts.

The criteria used here:

* Grassmannian sub-indices: the four-clause rigidity test, with sentinels
  a_0 = 0 and a_{k+1} = infinity.
* Type-A flags: a closed-form clause list per sub-index, cross-checked (see
  the test suite) against the projection definition "rigid in some
  push-forward at a level >= the entry's block".
* Class-level flag rigidity: all essential sub-indices rigid and the
  essential set totally ordered under the compatibility relation.  The level
  threshold in the relation is max(alpha_i, alpha_j); the published min
  reading is available behind ``paper_literal=True`` for comparison runs.
* Orthogonal Grassmannians: the exact clause tests, with (n-3)/2 evaluated
  in exact rational arithmetic (for even n the equality clause can never
  hold, which is the literal reading).
* Orthogonal flags: rigidity propagates along the value-equality /
  containment relation (written ``=>`` here), and the class verdict combines
  per-entry rigidity with a total-order check on the essential set.
* Symplectic spaces: sufficient conditions only; everything else reports
  "unknown" (None) rather than guessing.

G(k,n) has its own short path (``_grass_class``): the essential set is the
gap positions, each essential entry is rigid by the four-clause test with
witness level 1, and the relation is the chain of essential entries.  Its
refs carry block 1, the label F(k;n) would give them.

Every flag verdict reads one per-class analysis (``_ClassAnalysis``).  It
validates the index once, holds the sub-index refs by key and, for each
projection level t on first use, keeps the image under pi_t and where each
surviving ref lands.  What depends only on the image -- the target space of
each level, the image's essential set and whether an image entry is rigid --
lives in ``_SpaceTables``, keyed by level and image, because the classes of
one space keep meeting the same few images.  Every question of the form
"levels t >= max(threshold, block) where ..." -- first essential level,
first common essential level, rigid levels, the SF a_i = i test -- is one
walk over that table, so each push-forward is computed at most once per
class.  ``classify`` is the one verdict path: a single call builds its own
tables, and ``classify_space`` shares one set across the classes of a
census.  Nothing outlives the call that built it.  Read a sub-index verdict
with ``RigidityVerdict.sub`` and the relation with ``.relation``.

``classify`` and ``essential_grass`` validate their index once, where it
enters; what runs behind them -- ``remove_above``, the essential cores
``_gap_positions`` / ``_orth_essential`` / ``_symp_essential`` and the
clause tests -- trusts it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import inf

from .errors import ValidationError
from .indices import SchubertIndex, SpaceDescriptor, SpaceKind, check_valid
from .projections import remove_above, target_space


# ---------------------------------------------------------------------------
# sub-index references and report types


@dataclass(frozen=True)
class SubIndexRef:
    side: str  # "a" or "b"
    position: int  # 1-based into the ascending stored sequence
    value: int
    block: int | None = None

    def key(self):
        return (self.side, self.position)

    def __str__(self):
        tag = "%s%d" % (self.side, self.position)
        if self.block is not None:
            return "%s(=%d^%d)" % (tag, self.value, self.block)
        return "%s(=%d)" % (tag, self.value)

    def to_json(self):
        out = {"side": self.side, "position": self.position, "value": self.value}
        if self.block is not None:
            out["block"] = self.block
        return out


def make_refs(index):
    refs = []
    for i, (value, block) in enumerate(index.a_entries(), start=1):
        refs.append(SubIndexRef("a", i, value, block))
    for j, (value, block) in enumerate(index.b_entries(), start=1):
        refs.append(SubIndexRef("b", j, value, block))
    return tuple(refs)


@dataclass(frozen=True)
class RelationEdge:
    source: SubIndexRef
    target: SubIndexRef
    level: int | None = None  # witnessing projection level, None for value edges

    def to_json(self):
        out = {"from": self.source.to_json(), "to": self.target.to_json()}
        if self.level is not None:
            out["t"] = self.level
        return out


@dataclass(frozen=True)
class RelationReport:
    elements: tuple  # the essential refs the relation is defined on
    edges: tuple
    closure: frozenset  # transitively closed set of (key, key) pairs
    totally_ordered: bool
    strict: bool

    def related(self, source, target):
        return (source.key(), target.key()) in self.closure

    def to_json(self):
        return {
            "edges": [e.to_json() for e in self.edges],
            "totally_ordered": self.totally_ordered,
            "strict": self.strict,
        }


def _close_and_grade(elements, edges):
    keys = [ref.key() for ref in elements]
    closure = {(e.source.key(), e.target.key()) for e in edges}
    changed = True
    while changed:
        changed = False
        for x, y in list(closure):
            for y2, z in list(closure):
                if y == y2 and (x, z) not in closure:
                    closure.add((x, z))
                    changed = True
    totally = all(
        (p, q) in closure or (q, p) in closure
        for idx, p in enumerate(keys)
        for q in keys[idx + 1 :]
    )
    strict = all((q, p) not in closure for p, q in closure if p != q) and all(
        (p, p) not in closure for p in keys
    )
    return RelationReport(
        elements=tuple(elements),
        edges=tuple(edges),
        closure=frozenset(closure),
        totally_ordered=totally,
        strict=strict,
    )


@dataclass(frozen=True)
class SubIndexVerdict:
    ref: SubIndexRef
    essential: bool
    rigid: bool | None  # None: undefined (non-essential) or unknown (type C)
    witness: tuple = ()

    def to_json(self):
        out = {
            "ref": self.ref.to_json(),
            "essential": self.essential,
            "rigid": self.rigid,
        }
        if self.witness:
            out["witness"] = _witness_json(self.witness)
        return out


def _witness_json(witness):
    kind, payload = witness
    if kind == "levels":
        return {"levels": list(payload)}
    if kind == "chain":
        chain, level = payload
        return {"chain": [ref.to_json() for ref in chain], "level": level}
    return {"note": payload}


@dataclass(frozen=True)
class RigidityVerdict:
    space: SpaceDescriptor
    index: SchubertIndex
    subs: tuple
    class_rigid: bool | None
    relation: RelationReport | None = None
    notes: tuple = ()

    def sub(self, side, position):
        for verdict in self.subs:
            if verdict.ref.side == side and verdict.ref.position == position:
                return verdict
        raise ValidationError(["no sub-index %s%d" % (side, position)])

    def essential_refs(self):
        return tuple(v.ref for v in self.subs if v.essential)

    def to_json(self):
        out = {
            "space": self.space.render(),
            "index": self.index.to_json(),
            "essential": [v.ref.to_json() for v in self.subs if v.essential],
            "rigid": [v.ref.to_json() for v in self.subs if v.rigid],
            "witness": [
                dict(_witness_json(v.witness), ref=v.ref.to_json())
                for v in self.subs
                if v.witness
            ],
            "class_rigid": self.class_rigid,
        }
        if self.relation is not None:
            out["relation"] = self.relation.to_json()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# essential sub-indices


def essential_grass(space, index):
    """Positions i with i = k or a_i < a_{i+1} - 1."""
    check_valid(space, index)
    return _gap_positions(index.a)


def _gap_positions(a):
    """Positions i with i = len(a) or a_i < a_{i+1} - 1: the G(k,n) essential set."""
    return {i for i in range(1, len(a) + 1) if i == len(a) or a[i - 1] < a[i] - 1}


def _b_essential(b):
    """b_1, and every b_j that does not continue a run b_{j-1} + 1."""
    return {("b", j) for j in range(1, len(b) + 1) if j == 1 or b[j - 1] != b[j - 2] + 1}


def _orth_essential(n, index):
    """Essential keys of a valid OG(k,n) pair, per the three a-side clauses:
    a_s is essential unless n is even, b is present and a_s + b_last = n - 2."""
    s = index.s
    keys = {("a", i) for i in _gap_positions(index.a) if i < s}
    if s and (n % 2 == 1 or not index.b or index.a[-1] + index.b[-1] != n - 2):
        keys.add(("a", s))
    return keys | _b_essential(index.b)


def _symp_essential(index):
    """Essential keys of a valid SG pair: the rank conditions not implied by
    their neighbours.  A reporting convention only; the type-C criteria are
    sufficient conditions and never read this set alone."""
    return {("a", i) for i in _gap_positions(index.a)} | _b_essential(index.b)


def _flag_essential(index):
    a, alpha = index.a, index.alpha
    return {
        i
        for i in range(1, len(a) + 1)
        if i == len(a) or a[i - 1] < a[i] - 1 or alpha[i - 1] < alpha[i]
    }


# ---------------------------------------------------------------------------
# the per-class analysis


class _SpaceTables:
    """What the classes of one flag space share, each fact computed once.

    The target space of each level; per image of pi_t, keyed by
    ``(t, image)``, its essential keys; per ``(t, image, image key)``,
    whether that entry is essential and rigid in the image (on SF: whether
    a_i = i suffices there).  The tables hold nothing of any one class.  A
    census builds one for its space and passes it to every ``classify`` call
    (``classify_space``); every other call builds its own.
    """

    def __init__(self, space):
        self.space = space
        self._targets = {}
        self._essential = {}
        self._rigid = {}

    def target(self, t):
        if t not in self._targets:
            self._targets[t] = target_space(self.space, t)
        return self._targets[t]

    def essential(self, t, image):
        if (t, image) not in self._essential:
            kind = self.space.kind
            if kind is SpaceKind.FLAG_A:
                essential = {("a", i) for i in _gap_positions(image.a)}
            elif kind is SpaceKind.FLAG_ORTH:
                essential = _orth_essential(self.space.ambient, image)
            else:
                essential = _symp_essential(image)
            self._essential[t, image] = essential
        return self._essential[t, image]

    def rigid(self, t, image, image_key):
        if (t, image, image_key) not in self._rigid:
            kind = self.space.kind
            rigid = image_key in self.essential(t, image)
            if rigid and kind is SpaceKind.FLAG_A:
                rigid = _grass_rigid(image.a, image_key[1])
            elif rigid and kind is SpaceKind.FLAG_ORTH:
                rigid = _orth_rigid(self.target(t), image, image_key)
            elif rigid:
                rigid = image_key[0] == "a" and _sg_sufficient(self.target(t), image, image_key[1])
            self._rigid[t, image, image_key] = rigid
        return self._rigid[t, image, image_key]


class _ClassAnalysis:
    """What the verdicts on one class read, each fact computed once.

    The index is validated here, once, and the refs are held by key;
    everything after that runs unchecked cores.  For a projection level t,
    on first use, the image under pi_t (``remove_above``, the one removal
    rule), the image key of every surviving ref and the image's essential
    keys are stored.  What depends only on the image -- its essential keys,
    the rigidity of its entries, the target space -- is read from
    ``tables``, the space's ``_SpaceTables``: a census passes one shared by
    every class of the space, any other call gets its own.  An analysis
    lives for one class.
    """

    def __init__(self, space, index, tables=None):
        check_valid(space, index)
        self.space, self.index = space, index
        self.tables = _SpaceTables(space) if tables is None else tables
        self.refs = {ref.key(): ref for ref in make_refs(index)}
        self._levels = {}

    @property
    def kind(self):
        return self.space.kind

    def level(self, t):
        """(image, {class key: image key}, image essential keys) of pi_t."""
        if t not in self._levels:
            image = remove_above(self.index, t)
            kept = {}
            for side in "ab":
                survivors = [r for r in self.refs.values() if r.side == side and r.block <= t]
                kept.update((r.key(), (side, p)) for p, r in enumerate(survivors, start=1))
            self._levels[t] = (image, kept, self.tables.essential(t, image))
        return self._levels[t]

    def essential_at(self, key, t):
        _, kept, essential = self.level(t)
        return kept.get(key) in essential

    def rigid_at(self, key, t):
        """Is the ref essential and rigid in pi_t?  On SF: does a_i = i suffice there?"""
        image, kept, _ = self.level(t)
        return self.tables.rigid(t, image, kept[key])

    def levels(self, test, threshold, *refs):
        """Levels t >= max(threshold, the refs' blocks) where ``test(key, t)``
        holds for every ref, ascending."""
        start = max(threshold, *(ref.block for ref in refs))
        for t in range(start, self.space.blocks + 1):
            if all(test(ref.key(), t) for ref in refs):
                yield t

    def first(self, test, threshold, *refs):
        return next(self.levels(test, threshold, *refs), None)

    @cached_property
    def essential(self):
        """Essential refs by key: the closed form on type A, else essential in some pi_t."""
        if self.kind is SpaceKind.FLAG_A:
            positions = _flag_essential(self.index)
            return {key: r for key, r in self.refs.items() if r.position in positions}
        return {
            key: r
            for key, r in self.refs.items()
            if self.first(self.essential_at, 1, r) is not None
        }

    def subs(self, verdict_of):
        """One SubIndexVerdict per ref; ``verdict_of(ref)`` gives (rigid, witness)."""
        return tuple(
            SubIndexVerdict(ref, True, *verdict_of(ref))
            if ref.key() in self.essential
            else SubIndexVerdict(ref, False, None)
            for ref in self.refs.values()
        )

    def flag_sub(self, i):
        levels = tuple(self.levels(self.rigid_at, 1, self.refs["a", i]))
        return _flag_clause_rigid(self.index, i), levels

    def flag_relation(self, paper_literal):
        pick = min if paper_literal else max
        refs = list(self.essential.values())
        edges = []
        for src in refs:
            for dst in refs:
                if src.position < dst.position:
                    level = self.first(self.essential_at, pick(src.block, dst.block), dst)
                    if level is not None:
                        edges.append(RelationEdge(src, dst, level))
        return _close_and_grade(refs, edges)

    def implies_relation(self):
        """The ``=>`` relation on the essential OF refs, closed reflexively and
        transitively: b_{j1} => b_{j2} (j2 < j1) unless the larger value is
        n/2 - 1, when the smaller entry is essential in some admissible
        push-forward; a_i <=> b_j when the values agree and are not n/2 - 1."""
        n = self.space.ambient
        refs = list(self.essential.values())
        edges = []
        for src in refs:
            for dst in refs:
                if src.key() == dst.key():
                    edges.append(RelationEdge(src, dst))
                    continue
                if src.side == "b" and dst.side == "b" and dst.position < src.position:
                    if 2 * src.value == n - 2:
                        continue
                    level = self.first(self.essential_at, min(src.block, dst.block), dst)
                    if level is not None:
                        edges.append(RelationEdge(src, dst, level))
                elif src.side != dst.side and src.value == dst.value:
                    if 2 * src.value != n - 2:
                        edges.append(RelationEdge(src, dst))
        return _close_and_grade(refs, edges)

    def orth_sub(self, implies, ref):
        """(verdict, witness chain) of an essential OF sub-index: rigid exactly
        when some entry related to it under ``=>`` is rigid in a push-forward."""
        for source in implies.elements:
            if not implies.related(source, ref):
                continue
            level = self.first(self.rigid_at, 1, source)
            if level is not None:
                return True, ("chain", (_chain_between(implies, source, ref), level))
        return False, ()

    def compat_relation(self, paper_literal):
        """The four-clause compatibility relation on the essential OF refs."""
        n = self.space.ambient
        refs = list(self.essential.values())
        pick = min if paper_literal else max
        edges = []
        for src in refs:
            for dst in refs:
                if src.key() == dst.key():
                    continue
                threshold = pick(src.block, dst.block)
                if src.side == "a" and dst.side == "a":
                    if src.position > dst.position:
                        continue
                    if n % 2 == 0 and 2 * dst.value == n:
                        edges.append(RelationEdge(src, dst))
                        continue
                    level = self.first(self.essential_at, threshold, dst)
                elif src.side == "a" and dst.side == "b":
                    if src.value <= dst.value:
                        edges.append(RelationEdge(src, dst))
                    continue
                elif src.side == "b" and dst.side == "a":
                    if src.value > dst.value or 2 * src.value == n - 2:
                        continue
                    level = self.first(self.essential_at, threshold, src, dst)
                else:
                    if src.position > dst.position:
                        continue
                    level = self.first(self.essential_at, threshold, src)
                if level is not None:
                    edges.append(RelationEdge(src, dst, level))
        return _close_and_grade(refs, edges)


def _ordered_verdict(space, index, subs, relation):
    """All essential sub-indices rigid and the essential set totally ordered."""
    return RigidityVerdict(
        space=space,
        index=index,
        subs=subs,
        class_rigid=all(v.rigid for v in subs if v.essential) and relation.totally_ordered,
        relation=relation,
    )


# ---------------------------------------------------------------------------
# rigid sub-indices, type A


def _grass_rigid(a, i):
    a_prev = a[i - 2] if i >= 2 else 0
    a_next = a[i] if i < len(a) else inf
    return i == len(a) or a[i - 1] == i or a[i - 1] <= a_next - 3 or a[i - 1] == a_prev + 1


def _flag_clause_rigid(index, i):
    """Closed-form flag rigidity clauses with sentinels a_0 = 0, a_{d_k+1} = inf."""
    a = index.a
    alpha = index.alpha
    d_k = len(a)

    def value(p):
        if p == 0:
            return 0
        if p > d_k:
            return inf
        return a[p - 1]

    def block(p):
        if p == 0:
            return 0
        if p > d_k:
            return len(set(alpha)) + d_k  # sentinel; unreachable behind the inf gap
        return alpha[p - 1]

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


def _flag_class(analysis, paper_literal):
    def verdict_of(ref):
        verdict, levels = analysis.flag_sub(ref.position)
        return verdict, ("levels", levels) if levels else ()

    return _ordered_verdict(
        analysis.space,
        analysis.index,
        analysis.subs(verdict_of),
        analysis.flag_relation(paper_literal),
    )


def _grass_subs(space, index):
    """Sub-index verdicts of a G(k,n) class, validated once: the gap positions
    are essential, the four-clause test decides rigidity, witnessed at level 1.
    Refs carry block 1, as F(k;n) labels them."""
    check_valid(space, index)
    essential = _gap_positions(index.a)
    subs = []
    for i, value in enumerate(index.a, start=1):
        ref = SubIndexRef("a", i, value, 1)
        if i in essential:
            rigid = _grass_rigid(index.a, i)
            subs.append(SubIndexVerdict(ref, True, rigid, ("levels", (1,)) if rigid else ()))
        else:
            subs.append(SubIndexVerdict(ref, False, None))
    return tuple(subs)


def _grass_chain(subs):
    """The G(k,n) relation: each essential entry before every later one, at
    level 1.  Closed, total and strict as built."""
    refs = tuple(v.ref for v in subs if v.essential)
    edges = tuple(RelationEdge(src, dst, 1) for p, src in enumerate(refs) for dst in refs[p + 1 :])
    return RelationReport(
        elements=refs,
        edges=edges,
        closure=frozenset((e.source.key(), e.target.key()) for e in edges),
        totally_ordered=True,
        strict=True,
    )


def _grass_class(space, index):
    subs = _grass_subs(space, index)
    return _ordered_verdict(space, index, subs, _grass_chain(subs))


# ---------------------------------------------------------------------------
# rigid sub-indices, orthogonal Grassmannians


def _bound(n, k, j, b_j):
    return k - j + b_j - Fraction(n - 3, 2)


def _count_a_below(index, value):
    return sum(1 for a in index.a if a <= value)


def _a_side_not_rigid(space, index, i):
    """The two published non-rigidity clauses for an a-side entry."""
    n = space.ambient
    k = space.top_step
    a = index.a
    s = index.s
    a_i = a[i - 1]
    if a_i in index.b:
        j = index.b.index(a_i) + 1
        if Fraction(_count_a_below(index, a_i)) == _bound(n, k, j, a_i):
            return True
        return False
    if i >= s:
        # no following isotropic gap to compare against; only the value
        # clause above can disqualify the last entry
        return False
    a_prev = a[i - 2] if i >= 2 else 0
    between = sum(1 for b in index.b if a_i < b < a[i])
    return a_i - a_prev >= 2 and a[i] - a_i == 2 + between


def _b_value_clause(space, index, j):
    """b_j is also an a-value and #{a_i <= b_j} > k - j + b_j - (n-3)/2."""
    b_j = index.b[j - 1]
    return b_j in index.a and Fraction(_count_a_below(index, b_j)) > _bound(
        space.ambient, space.top_step, j, b_j
    )


def _orth_rigid(space, index, key):
    """The clause test for an essential OG sub-index, on a valid index."""
    side, j = key
    if side == "a":
        return not _a_side_not_rigid(space, index, j)
    return index.b[j - 1] == 0 or any(
        _b_value_clause(space, index, j2) for j2 in range(j, len(index.b) + 1)
    )


def _orthgrass_class(space, index):
    """Largest-essential-b criterion plus the no-bad-gap condition."""
    check_valid(space, index)
    keys = _orth_essential(space.ambient, index)
    subs = tuple(
        SubIndexVerdict(ref, True, _orth_rigid(space, index, ref.key()))
        if ref.key() in keys
        else SubIndexVerdict(ref, False, None)
        for ref in make_refs(index)
    )
    notes = ()
    if index.b:
        cond1 = _b_value_clause(space, index, max(j for (side, j) in keys if side == "b"))
    else:
        cond1 = True
        notes = ("no co-condition part: largest-essential-b condition is vacuous",)
    cond2 = not any(
        index.a[i - 1] not in index.b and _a_side_not_rigid(space, index, i)
        for i in range(1, index.s)
    )
    return RigidityVerdict(
        space=space,
        index=index,
        subs=subs,
        class_rigid=cond1 and cond2,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# orthogonal flags


def _chain_between(relation, source, target):
    """Shortest direct-edge path source => ... => target (BFS)."""
    if source.key() == target.key():
        return (source,)
    adjacency = {}
    for edge in relation.edges:
        adjacency.setdefault(edge.source.key(), []).append(edge.target)
    frontier = [(source, (source,))]
    seen = {source.key()}
    while frontier:
        current, path = frontier.pop(0)
        for nxt in adjacency.get(current.key(), []):
            if nxt.key() in seen:
                continue
            if nxt.key() == target.key():
                return path + (nxt,)
            seen.add(nxt.key())
            frontier.append((nxt, path + (nxt,)))
    return (source, target)


def _orthflag_class(analysis, paper_literal):
    implies = analysis.implies_relation()
    subs = analysis.subs(lambda ref: analysis.orth_sub(implies, ref))
    relation = analysis.compat_relation(paper_literal)
    return _ordered_verdict(analysis.space, analysis.index, subs, relation)


# ---------------------------------------------------------------------------
# symplectic spaces (sufficient conditions only)


def _sg_sufficient(space, index, i):
    """a_i = i with either a gap >= 3 after it or i = s and n >= 2k + 2."""
    n = space.ambient
    k = space.top_step
    a = index.a
    s = index.s
    if a[i - 1] != i:
        return False
    if i < s:
        return a[i] - a[i - 1] >= 3
    return n >= 2 * k + 2


def _is_rigid_family(space, index):
    """a = (1,...,i), b = (i,...,k-1) with n >= 2k + 2."""
    k = space.top_step
    n = space.ambient
    if n < 2 * k + 2:
        return False
    i = index.s
    if i < 1:
        return False
    return index.a == tuple(range(1, i + 1)) and index.b == tuple(range(i, k))


def _symp_class(analysis):
    space, index = analysis.space, analysis.index
    if space.kind is SpaceKind.GRASS_SYMP:
        keys = _symp_essential(index)
        family = _is_rigid_family(space, index)
        subs = []
        for ref in analysis.refs.values():
            essential = ref.key() in keys
            rigid = None
            witness = ()
            if essential and ref.side == "a" and _sg_sufficient(space, index, ref.position):
                rigid = True
                witness = ("note", "a_i = i sufficient condition")
            if essential and rigid is None and family:
                # a rigid class pins the witness subspace of every essential entry
                rigid = True
                witness = ("note", "class is a rigid family member")
            subs.append(SubIndexVerdict(ref, essential, rigid, witness))
        return RigidityVerdict(
            space=space,
            index=index,
            subs=tuple(subs),
            class_rigid=True if family else None,
            notes=() if family else ("no sufficient type-C criterion applies",),
        )

    def verdict_of(ref):
        # rigid_at is False on the b side: type C has no b-side condition
        level = analysis.first(analysis.rigid_at, 1, ref)
        return (None, ()) if level is None else (True, ("levels", (level,)))

    return RigidityVerdict(
        space=space,
        index=index,
        subs=analysis.subs(verdict_of),
        class_rigid=None,
        notes=("type-C flag classes carry no class-level sufficient criterion",),
    )


# ---------------------------------------------------------------------------
# dispatch


def classify(space, index, paper_literal=False, *, tables=None):
    """Whole-class verdict for any supported kind.

    ``tables``, when given, is the ``_SpaceTables`` of ``space`` that the
    other classes of a census share (see ``classify_space``).
    """
    if space.kind is SpaceKind.GRASS_A:
        return _grass_class(space, index)
    if space.kind is SpaceKind.GRASS_ORTH:
        return _orthgrass_class(space, index)
    analysis = _ClassAnalysis(space, index, tables)
    if space.kind is SpaceKind.FLAG_A:
        return _flag_class(analysis, paper_literal)
    if space.kind is SpaceKind.FLAG_ORTH:
        return _orthflag_class(analysis, paper_literal)
    return _symp_class(analysis)


def classify_space(space, indices, paper_literal=False):
    """``classify`` each index of ``space`` in turn, yielding the verdicts.

    Every call reads one ``_SpaceTables``, so an image met by many classes
    has its essential set and rigidity computed once per census; the tables
    go when the generator does.
    """
    tables = _SpaceTables(space)
    for index in indices:
        yield classify(space, index, paper_literal, tables=tables)
