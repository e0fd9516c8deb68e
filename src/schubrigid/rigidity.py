"""Essential / rigid sub-index classification and class-level rigidity verdicts.

The criteria used here:

* Grassmannian sub-indices: the four-clause rigidity test, with sentinels
  a_0 = 0 and a_{k+1} = infinity.
* Type-A flags: the projection definition.  An entry is essential, resp.
  rigid, when it is so in the image under some pi_t at a level t >= its
  block, by the G(k,n) tests.  The paper's closed forms of both live in
  ``checks``, the oracle the selftest sweeps this definition against.
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

Each Grassmannian kind has one row (``_grass_row``, ``_orth_row``,
``_symp_row``): the (essential, rigid) int bitmasks of a valid G, OG or SG
index, bit p - 1 for a_p, then bit s + q - 1 for b_q.  A Grassmannian class
reads its own row, and every flag image the row of its level's target kind.
One builder, ``_subs``, turns an essential mask and the (rigid, witness)
rule of a kind into its ``SubIndexVerdict``s.  G(k,n) refs carry block 1,
as F(k;n) labels them.

Every flag verdict reads one per-class analysis (``_ClassAnalysis``).  It
numbers the refs of the index 0..m-1 and takes the image under each pi_t
once.  What depends only on the image -- the target space of each level
and the row of the image -- lives in ``_SpaceTables``, keyed by the tuple
(t, image.a, image.b), because the classes of one space keep meeting the
same few images.  The analysis maps each level's masks onto its own ref
bits, so every question "first level t >= threshold where these refs are
essential / rigid" -- first essential level, first common essential level,
rigid levels, the SF a_i = i test -- is a loop over ints.  The flag and
compatibility relations close by Warshall over bit rows; an OF sub-index
is rigid when a breadth-first walk of the direct ``=>`` rows reaches it
from an entry rigid at some level, and the path is its witness.
``_verdict`` is the one verdict path:
``classify`` builds tables for one class, and ``classify_space`` shares one
set across a census.  Nothing outlives the call that built it.  Read a
sub-index verdict with ``RigidityVerdict.sub`` and the relation with
``.relation``.

``classify`` and ``essential_grass`` validate their index once, where it
enters; ``classify_space`` reads ``enumerate_indices``, valid by
construction, and validates nothing.  What runs behind them -- ``_verdict``,
``remove_above``, the rows and the clause tests -- trusts it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import ValidationError
from .indices import SchubertIndex, SpaceDescriptor, SpaceKind, check_valid, enumerate_indices
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
    rows: tuple  # transitive closure: bit j of rows[i] <=> elements[i] relates to elements[j]
    totally_ordered: bool
    strict: bool

    def to_json(self):
        return {
            "edges": [e.to_json() for e in self.edges],
            "totally_ordered": self.totally_ordered,
            "strict": self.strict,
        }


def _close_and_grade(elements, edges):
    """Close ``edges`` transitively (Warshall over bit rows) and grade the result.

    The edges join refs of ``elements`` themselves, so refs are matched by
    identity.  Transitive closure makes strictness "no element above itself".
    """
    number = {id(ref): i for i, ref in enumerate(elements)}
    rows = [0] * len(elements)
    for e in edges:
        rows[number[id(e.source)]] |= 1 << number[id(e.target)]
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    m = len(rows)
    totally = all(rows[i] >> j & 1 or rows[j] >> i & 1 for i in range(m) for j in range(i + 1, m))
    return RelationReport(
        elements=tuple(elements),
        edges=tuple(edges),
        rows=tuple(rows),
        totally_ordered=totally,
        strict=not any(row >> i & 1 for i, row in enumerate(rows)),
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


# ---------------------------------------------------------------------------
# the per-class analysis


class _SpaceTables:
    """What the classes of one flag space share, each fact computed once.

    The target space of each level, and per image of pi_t, keyed by the
    plain tuple ``(t, image.a, image.b)``, one ``(essential, rigid)`` pair
    of int bitmasks over the image's entries: bit p - 1 for a_p, then bit
    s + q - 1 for b_q.  Rigid means essential and rigid in the image (on SF:
    a_i = i suffices there).  A pair is filled once per distinct image, by
    the row of the level's target kind.  The tables hold nothing of any
    one class.  A census builds one for its space and reads it for every
    class (``classify_space``); a ``classify`` call builds its own.
    """

    def __init__(self, space):
        self.space = space
        self._targets = {}
        self._masks = {}

    def target(self, t):
        if t not in self._targets:
            self._targets[t] = target_space(self.space, t)
        return self._targets[t]

    def masks(self, t, image):
        key = (t, image.a, image.b)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = self._fill(t, image)
        return masks

    def _fill(self, t, image):
        target = self.target(t)
        return _ROWS[target.kind](target, image)


class _ClassAnalysis:
    """What the verdicts on one flag class read, each fact computed once.

    The index is trusted, and its refs are numbered 0..m-1 in ``make_refs``
    order (a side, then b side).  For each level t = 1..blocks the image
    under pi_t (``remove_above``, the one removal rule) is taken once, its
    masks are read from ``tables``, the space's ``_SpaceTables``, and mapped
    onto the class's bits through the refs that survive at t: ``ess[t]`` and
    ``rig[t]`` have bit q when ref q is essential, resp. essential and rigid,
    in that image.  On every flag kind a ref is essential when it is
    essential in some image: ``essential_mask`` is the union of the
    ``ess[t]`` and ``essential`` lists its bits.  Every question "first
    level t >= threshold where all these refs are essential / rigid" is a
    loop over those masks; a ref's bit is clear below its own block, so the
    threshold needs no max with it.  The relations read the same masks;
    the OF ``=>`` edges stay direct rows (``implies_rows``) that ``orth_sub``
    walks.  A census passes one ``tables`` shared by every class of the
    space.  An analysis lives for one class.
    """

    def __init__(self, space, index, tables):
        self.space, self.index = space, index
        self.refs = make_refs(index)
        self.blocks = space.blocks
        self.ess, self.rig = [0], [0]  # level 0 is never read
        essential = 0  # essential in some image
        ref_blocks = [ref.block for ref in self.refs]
        for t in range(1, self.blocks + 1):
            ess, rig = tables.masks(t, remove_above(index, t))
            if t < self.blocks:  # at the top level every ref survives in place
                image_ess, image_rig = ess, rig
                ess = rig = 0
                image_bit = bit = 1
                for block in ref_blocks:
                    if block <= t:
                        if image_ess & image_bit:
                            ess |= bit
                        if image_rig & image_bit:
                            rig |= bit
                        image_bit <<= 1
                    bit <<= 1
            self.ess.append(ess)
            self.rig.append(rig)
            essential |= ess
        self.essential_mask = essential
        self.essential = tuple([q for q in range(len(self.refs)) if essential >> q & 1])

    def first(self, table, threshold, need):
        """The least level t >= threshold with every bit of ``need`` set in
        ``table[t]`` (``ess`` or ``rig``), or None."""
        for t in range(threshold, self.blocks + 1):
            if table[t] & need == need:
                return t
        return None

    def levels(self, table, threshold, need):
        """Every such level, ascending."""
        return tuple([t for t in range(threshold, self.blocks + 1) if table[t] & need == need])

    def flag_relation(self, paper_literal):
        pick = min if paper_literal else max
        refs = self.refs
        edges = []
        for p, qs in enumerate(self.essential):
            src = refs[qs]
            for qd in self.essential[p + 1 :]:
                dst = refs[qd]
                level = self.first(self.ess, pick(src.block, dst.block), 1 << qd)
                if level is not None:
                    edges.append(RelationEdge(src, dst, level))
        return _close_and_grade([refs[q] for q in self.essential], edges)

    def implies_rows(self):
        """The direct ``=>`` edges on the essential OF refs, one int per ref of
        ``essential``: bit p is set when it implies ``essential[p]``.
        b_{j1} => b_{j2} (j2 < j1) when the smaller entry is essential in a
        push-forward at a level >= the smaller block; a_i <=> b_j when the
        values agree and are not n/2 - 1.  A b of value n/2 - 1 needs no such
        exception: it is the largest b of every OG image that holds it, where
        #{a <= b} = s never exceeds the bound s + 1/2, so it is never rigid, and
        no edge enters it, so its out-edges decide no verdict and no chain."""
        n = self.space.ambient
        refs, essential = self.refs, self.essential
        rows = []
        for qs in essential:
            src = refs[qs]
            row = 0
            for p, qd in enumerate(essential):
                dst = refs[qd]
                if src.side == "b" and dst.side == "b" and qd < qs:
                    if self.first(self.ess, min(src.block, dst.block), 1 << qd) is not None:
                        row |= 1 << p
                elif src.side != dst.side and src.value == dst.value and 2 * src.value != n - 2:
                    row |= 1 << p
            rows.append(row)
        return rows

    def orth_sub(self, rows, q):
        """(verdict, witness) of the essential OF ref q: rigid exactly when q is
        reached along the ``=>`` edges ``rows`` from an entry rigid in some
        push-forward.  The rigid sources go in ``essential`` order, each walked
        breadth first, successors in ascending position, each marked when first
        found; the witness is the first path to q and its source's first rigid
        level."""
        essential = self.essential
        goal = essential.index(q)
        for p, qs in enumerate(essential):
            level = self.first(self.rig, 1, 1 << qs)
            if level is None:
                continue
            seen = 1 << p
            frontier = [(p,)]
            for path in frontier:  # a queue: the walk appends while it reads
                if path[-1] == goal:
                    chain = tuple([self.refs[essential[i]] for i in path])
                    return True, ("chain", (chain, level))
                fresh = rows[path[-1]] & ~seen
                seen |= fresh
                while fresh:
                    low = fresh & -fresh
                    frontier.append(path + (low.bit_length() - 1,))
                    fresh ^= low
        return False, ()

    def compat_relation(self, paper_literal):
        """The four-clause compatibility relation on the essential OF refs."""
        n = self.space.ambient
        refs = self.refs
        pick = min if paper_literal else max
        edges = []
        for qs in self.essential:
            src = refs[qs]
            for qd in self.essential:
                if qs == qd:
                    continue
                dst = refs[qd]
                threshold = pick(src.block, dst.block)
                if src.side == "a" and dst.side == "a":
                    if qs > qd:
                        continue
                    if n % 2 == 0 and 2 * dst.value == n:
                        edges.append(RelationEdge(src, dst))
                        continue
                    level = self.first(self.ess, threshold, 1 << qd)
                elif src.side == "a" and dst.side == "b":
                    if src.value <= dst.value:
                        edges.append(RelationEdge(src, dst))
                    continue
                elif src.side == "b" and dst.side == "a":
                    # a b of value n/2 - 1 reaches only a = n/2 - 1 = a_s, which the
                    # image's a_s + b_last = n - 2 makes non-essential: no level
                    if src.value > dst.value:
                        continue
                    level = self.first(self.ess, threshold, 1 << qs | 1 << qd)
                else:
                    if qs > qd:
                        continue
                    level = self.first(self.ess, threshold, 1 << qs)
                if level is not None:
                    edges.append(RelationEdge(src, dst, level))
        return _close_and_grade([refs[q] for q in self.essential], edges)


def _ordered_verdict(space, index, subs, relation):
    """All essential sub-indices rigid and the essential set totally ordered."""
    return RigidityVerdict(
        space=space,
        index=index,
        subs=subs,
        class_rigid=all(v.rigid for v in subs if v.essential) and relation.totally_ordered,
        relation=relation,
    )


def _subs(refs, essential, verdict_of):
    """One SubIndexVerdict per ref: ref q is essential when bit q of
    ``essential`` is set, and then ``verdict_of(q)`` is its (rigid, witness)."""
    subs = []
    for q, ref in enumerate(refs):
        here = essential >> q & 1 == 1
        rigid, witness = verdict_of(q) if here else (None, ())
        subs.append(SubIndexVerdict(ref, here, rigid, witness))
    return tuple(subs)


# ---------------------------------------------------------------------------
# rigid sub-indices, type A


def _grass_rigid(a, i):
    a_prev = a[i - 2] if i >= 2 else 0
    a_next = a[i] if i < len(a) else inf
    return i == len(a) or a[i - 1] == i or a[i - 1] <= a_next - 3 or a[i - 1] == a_prev + 1


def _flag_class(analysis, paper_literal):
    def verdict_of(q):  # rigid in the image at some level, each one a witness
        levels = analysis.levels(analysis.rig, 1, 1 << q)
        return bool(levels), ("levels", levels) if levels else ()

    return _ordered_verdict(
        analysis.space,
        analysis.index,
        _subs(analysis.refs, analysis.essential_mask, verdict_of),
        analysis.flag_relation(paper_literal),
    )


def _grass_chain(subs):
    """The G(k,n) relation: each essential entry before every later one, at
    level 1.  Closed, total and strict as built."""
    refs = tuple([v.ref for v in subs if v.essential])
    edges = [RelationEdge(src, dst, 1) for p, src in enumerate(refs) for dst in refs[p + 1 :]]
    full = (1 << len(refs)) - 1
    return RelationReport(
        elements=refs,
        edges=tuple(edges),
        rows=tuple([full >> (p + 1) << (p + 1) for p in range(len(refs))]),
        totally_ordered=True,
        strict=True,
    )


def _grass_class(space, index):
    """A valid G(k,n) class, read off its row: a rigid entry is witnessed at level 1,
    and the chain is total, so the class is rigid when every essential entry is."""
    essential, rigid = _grass_row(space, index)
    refs = tuple([SubIndexRef("a", i, value, 1) for i, value in enumerate(index.a, start=1)])
    subs = _subs(
        refs, essential, lambda q: (True, ("levels", (1,))) if rigid >> q & 1 else (False, ())
    )
    return RigidityVerdict(space, index, subs, rigid == essential, _grass_chain(subs))


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
    essential, rigid = _orth_row(space, index)
    subs = _subs(make_refs(index), essential, lambda q: (rigid >> q & 1 == 1, ()))
    notes = ()
    if index.b:  # b_1 is essential, so the top bit of ``essential`` is the largest essential b
        cond1 = _b_value_clause(space, index, essential.bit_length() - index.s)
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


def _orthflag_class(analysis, paper_literal):
    rows = analysis.implies_rows()
    subs = _subs(analysis.refs, analysis.essential_mask, lambda q: analysis.orth_sub(rows, q))
    relation = analysis.compat_relation(paper_literal)
    return _ordered_verdict(analysis.space, analysis.index, subs, relation)


# ---------------------------------------------------------------------------
# symplectic spaces (sufficient conditions only)


def _sg_sufficient(space, index, key):
    """``key`` is an a_i with a_i = i and either a gap >= 3 after it, or i = s
    and n >= 2k + 2."""
    side, i = key
    n = space.ambient
    k = space.top_step
    a = index.a
    s = index.s
    if side == "b" or a[i - 1] != i:
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


def _sympgrass_class(space, index):
    essential, rigid = _symp_row(space, index)
    family = _is_rigid_family(space, index)

    def verdict_of(q):
        if rigid >> q & 1:
            return True, ("note", "a_i = i sufficient condition")
        if family:  # a rigid class pins the witness subspace of every essential entry
            return True, ("note", "class is a rigid family member")
        return None, ()

    return RigidityVerdict(
        space=space,
        index=index,
        subs=_subs(make_refs(index), essential, verdict_of),
        class_rigid=True if family else None,
        notes=() if family else ("no sufficient type-C criterion applies",),
    )


def _sympflag_class(analysis):
    def verdict_of(q):
        # rig is clear on the b side: type C has no b-side condition
        level = analysis.first(analysis.rig, 1, 1 << q)
        return (None, ()) if level is None else (True, ("levels", (level,)))

    return RigidityVerdict(
        space=analysis.space,
        index=analysis.index,
        subs=_subs(analysis.refs, analysis.essential_mask, verdict_of),
        class_rigid=None,
        notes=("type-C flag classes carry no class-level sufficient criterion",),
    )


# ---------------------------------------------------------------------------
# one row per Grassmannian kind


def _grass_row(space, index):
    """The masks of a valid G(k,n) index: the gap positions, then the four-clause test."""
    a = index.a
    essential = rigid = 0
    for i in _gap_positions(a):
        essential |= 1 << (i - 1)
        if _grass_rigid(a, i):
            rigid |= 1 << (i - 1)
    return essential, rigid


def _orth_row(space, index):
    """The masks of a valid OG(k,n) pair: ``_orth_essential``, then the clause tests."""
    return _pair_row(space, index, _orth_essential(space.ambient, index), _orth_rigid)


def _symp_row(space, index):
    """The masks of a valid SG(k,n) pair; rigid is a_i = i sufficing, clear on the b side."""
    return _pair_row(space, index, _symp_essential(index), _sg_sufficient)


def _pair_row(space, index, keys, rigid_test):
    """(essential, rigid) bitmasks of a pair index whose essential keys are
    ``keys``, bit p - 1 for a_p, then bit s + q - 1 for b_q."""
    s = index.s
    essential = rigid = 0
    for key in keys:
        side, p = key
        bit = 1 << (p - 1 if side == "a" else s + p - 1)
        essential |= bit
        if rigid_test(space, index, key):
            rigid |= bit
    return essential, rigid


# a flag image reads the row of its level's target kind
_ROWS = {
    SpaceKind.GRASS_A: _grass_row,
    SpaceKind.GRASS_ORTH: _orth_row,
    SpaceKind.GRASS_SYMP: _symp_row,
}


# ---------------------------------------------------------------------------
# dispatch


def classify(space, index, paper_literal=False):
    """Whole-class verdict for any supported kind; the index is validated here."""
    check_valid(space, index)
    return _verdict(space, index, paper_literal, _SpaceTables(space))


def classify_space(space, paper_literal=False):
    """Yield the verdict of every class of ``space``, in ``enumerate_indices``
    order.  The classes are valid by construction and none is validated.  One
    ``_SpaceTables`` serves them all and goes when the generator does; the
    enumeration cap is checked when the first verdict is asked for."""
    tables = _SpaceTables(space)
    for index in enumerate_indices(space):
        yield _verdict(space, index, paper_literal, tables)


def _verdict(space, index, paper_literal, tables):
    """The class verdict of a valid index; ``tables`` is the space's ``_SpaceTables``."""
    if space.kind is SpaceKind.GRASS_A:
        return _grass_class(space, index)
    if space.kind is SpaceKind.GRASS_ORTH:
        return _orthgrass_class(space, index)
    if space.kind is SpaceKind.GRASS_SYMP:
        return _sympgrass_class(space, index)
    analysis = _ClassAnalysis(space, index, tables)
    if space.kind is SpaceKind.FLAG_A:
        return _flag_class(analysis, paper_literal)
    if space.kind is SpaceKind.FLAG_ORTH:
        return _orthflag_class(analysis, paper_literal)
    return _sympflag_class(analysis)
