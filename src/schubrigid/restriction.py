"""Restriction-variety sequences in OG(k,n) and the corank-raising degeneration.

A sequence holds isotropic dimensions a_1 < ... < a_s and a quadric ladder
(d_j, r_j), d_1 > ... > d_{k-s}, where (d, r) stands for a d-dimensional
subquadric of corank r.  The degeneration loop raises the corank of the
smallest unfinished quadric one step at a time:

* reaching corank a_i - 1 for some isotropic dimension a_i splits the class
  into the quadric-shrinking branch (guarded by an effectivity bound) and the
  isotropic-shrinking branch;
* reaching corank d - 2 breaks the quadric into two linear spaces of
  dimension d - 1, doubling the coefficient;
* in orthogonal mode a quadric freezes once d + r = n (the Schubert datum
  b = r); in the push-to-G(k,n) mode there is no ambient quadric and every
  ladder entry degenerates until it breaks.

Only the two displayed branch rules are implemented.  A state they do not
cover raises unsupported-degeneration rather than a silent wrong answer.

The trace is plain events, rendered only when it is read.  An unsupported
state's error carries the events before it as ``partial_trace``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor

from .errors import UnsupportedDegenerationError, ValidationError
from .indices import (
    ChowClass,
    SpaceDescriptor,
    SpaceKind,
    check_valid,
    pair_index,
    plain_index,
)


@dataclass(frozen=True)
class RestrictionSequence:
    space: SpaceDescriptor
    isotropic: tuple  # a_1 < ... < a_s
    ladder: tuple  # ((d_1, r_1), ..., (d_{k-s}, r_{k-s})), d descending

    def __post_init__(self):
        if self.space.kind is not SpaceKind.GRASS_ORTH:
            raise ValidationError(["restriction sequences live in OG(k,n)"])
        if len(self.isotropic) + len(self.ladder) != self.space.top_step:
            raise ValidationError(
                ["sequence must hold k = %d conditions" % self.space.top_step]
            )

    @property
    def k(self):
        return self.space.top_step

    @property
    def s(self):
        return len(self.isotropic)

    def render(self):
        return _render(self.space, self.isotropic, self.ladder)

    def __str__(self):
        return self.render()


def _render(space, isotropic, ladder):
    """The sequence literal ``F:a_1,... | Q:d_1^r_1,... @ OG(k,n)``."""
    f_part = ",".join(str(a) for a in isotropic)
    q_part = ",".join("%d^%d" % (d, r) for d, r in ladder)
    return "F:%s | Q:%s @ %s" % (f_part, q_part, space.render())


def validate_sequence(seq):
    """Report every violated defining condition; empty report means valid.

    Condition (2) is a genericity statement about flags, recorded in the
    docs but not checkable from the ladder data.  The undefined first
    disjunct of condition (3) is not evaluated; sequences failing the
    spacing disjunct are reported against (3).
    """
    problems = []
    n = seq.space.ambient
    half = seq.space.half
    a = seq.isotropic
    ladder = seq.ladder
    if any(x >= y for x, y in zip(a, a[1:])):
        problems.append("isotropic dimensions must be strictly increasing")
    if a and a[0] < 1:
        problems.append("isotropic dimensions must be positive")
    if a and a[-1] > half:
        problems.append("isotropic dimensions must not exceed floor(n/2)")
    if any(d1 <= d2 for (d1, _), (d2, _) in zip(ladder, ladder[1:])):
        problems.append("quadric dimensions must be strictly decreasing")
    for d, r in ladder:
        if r < 0:
            problems.append("coranks must be nonnegative")
        if d + r > n:
            problems.append("quadric %d^%d does not fit in a smooth quadric of P^%d" % (d, r, n - 1))
    if a and ladder and a[-1] >= ladder[-1][0]:
        problems.append("the largest isotropic space must sit inside the smallest quadric")
    coranks = [r for _, r in ladder]
    if any(r1 > r2 for r1, r2 in zip(coranks, coranks[1:])):
        problems.append("(1): singular loci must be nested (coranks nondecreasing)")
    # (3) spacing disjunct plus its follow-on equalities
    m = len(ladder)
    for i in range(m):
        for t in range(i + 1, m):
            if coranks[t] - coranks[i] < t - i - 1:
                problems.append("(3): r_%d - r_%d >= %d fails" % (t + 1, i + 1, t - i - 1))
    for t in range(1, m):
        if coranks[t] == coranks[t - 1] and coranks[t] > coranks[0]:
            for i in range(t, m - 1):
                if ladder[i][0] - ladder[i + 1][0] != coranks[i + 1] - coranks[i]:
                    problems.append("(3): follow-on dimension steps fail at i=%d" % (i + 1))
            if ladder[t - 1][0] - ladder[t][0] != 1:
                problems.append("(3): d_%d - d_%d = 1 fails" % (t, t + 1))
    if ladder:
        d_last, r_last = ladder[-1]
        if r_last > d_last - 3:
            problems.append("(A1): r_{k-s} <= d_{k-s} - 3 fails")
    for a_i in a:
        for _, r in ladder:
            if a_i - r == 1:
                problems.append("(A2): a_i - r_j = 1 for a_i=%d, r_j=%d" % (a_i, r))
    k = seq.k
    for j, (d, r) in enumerate(ladder, start=1):
        x_j = sum(1 for a_i in a if a_i <= r)
        if x_j < k - j + 1 - floor((d - r) / 2):
            problems.append("(A3): x_%d >= %d fails" % (j, k - j + 1 - floor((d - r) / 2)))
    return problems


def schubert_to_sequence(space, index):
    """Schubert data (a; b) as the ladder (n - b_j, b_j), largest quadric first."""
    check_valid(space, index)
    if space.kind is not SpaceKind.GRASS_ORTH:
        raise ValidationError(["schubert_to_sequence needs an OG(k,n) pair"])
    n = space.ambient
    ladder = tuple((n - b, b) for b in index.b)  # ascending b = descending dim
    return RestrictionSequence(space=space, isotropic=index.a, ladder=ladder)


def sequence_is_schubert(seq):
    return all(d + r == seq.space.ambient for d, r in seq.ladder)


def sequence_to_index(seq):
    b = tuple(sorted(r for _, r in seq.ladder))
    index = pair_index(seq.isotropic, b)
    check_valid(seq.space, index)
    return index


# ---------------------------------------------------------------------------
# the degeneration machine
#
# Each move appends one plain event tuple
#   (event, path, isotropic, ladder, coefficient, *fields)
# where ``fields`` are the event's own: the quadric [d, r, r'] of a raise,
# break or split, then a split's pivot and effective_L1.  Nothing is rendered
# until the trace is read.


@dataclass(frozen=True)
class _State:
    isotropic: tuple
    ladder: tuple
    coefficient: int
    path: str


@dataclass(frozen=True)
class DegenerationTrace:
    space: SpaceDescriptor
    events: tuple

    @property
    def steps(self):
        steps = []
        for event, path, isotropic, ladder, coefficient, *fields in self.events:
            step = {"path": path, "event": event}
            if fields:
                step["quadric"] = fields[0]
            step["state"] = _render(self.space, isotropic, ladder)
            step.update(zip(("pivot", "effective_L1"), fields[1:]))
            step["coefficient"] = coefficient
            steps.append(step)
        return tuple(steps)

    def to_json_lines(self):
        import json

        return [json.dumps(step, sort_keys=True) for step in self.steps]


def _state_sanity(seq_space, state, og_mode):
    a = state.isotropic
    ladder = state.ladder
    n = seq_space.ambient
    if any(x >= y for x, y in zip(a, a[1:])) or (a and a[0] < 1):
        raise UnsupportedDegenerationError("degenerate isotropic chain %s" % (a,))
    if any(d1 <= d2 for (d1, _), (d2, _) in zip(ladder, ladder[1:])):
        raise UnsupportedDegenerationError("quadric dimensions collided in %s" % (ladder,))
    for d, r in ladder:
        if r > d - 2:
            raise UnsupportedDegenerationError(
                "quadric %d^%d has rank < 2; state not covered" % (d, r)
            )
        if og_mode and d + r > n:
            raise UnsupportedDegenerationError(
                "corank %d exceeds the ambient bound for %d^%d" % (r, d, r)
            )
    for a_i in a:
        for d, r in ladder:
            if a_i == r + 1:
                raise UnsupportedDegenerationError(
                    "static a_i = r_j + 1 (a_i=%d, Q=%d^%d); reducible state "
                    "not covered by the displayed rules" % (a_i, d, r)
                )


def _active_quadric(space, state, og_mode):
    """Index into the ladder of the smallest unfinished quadric, or None."""
    n = space.ambient
    for pos in range(len(state.ladder) - 1, -1, -1):
        d, r = state.ladder[pos]
        if og_mode and d + r == n:
            continue
        return pos
    return None


def degenerate_step(space, state, pos, og_mode, events):
    """One move on the active quadric at ``pos``; returns the successor states
    (one or two) and appends the move's event."""
    _state_sanity(space, state, og_mode)
    d, r = state.ladder[pos]
    a = state.isotropic
    if r == d - 2:
        # break into two linear subspaces of dimension d - 1
        new_a = tuple(sorted(a + (d - 1,)))
        ladder = state.ladder[:pos] + state.ladder[pos + 1 :]
        child = _State(new_a, ladder, state.coefficient * 2, state.path + "B")
        events.append(("break", state.path, a, state.ladder, child.coefficient, [d, r, r]))
        if d - 1 in a:
            raise UnsupportedDegenerationError(
                "break produced a duplicate isotropic dimension %d" % (d - 1)
            )
        return (child,)
    r2 = r + 1
    split_i = next((i for i, a_i in enumerate(a, start=1) if a_i == r2 + 1), None)
    if split_i is None:
        ladder = state.ladder[:pos] + ((d, r2),) + state.ladder[pos + 1 :]
        events.append(("raise", state.path, a, state.ladder, state.coefficient, [d, r, r2]))
        return (_State(a, ladder, state.coefficient, state.path),)
    # split: the raised corank is one below a_i
    if pos != len(state.ladder) - 1:
        # the displayed effectivity guard is the smallest-quadric instance;
        # splitting behind a frozen smaller quadric is outside its scope
        raise UnsupportedDegenerationError(
            "split on a non-smallest quadric %d^%d is not covered" % (d, r2)
        )
    a_i = a[split_i - 1]
    s = len(a)
    effective = split_i - 1 >= s + 1 - floor((d - r2) / 2)
    children = []
    if effective:
        ladder = state.ladder[:pos] + ((d - 1, r2 + 1),) + state.ladder[pos + 1 :]
        children.append(_State(a, ladder, state.coefficient, state.path + "1"))
    new_a = a[: split_i - 1] + (a_i - 1,) + a[split_i:]
    ladder = state.ladder[:pos] + ((d, r2),) + state.ladder[pos + 1 :]
    children.append(_State(new_a, ladder, state.coefficient, state.path + "2"))
    events.append(
        ("split", state.path, a, state.ladder, state.coefficient, [d, r, r2], a_i, effective)
    )
    return tuple(children)


def _run(space, seq, og_mode):
    """Terminal states and the trace; an unsupported state's error carries the
    events up to it as ``partial_trace``."""
    events = []
    terminals = []
    try:
        if not og_mode:
            for d, r in seq.ladder:
                if r > d - 3:
                    raise UnsupportedDegenerationError(
                        "starting quadric %d^%d is at or past the break state; the "
                        "two-component bookkeeping is not covered" % (d, r)
                    )
        stack = [_State(seq.isotropic, seq.ladder, 1, "r")]
        while stack:
            state = stack.pop()
            pos = _active_quadric(space, state, og_mode)
            if pos is None:
                terminals.append(state)
                events.append(
                    ("terminal", state.path, state.isotropic, state.ladder, state.coefficient)
                )
                continue
            children = degenerate_step(space, state, pos, og_mode, events)
            stack.extend(reversed(children))
    except UnsupportedDegenerationError as exc:
        exc.partial_trace = DegenerationTrace(space, tuple(events))
        raise
    return terminals, DegenerationTrace(space, tuple(events))


def expand(seq):
    """Expand a restriction sequence into orthogonal Schubert classes."""
    problems = [] if sequence_is_schubert(seq) else validate_sequence(seq)
    if problems:
        raise ValidationError(problems)
    terminals, trace = _run(seq.space, seq, og_mode=True)
    terms = {}
    for state in terminals:
        final = RestrictionSequence(
            space=seq.space, isotropic=state.isotropic, ladder=state.ladder
        )
        index = sequence_to_index(final)
        terms[index] = terms.get(index, 0) + state.coefficient
    return ChowClass.from_counter(seq.space, terms), trace


def og_to_grass(space, index):
    """Full type-A expansion of the push-forward of an OG class into G(k,n).

    ``schubert_to_sequence`` validates the index before anything else runs.
    Every quadric degenerates until it breaks, so each terminal state holds
    isotropic dimensions only."""
    seq = schubert_to_sequence(space, index)
    terminals, trace = _run(space, seq, og_mode=False)
    target = SpaceDescriptor(
        kind=SpaceKind.GRASS_A, steps=(space.top_step,), ambient=space.ambient
    )
    terms = {}
    for state in terminals:
        idx = plain_index(state.isotropic)
        check_valid(target, idx)
        terms[idx] = terms.get(idx, 0) + state.coefficient
    return ChowClass.from_counter(target, terms), trace
