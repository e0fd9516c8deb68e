"""Push-forwards along the canonical projections pi_t and generic-fiber classes.

The push-forward of a Schubert class is computed by the removal rule: drop
every sub-index whose block label exceeds the projection level.  Fiber classes
are returned as indices in the *same* flag space — they are classes of fibers
embedded as subvarieties, which is how they enter intersection arguments.
"""
from __future__ import annotations

from .errors import UnsupportedKindError, ValidationError
from .indices import (
    SchubertIndex,
    SpaceDescriptor,
    SpaceKind,
    check_valid,
    flagged_index,
    flagged_pair_index,
    rank_table,
)


def _check_level(space, t):
    if not 1 <= t <= space.blocks:
        raise ValidationError(["projection level %s outside 1..%d" % (t, space.blocks)])


def target_space(space, t):
    """G/OG/SG(d_t, n) — the target of the t-th canonical projection."""
    _check_level(space, t)
    targets = {
        SpaceKind.FLAG_A: SpaceKind.GRASS_A,
        SpaceKind.FLAG_ORTH: SpaceKind.GRASS_ORTH,
        SpaceKind.FLAG_SYMP: SpaceKind.GRASS_SYMP,
    }
    if space.kind not in targets:
        raise UnsupportedKindError("projections are defined on flag spaces")
    d_t = space.steps[t - 1]
    component = None
    if space.kind is SpaceKind.FLAG_ORTH and space.ambient == 2 * d_t:
        component = space.component_choice
    return SpaceDescriptor(
        kind=targets[space.kind],
        steps=(d_t,),
        ambient=space.ambient,
        component_choice=component,
    )


def pushforward_flag(space, index, t):
    """The image under pi_t of an F, OF or SF class, by the removal rule:
    keep the entries whose block label is at most t.  On SF the rule is
    unverified by oracle."""
    if not space.kind.is_flag:
        raise UnsupportedKindError("pushforward_flag needs an F, OF or SF index")
    check_valid(space, index)
    # target_space checks the level before the rule runs
    return check_valid(target_space(space, t), remove_above(index, t))


def remove_above(index, t):
    """The removal rule, unchecked: the image under pi_t of a valid flagged index.

    Every entry whose block label exceeds t is dropped; labels go with it.
    """
    a = tuple(v for v, al in zip(index.a, index.alpha) if al <= t)
    if index.b is None:
        return SchubertIndex(a=a)
    return SchubertIndex(a=a, b=tuple(v for v, be in zip(index.b, index.beta) if be <= t))


def fiber_class_top(space, index):
    """Class of a general fiber of pi_k: the full sub-flag pattern (1,...,d_k)."""
    if space.kind is not SpaceKind.FLAG_A:
        raise UnsupportedKindError("fiber classes are computed for FlaggedA indices")
    check_valid(space, index)
    return flagged_index((i, al) for i, al in enumerate(index.alpha, start=1))


def fiber_class_bottom(space, index):
    return fiber_class_mid(space, index, 1)


def fiber_class_mid(space, index, t):
    """Class of a general fiber of pi_t over its image.

    First d_t entries are the pinned sub-flag (value j, label of the j-th
    kept entry); each removed entry a''_u grows by the number of kept
    first-t-block values above it.
    """
    if space.kind is not SpaceKind.FLAG_A:
        raise UnsupportedKindError("fiber classes are computed for FlaggedA indices")
    check_valid(space, index)
    _check_level(space, t)
    kept = [(a, al) for a, al in zip(index.a, index.alpha) if al <= t]
    removed = [(a, al) for a, al in zip(index.a, index.alpha) if al > t]
    entries = [(j, al) for j, (_, al) in enumerate(kept, start=1)]
    for value, label in removed:
        bump = sum(1 for a, _ in kept if a > value)
        entries.append((value + bump, label))
    result = flagged_index(entries)
    check_valid(space, result)
    return result


def fiber_class_orth(space, index, m):
    """Class of a general fiber of pi_m on an orthogonal flag Schubert class.

    Entries landing inside the pinned step become rank-table reads (mu / nu);
    the remaining ones are shifted by the span bookkeeping counters y, z, h.
    Upper indices are carried over from the source entries, and both output
    parts are re-sorted ascending.
    """
    if space.kind is not SpaceKind.FLAG_ORTH:
        raise UnsupportedKindError("fiber_class_orth needs a FlaggedOrthPair")
    check_valid(space, index)
    _check_level(space, m)
    table = rank_table(space, index)
    s = index.s
    mu_s_m = table.mu[s - 1][m - 1] if s else 0
    a_out = []
    b_out = []
    for i, (a_i, al) in enumerate(zip(index.a, index.alpha), start=1):
        if al <= m:
            a_out.append((table.mu[i - 1][m - 1], al))
        else:
            value = a_i + mu_s_m - table.mu[i - 1][m - 1] + table.h(i, m)
            a_out.append((value, al))
    for j, (b_j, be) in enumerate(zip(index.b, index.beta), start=1):
        if be <= m:
            a_out.append((table.nu[j - 1][m - 1], be))
        else:
            b_out.append((b_j + table.y(j, m) + table.z(j, m), be))
    a_out.sort(key=lambda entry: entry[0])
    b_out.sort(key=lambda entry: entry[0])
    result = flagged_pair_index(a_out, b_out)
    check_valid(space, result)
    return result
