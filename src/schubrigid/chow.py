"""Type-A Grassmannian Chow-ring engine: the ground-truth oracle.

Products run internally in partition (lambda) notation.  ``lr_expand``
yields every term of s_lam * s_mu with its Littlewood-Richardson
coefficient in one pass: it fills the smaller partition's content into the
larger one label by label, each label a horizontal strip obeying the
lattice condition, iteratively and without recursion.  The states it
keeps are bounded by ``enumeration_cap()`` (EnumerationCapError,
exit 2).  ``product_indices`` answers zero products by the exact
zero-product criterion before expanding.  The special-class (Pieri chain)
multiplication is exposed separately, so that the routes can be
cross-checked against each other; ``checks`` also checks the expansion
against Jacobi-Trudi determinants of Pieri steps.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EnumerationCapError, SpaceMismatchError, ValidationError
from .indices import (
    ChowClass,
    SpaceKind,
    check_valid,
    dimension,
    enumeration_cap,
    index_from_lambda,
    lambda_notation,
    plain_index,
)


def _require_grass(space):
    if space.kind is not SpaceKind.GRASS_A:
        raise SpaceMismatchError("Chow oracle operations need a G(k,n) space")


def is_zero_product(space, idx_a, idx_b):
    """True iff sigma_a . sigma_b = 0, i.e. a_i + b_{k-i+1} <= n for some i."""
    _require_grass(space)
    check_valid(space, idx_a)
    check_valid(space, idx_b)
    return _vanishes(space, idx_a, idx_b)


def _strip(partition):
    out = list(partition)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def lr_expand(lam, mu, outer):
    """Every nu inside ``outer`` with c^nu_{lam,mu} != 0, as ``{nu: c}``.

    The partition ``outer`` caps each row (for G(k,n): k rows of n-k), and
    each nu comes back padded to ``len(outer)`` rows.  The smaller of lam
    and mu is the content: its rows go into the other one label by label,
    each as a horizontal strip, and label j+1 obeys the lattice condition
    row by row against label j (the j+1's in rows <= r never outnumber the
    j's in rows < r).  That counts LR tableaux by their reverse reading
    words, one layer of states per label.  A state is the shape so far
    plus, per row r, how many cells the next label may take in rows <= r
    (capped at its size), and equal states merge with their counts added.
    The last label goes straight into the result.  Raises
    EnumerationCapError once the states kept exceed ``enumeration_cap()``.
    """
    lam, mu = _strip(lam), _strip(mu)
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    rows = len(outer)
    if len(lam) > rows or any(l > o for l, o in zip(lam, outer)):
        return {}
    shape = lam + (0,) * (rows - len(lam))
    if not mu:
        return {shape: 1}
    if len(mu) > rows or mu[0] > outer[0]:  # so every state value is <= outer[0]
        return {}
    cap = enumeration_cap()
    # bytes keep a state in one small object; tuples take parts over 255
    pack = bytes if outer[0] < 256 else tuple
    layer = {pack(shape + (mu[0],) * rows): 1}
    kept = 1
    adds = [0] * rows
    highs = [0] * rows
    used = [0] * (rows + 1)  # cells of this strip in rows < r
    room = [0] * rows
    slack = [0] * (rows + 1)  # cells that still fit in rows >= r
    last = len(mu) - 1
    for label, size in enumerate(mu):
        bound = mu[label + 1] if label < last else 0
        result = {}
        while layer:  # popping frees each state once it is spent
            key, count = layer.popitem()
            for r in range(rows - 1, -1, -1):
                room[r] = (outer[r] if r == 0 else min(outer[r], key[r - 1])) - key[r]
                slack[r] = slack[r + 1] + room[r]
            if size > slack[0]:
                continue
            # odometer over the strip's row lengths adds[0..rows-1]
            r = 0
            while True:
                if r < rows:
                    rem = size - used[r]
                    hi = min(room[r], rem, key[rows + r] - used[r])
                    lo = rem - slack[r + 1]
                    if lo < 0:
                        lo = 0
                    if lo <= hi:
                        adds[r] = lo
                        highs[r] = hi
                        used[r + 1] = used[r] + lo
                        r += 1
                        continue
                else:
                    new = [key[i] + adds[i] for i in range(rows)]
                    if label < last:
                        new += [u if u < bound else bound for u in used[:rows]]
                    nu = pack(new)
                    result[nu] = result.get(nu, 0) + count
                r -= 1
                while r >= 0 and adds[r] == highs[r]:
                    r -= 1
                if r < 0:
                    break
                adds[r] += 1
                used[r + 1] += 1
                r += 1
            if kept + len(result) > cap:
                raise EnumerationCapError(
                    "Littlewood-Richardson states exceed cap %d" % cap
                )
        kept += len(result)
        layer = result
    return {tuple(nu): c for nu, c in layer.items()}


def _vanishes(space, idx_a, idx_b):
    n, k = space.ambient, space.top_step
    return any(idx_a.a[i] + idx_b.a[k - i - 1] <= n for i in range(k))


def product_indices(space, idx_a, idx_b):
    """Schubert-basis expansion of sigma_a . sigma_b in G(k,n)."""
    _require_grass(space)
    check_valid(space, idx_a)
    check_valid(space, idx_b)
    if _vanishes(space, idx_a, idx_b):
        return ChowClass.zero(space)
    n, k = space.ambient, space.top_step
    terms = lr_expand(
        lambda_notation(space, idx_a), lambda_notation(space, idx_b), (n - k,) * k
    )
    return ChowClass.from_counter(
        space, {index_from_lambda(space, nu): c for nu, c in terms.items()}
    )


def product(space, cls_a, cls_b):
    """Bilinear extension of ``product_indices`` to formal combinations."""
    if cls_a.space != space or cls_b.space != space:
        raise SpaceMismatchError("classes must live on the given space")
    out = Counter()
    for idx_a, c_a in cls_a.terms:
        for idx_b, c_b in cls_b.terms:
            for idx, c in product_indices(space, idx_a, idx_b).terms:
                out[idx] += c_a * c_b * c
    return ChowClass.from_counter(space, out)


@dataclass(frozen=True)
class PairingResult:
    value: int
    complementary: bool


def pairing(space, idx_a, idx_b):
    """Coefficient of the point class in sigma_a . sigma_b.

    1 exactly when the indices are Poincare dual; value 0 with the
    ``complementary`` flag cleared when the dimensions do not add up.
    """
    _require_grass(space)
    n, k = space.ambient, space.top_step
    complementary = dimension(space, idx_a) + dimension(space, idx_b) == k * (n - k)
    if not complementary:
        return PairingResult(value=0, complementary=False)
    point = plain_index(tuple(range(1, k + 1)))
    value = product_indices(space, idx_a, idx_b).coefficient(point)
    return PairingResult(value=value, complementary=True)


def special_class(space, c):
    """The Schubert class sigma_{n-c+1, n-k+2, ..., n} used in Pieri chains."""
    n, k = space.ambient, space.top_step
    if not k <= c <= n:
        raise ValidationError(["pieri parameter c must satisfy k <= c <= n"])
    return plain_index((n - c + 1,) + tuple(range(n - k + 2, n + 1)))


def pieri_chain_class(space, idx, c):
    """Multiply sigma_idx by the special class for ``c`` via the Pieri rule.

    Horizontal-strip enumeration, independent of the LR engine.  At c = a_k
    the result collapses to the single index (1, a_1+1, ..., a_{k-1}+1); for
    c > a_k the product vanishes.
    """
    _require_grass(space)
    check_valid(space, idx)
    n, k = space.ambient, space.top_step
    special_class(space, c)  # range check
    m = c - k  # single-row partition being multiplied in
    lam = lambda_notation(space, idx)
    out = Counter()
    for nu in _horizontal_strips(lam, m, n - k):
        out[index_from_lambda(space, nu)] += 1
    return ChowClass.from_counter(space, out)


def _horizontal_strips(lam, m, max_part):
    """Partitions nu >= lam with nu/lam a horizontal m-strip inside the box."""
    k = len(lam)

    def rec(row, left):
        if row == k:
            if left == 0:
                yield ()
            return
        upper = max_part if row == 0 else lam[row - 1]
        lo = lam[row]
        for value in range(lo, min(upper, lo + left) + 1):
            for rest in rec(row + 1, left - (value - lo)):
                yield (value,) + rest

    # each row is capped by lam's row above, so every nu is a partition
    yield from rec(0, m)
