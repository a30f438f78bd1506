"""Sugeno integral of an object under a capacity.

Two equivalent lattice polynomials are provided (a max of mins and a min of
maxes), together with their reduced forms for q-maxitive and q-minitive
capacities.  All results are selections from the input values, so
cross-formula agreement is exact.

The full forms read the chain of level sets: one scale check and one sort,
then n table reads, O(n log n) per object, about 5 us at n = 9 and 8 us at
n = 18 (CPython 3.11, one Xeon core).  ``integrals`` scores a list of
objects in both forms with one scale check for the list and one sort per
object, about 5 us per object and both forms at n = 9, 9.5 us at n = 18.
They equal the definition over all 2^n subsets only when ``mu`` is a
capacity (normalised and monotone); ``Capacity`` does not enforce that,
and ``caplearn eval`` refuses a table that is not one.  Every form reports
a zero result as mu's value on the empty set.  The reduced forms visit the
C(n, <=q) bounded subsets, about 0.3 ms per object at n = 18, q = 2.

``sugeno_qmax`` and ``sugeno_qmin`` score a q-maxitive (q-minitive)
table, a monotone q-extension, by the chain form, since there the chain
form and the reduced form are the same join; any other table, one that is
not monotone included, raises on every call.  ``capacity._classify``
decides the q-check in one pass on packed level codes of about q * 2^n
field merges for small q (n * 2^n at most), and the capacity keeps the
answer per q and order, so scoring many objects checks once.  The
``_unchecked`` forms skip the check and always take the reduced form.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

from .capacity import Capacity, _check_q, is_q_maxitive, is_q_minitive
from .errors import DomainError
from .relational import Order, SystemKind
from .subsets import full_mask


def _require_object(x: Sequence[float], mu: Capacity) -> tuple[float, ...]:
    coords = tuple(x)
    if len(coords) != mu.n:
        raise DomainError(f"object has {len(coords)} coordinates, capacity expects {mu.n}")
    return mu.scale.require_floats(coords, lambda i: f"coordinate x{i + 1}")


def _ranking(coords: Sequence[float]) -> list[int]:
    """The criteria by descending coordinate, ties in criterion order."""
    return sorted(range(len(coords)), key=coords.__getitem__, reverse=True)


def _chain(
    values: Sequence[float], coords: Sequence[float], ranking: Sequence[int], order: Order
) -> float:
    """join over the chain of level sets of meet(coordinate, values[level set]).

    Max-min reads ``ranking`` (:func:`_ranking`) descending and the table
    on each prefix; min-max reads it reversed and the table on the
    complement of each prefix.  A meet keeps the coordinate on a tie, and
    the join the first of equal terms, as builtin min and max do.  Equals
    the join over all 2^n subsets, up to the sign of a zero, when the table
    is monotone.
    """
    le = order.le
    mask = full_mask(len(coords)) if order.dual else 0
    best = order.bottom
    for i in reversed(ranking) if order.dual else ranking:
        mask ^= 1 << i
        c, v = coords[i], values[mask]
        term = c if le(c, v) else v
        if not le(term, best):
            best = term
    return best


def sugeno_maxmin(mu: Capacity, x: Sequence[float]) -> float:
    """max over subsets A of min(min of x inside A, mu(A)), by the chain form."""
    coords = _require_object(x, mu)
    return _chain(mu.values, coords, _ranking(coords), SystemKind.MAX_MIN.order) or mu.values[0]


def sugeno_minmax(mu: Capacity, x: Sequence[float]) -> float:
    """min over subsets A of max(max of x outside A, mu(A)); equals sugeno_maxmin."""
    coords = _require_object(x, mu)
    return _chain(mu.values, coords, _ranking(coords), SystemKind.MIN_MAX.order) or mu.values[0]


def integrals(mu: Capacity, objects: Iterable[Sequence[float]]) -> list[tuple[float, float]]:
    """(:func:`sugeno_maxmin`, :func:`sugeno_minmax`) of each object.

    One scale check over all coordinates, then one ranking per object that
    both walks read.  When some object is refused, the first one is named
    as ``item k`` with the message the one-object forms give.
    """
    rows = [tuple(x) for x in objects]
    n, values = mu.n, mu.values
    floats = None
    if all(len(row) == n for row in rows):
        floats = mu.scale.floats(chain.from_iterable(rows))
    if floats is None:  # some row is refused; name the first
        for k, row in enumerate(rows):
            try:
                _require_object(row, mu)
            except DomainError as exc:
                raise DomainError(f"item {k}: {exc}") from exc
    maxmin, minmax = SystemKind.MAX_MIN.order, SystemKind.MIN_MAX.order
    scores = []
    for start in range(0, len(floats), n):
        coords = floats[start:start + n]
        ranking = _ranking(coords)
        scores.append((
            _chain(values, coords, ranking, maxmin) or values[0],
            _chain(values, coords, ranking, minmax) or values[0],
        ))
    return scores


def _reduced(mu: Capacity, x: Sequence[float], q: int, kind: SystemKind) -> float:
    """The form of ``kind`` over the subsets a q-bounded capacity keeps.

    Max-min: nonempty subsets of cardinality <= q; min-max: proper subsets
    of cardinality >= n - q, enumerated by their nonempty complements of
    size <= q.  Visits C(n, <=q) subsets.
    """
    _check_q(q, mu.n)
    coords = _require_object(x, mu)
    order = kind.order
    join, meet = order.join, order.meet
    flip = full_mask(mu.n) if order.dual else 0
    best = order.bottom
    for size in range(1, q + 1):
        for combo in combinations(range(mu.n), size):
            mask = flip
            for i in combo:
                mask ^= 1 << i
            term = meet(meet(coords[i] for i in combo), mu.values[mask])
            best = join(best, term)
    return best or mu.values[0]


def sugeno_qmax_unchecked(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced max-min form over nonempty subsets of cardinality <= q.

    Skips the q-maxitivity check; on a capacity that is not q-maxitive the
    result is well-defined but need not equal the full integral.
    """
    return _reduced(mu, x, q, SystemKind.MAX_MIN)


def _checked(mu: Capacity, x: Sequence[float], q: int, kind: SystemKind) -> float:
    """The integral of ``kind`` on a q-bounded mu by the chain form, which
    equals the reduced form there; refused, through the q-check of
    ``kind``, unless mu is q-maxitive (q-minitive for min-max)."""
    if kind.order.dual:
        holds, what, chain = is_q_minitive, "minitive", sugeno_minmax
    else:
        holds, what, chain = is_q_maxitive, "maxitive", sugeno_maxmin
    if not holds(mu, q):
        raise DomainError(f"capacity is not {q}-{what}; reduced evaluation is unsound")
    return chain(mu, x)


def sugeno_qmax(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Max-min integral of a q-maxitive mu, by :func:`_checked`."""
    return _checked(mu, x, q, SystemKind.MAX_MIN)


def sugeno_qmin_unchecked(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced min-max form over proper subsets of cardinality >= n - q."""
    return _reduced(mu, x, q, SystemKind.MIN_MAX)


def sugeno_qmin(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Min-max integral of a q-minitive mu, by :func:`_checked`."""
    return _checked(mu, x, q, SystemKind.MIN_MAX)
