"""Sugeno integral of an object under a capacity.

Two equivalent lattice polynomials are provided (a max of mins and a min of
maxes), together with their reduced forms for q-maxitive and q-minitive
capacities, which only visit subsets of bounded cardinality.  All results
are selections from the input values, so cross-formula agreement is exact.

Full evaluation builds a 2^n table per object and scans it: about 0.2 s
per object at n = 18 in CPython 3.11 on one Xeon core.  The reduced forms
visit the C(n, <=q) bounded subsets instead, about 0.3 ms per object at
n = 18, q = 2, but still read a full 2^n capacity table, and construction
caps n at ``MAX_CRITERIA`` = 24.  ``sugeno_qmax`` and ``sugeno_qmin`` also
check q-maxitivity (q-minitivity) on every call, a sweep of n * 2^(n-1)
steps; the ``_unchecked`` forms skip it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .capacity import Capacity, _check_q, is_q_maxitive, is_q_minitive
from .errors import DomainError
from .relational import SystemKind
from .subsets import full_mask


def _require_object(x: Sequence[float], mu: Capacity) -> tuple[float, ...]:
    coords = tuple(x)
    if len(coords) != mu.n:
        raise DomainError(f"object has {len(coords)} coordinates, capacity expects {mu.n}")
    for i, v in enumerate(coords):
        mu.scale.require(v, f"coordinate x{i + 1}")
    return coords


def _subset_table(coords: tuple[float, ...], op, empty: float) -> list[float]:
    """table[A] = op over the coordinates in A; the empty set holds ``empty``."""
    size = 1 << len(coords)
    table = [empty] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        v = coords[low.bit_length() - 1]
        table[mask] = v if rest == 0 else op(v, table[rest])
    return table


def _full(mu: Capacity, x: Sequence[float], kind: SystemKind) -> float:
    """join over subsets A of meet(the object's A-term, mu(A)).

    The A-term is the min of x inside A (max-min form) or the max of x
    outside A (min-max form); reading the table of maxima reversed visits
    the complements.  A zero result is reported as mu's value on the empty
    set, whichever zero the terms held.
    """
    order = kind.order
    table = _subset_table(_require_object(x, mu), order.meet, order.top)
    if order.dual:
        table.reverse()
    return order.join(map(order.meet, table, mu.values)) or mu.values[0]


def sugeno_maxmin(mu: Capacity, x: Sequence[float]) -> float:
    """max over subsets A of min(min of x inside A, mu(A))."""
    return _full(mu, x, SystemKind.MAX_MIN)


def sugeno_minmax(mu: Capacity, x: Sequence[float]) -> float:
    """min over subsets A of max(max of x outside A, mu(A)); equals sugeno_maxmin."""
    return _full(mu, x, SystemKind.MIN_MAX)


def _reduced(mu: Capacity, x: Sequence[float], q: int, kind: SystemKind) -> float:
    """The form of ``kind`` over the subsets a q-bounded capacity keeps.

    Max-min: nonempty subsets of cardinality <= q; min-max: proper subsets
    of cardinality >= n - q, enumerated by their nonempty complements of
    size <= q.  Visits C(n, <=q) subsets instead of 2^n; a zero result is
    reported as mu's value on the empty set, as in the full forms.
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


def sugeno_qmax(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced max-min form; requires mu to be q-maxitive."""
    if not is_q_maxitive(mu, q):
        raise DomainError(f"capacity is not {q}-maxitive; reduced evaluation is unsound")
    return sugeno_qmax_unchecked(mu, x, q)


def sugeno_qmin_unchecked(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced min-max form over proper subsets of cardinality >= n - q."""
    return _reduced(mu, x, q, SystemKind.MIN_MAX)


def sugeno_qmin(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced min-max form; requires mu to be q-minitive."""
    if not is_q_minitive(mu, q):
        raise DomainError(f"capacity is not {q}-minitive; reduced evaluation is unsound")
    return sugeno_qmin_unchecked(mu, x, q)
