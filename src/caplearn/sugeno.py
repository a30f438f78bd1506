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
from .subsets import complement, full_mask


def _require_object(x: Sequence[float], mu: Capacity) -> tuple[float, ...]:
    coords = tuple(x)
    if len(coords) != mu.n:
        raise DomainError(f"object has {len(coords)} coordinates, capacity expects {mu.n}")
    for i, v in enumerate(coords):
        mu.scale.require(v, f"coordinate x{i + 1}")
    return coords


def _min_table(coords: tuple[float, ...]) -> list[float]:
    """mins[A] = min of coordinates in A; the empty min is 1 (lattice top)."""
    size = 1 << len(coords)
    mins = [1.0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        v = coords[low.bit_length() - 1]
        mins[mask] = v if rest == 0 else min(v, mins[rest])
    return mins


def _max_table(coords: tuple[float, ...]) -> list[float]:
    """maxs[A] = max of coordinates in A; the empty max is 0 (lattice bottom)."""
    size = 1 << len(coords)
    maxs = [0.0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        v = coords[low.bit_length() - 1]
        maxs[mask] = v if rest == 0 else max(v, maxs[rest])
    return maxs


def sugeno_maxmin(mu: Capacity, x: Sequence[float]) -> float:
    """max over subsets A of min(min of x inside A, mu(A))."""
    coords = _require_object(x, mu)
    mins = _min_table(coords)
    return max(min(mins[mask], mu.values[mask]) for mask in range(1 << mu.n))


def sugeno_minmax(mu: Capacity, x: Sequence[float]) -> float:
    """min over subsets A of max(max of x outside A, mu(A)); equals sugeno_maxmin."""
    coords = _require_object(x, mu)
    maxs = _max_table(coords)
    n = mu.n
    return min(
        max(maxs[complement(mask, n)], mu.values[mask]) for mask in range(1 << n)
    )


def sugeno_qmax_unchecked(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced max-min form over nonempty subsets of cardinality <= q.

    Visits only the bounded-cardinality subsets, which is the point of the
    reduction: sum of C(n, c) terms instead of 2^n.  Skips the
    q-maxitivity check; on a capacity that is not q-maxitive the result is
    well-defined but need not equal the full integral.
    """
    _check_q(q, mu.n)
    coords = _require_object(x, mu)
    best = 0.0
    for size in range(1, q + 1):
        for combo in combinations(range(mu.n), size):
            inner = min(coords[i] for i in combo)
            mask = 0
            for i in combo:
                mask |= 1 << i
            term = min(inner, mu.values[mask])
            if term > best:
                best = term
    return best


def sugeno_qmax(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced max-min form; requires mu to be q-maxitive."""
    if not is_q_maxitive(mu, q):
        raise DomainError(f"capacity is not {q}-maxitive; reduced evaluation is unsound")
    return sugeno_qmax_unchecked(mu, x, q)


def sugeno_qmin_unchecked(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced min-max form over proper subsets of cardinality >= n - q.

    Enumerates by nonempty complement of size <= q, mirroring the max-min
    reduction's cost.
    """
    _check_q(q, mu.n)
    coords = _require_object(x, mu)
    full = full_mask(mu.n)
    best = 1.0
    for size in range(1, q + 1):
        for combo in combinations(range(mu.n), size):
            outer = max(coords[i] for i in combo)
            mask = full
            for i in combo:
                mask ^= 1 << i
            term = max(outer, mu.values[mask])
            if term < best:
                best = term
    return best


def sugeno_qmin(mu: Capacity, x: Sequence[float], q: int) -> float:
    """Reduced min-max form; requires mu to be q-minitive."""
    if not is_q_minitive(mu, q):
        raise DomainError(f"capacity is not {q}-minitive; reduced evaluation is unsound")
    return sugeno_qmin_unchecked(mu, x, q)
