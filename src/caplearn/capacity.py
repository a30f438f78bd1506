"""Capacities: monotone set functions on criteria subsets, with their
structural predicates (axioms, q-maxitivity, q-minitivity, conjugation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .relational import SystemKind
from .scale import Scale, iota
from .subsets import (
    check_criteria_count,
    check_mask,
    complement,
    add_one_bit,
    full_mask,
    masks_of_sizes,
    subset_label,
)


@dataclass(frozen=True)
class Capacity:
    """A set function on 2^C stored as a table indexed by subset mask.

    Construction validates the shape and scale membership of every entry;
    the capacity axioms (boundary values and monotonicity) are diagnosed
    separately by :func:`capacity_violations` so that suspect tables can be
    inspected rather than rejected outright.
    """

    n: int
    scale: Scale
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        check_criteria_count(self.n)
        size = 1 << self.n
        if len(self.values) != size:
            raise DomainError(
                f"capacity on {self.n} criteria needs {size} values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if self.scale.contains_all(self.values):
            return
        # some value is off-scale: find the first one and name its subset
        for mask, v in enumerate(self.values):
            self.scale.require(v, f"value of {subset_label(mask)}")

    def __getitem__(self, mask: int) -> float:
        return self.values[check_mask(mask, self.n)]

    @property
    def full(self) -> int:
        return full_mask(self.n)


def conjugate(mu: Capacity) -> Capacity:
    """The conjugate capacity: negate the value of the complementary subset."""
    values = tuple(
        iota(mu.scale, mu.values[complement(mask, mu.n)]) for mask in range(1 << mu.n)
    )
    return Capacity(mu.n, mu.scale, values)


def capacity_violations(
    values: Sequence[float], n: int, scale: Scale | None = None
) -> list[str]:
    """All boundary and monotonicity violations of a candidate table.

    Monotonicity is checked on covering pairs (A, A + {i}) only, which is
    sufficient and keeps the scan at n * 2^(n-1) comparisons.  Every
    violation is reported, not just the first, so callers can show a full
    diagnostic.
    """
    check_criteria_count(n)
    size = 1 << n
    out: list[str] = []
    if len(values) != size:
        return [f"expected {size} values for n={n}, got {len(values)}"]
    if scale is not None:
        for mask, v in enumerate(values):
            if not scale.contains(v):
                out.append(f"value({subset_label(mask)}) = {v!r} is not on the scale")
    if values[0] != 0.0:
        out.append(f"value of the empty set must be 0, got {values[0]!r}")
    top = size - 1
    if values[top] != 1.0:
        out.append(f"value of the full set must be 1, got {values[top]!r}")
    for mask in range(size):
        for bigger in add_one_bit(mask, n):
            if values[mask] > values[bigger]:
                out.append(
                    f"monotonicity violated: value({subset_label(mask)}) = {values[mask]!r}"
                    f" > value({subset_label(bigger)}) = {values[bigger]!r}"
                )
    return out


def is_capacity(values: Sequence[float], n: int, scale: Scale | None = None) -> bool:
    return not capacity_violations(values, n, scale)


def _check_q(q: int, n: int) -> int:
    if not isinstance(q, int) or not 1 <= q <= n:
        raise DomainError(f"q must be an integer in 1..{n}, got {q!r}")
    return q


def _bit_slices(n: int, bit: int) -> list[tuple[slice, slice]]:
    """Slice pairs (masks without ``bit``, the same masks with it) covering 2^n.

    Low bits use few long strided slices, high bits few contiguous blocks,
    so a pass costs at most about 2^(n/2) slice operations.
    """
    size, step = 1 << n, 1 << bit
    if step * step < size:
        return [
            (slice(off, size, 2 * step), slice(off + step, size, 2 * step))
            for off in range(step)
        ]
    return [
        (slice(start, start + step), slice(start + step, start + 2 * step))
        for start in range(0, size, 2 * step)
    ]


def _max_over_small_subsets(values: Sequence[float], n: int, q: int) -> list[float]:
    """Table of max{values[Y] : Y subset of X, |Y| <= q}, for every X.

    Entries at cardinality <= q hold values[X] itself; a larger X takes the
    max over its size-q subsets (the only ones that reach it through the
    covering chain).  Computed by one sweep over the bits, high to low,
    seeded with the size-q layer: n * 2^(n-1) binary maxes, each taking the
    neighbour without the bit as first operand, which reproduces the tie
    choices (the sign of a zero) of the covering recursion.
    """
    out = [-math.inf] * (1 << n)
    for mask in masks_of_sizes(n, (q,)):
        out[mask] = values[mask]
    for bit in reversed(range(n)):
        for lo, hi in _bit_slices(n, bit):
            # max(a, b), inlined: b only when strictly greater
            out[hi] = [b if b > a else a for a, b in zip(out[lo], out[hi])]
    for mask in masks_of_sizes(n, range(q)):
        out[mask] = values[mask]
    return out


def extend_layer(values: Sequence[float], n: int, q: int, kind: SystemKind) -> list[float]:
    """Extend a table from its boundary layer, in the order of ``kind``.

    Max-min: max{values[Y] : Y subset of X, |Y| <= q}, the q-maxitive
    extension.  Min-max: min{values[Y] : Y superset of X, |Y| >= n - q},
    the q-minitive one.  The min-max side is the max-min sweep on the table
    read by complements (reversed) and negated, both exact, so the signs of
    zeros come out as the dual covering recursion gives them.
    """
    if not kind.order.dual:
        return _max_over_small_subsets(values, n, q)
    flipped = _max_over_small_subsets([-v for v in reversed(values)], n, q)
    return [-v for v in reversed(flipped)]


def _is_q_extension(mu: Capacity, q: int, kind: SystemKind) -> bool:
    _check_q(q, mu.n)
    return extend_layer(mu.values, mu.n, q, kind) == list(mu.values)


def is_q_maxitive(mu: Capacity, q: int) -> bool:
    """True iff values above cardinality q are the max of their small subsets.

    Every capacity is n-maxitive, so q = n always returns True.
    """
    return _is_q_extension(mu, q, SystemKind.MAX_MIN)


def is_q_minitive(mu: Capacity, q: int) -> bool:
    """True iff values below cardinality n - q are the min of their large supersets.

    Dual of :func:`is_q_maxitive`: a capacity is q-minitive exactly when its
    conjugate is q-maxitive.
    """
    return _is_q_extension(mu, q, SystemKind.MIN_MAX)
