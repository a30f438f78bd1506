"""Capacities: monotone set functions on criteria subsets, with their
structural predicates (axioms, q-maxitivity, q-minitivity).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import DomainError
from .relational import SystemKind
from .scale import Scale
from .subsets import (
    check_criteria_count,
    check_mask,
    add_one_bit,
    masks_of_sizes,
    subset_label,
)


class Scoring(Enum):
    """How the q-checked integrals score a table at one q and order."""

    CHAIN = "chain"  # a monotone q-extension: the chain form
    REDUCED = "reduced"  # a q-extension that is not monotone: the reduced form
    REFUSED = "refused"  # not its own extension from layer q


@dataclass(frozen=True)
class Capacity:
    """A set function on 2^C stored as a table indexed by subset mask.

    Construction validates the shape of the table and keeps the floats
    that :meth:`Scale.require_floats` returns for it; the capacity axioms
    (boundary values and monotonicity) are diagnosed separately by
    :func:`capacity_violations` so that suspect tables can be inspected
    rather than rejected outright.

    The q-checks remember per (q, order) in ``_scoring`` how the checked
    integrals score the table (:class:`Scoring`); the memo takes no part in
    ``==``, ``hash`` or ``repr``.  The table is immutable, so one
    classification per q and order settles it.
    """

    n: int
    scale: Scale
    values: tuple[float, ...]
    _scoring: dict[tuple, Scoring] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        check_criteria_count(self.n)
        size = 1 << self.n
        values = tuple(self.values)
        if len(values) != size:
            raise DomainError(
                f"capacity on {self.n} criteria needs {size} values, got {len(values)}"
            )
        values = self.scale.require_floats(values, lambda mask: f"value of {subset_label(mask)}")
        object.__setattr__(self, "values", values)

    def __getitem__(self, mask: int) -> float:
        return self.values[check_mask(mask, self.n)]


def capacity_violations(values: Sequence[float], n: int) -> list[str]:
    """All boundary and monotonicity violations of a candidate table.

    Monotonicity is checked on covering pairs (A, A + {i}) only, which is
    sufficient and keeps the scan at n * 2^(n-1) comparisons.  Every
    violation is reported, not just the first, so callers can show a full
    diagnostic.  A clean table is proved clean in bulk (one comparison map
    per bit slice); only a table with some violation is scanned pair by
    pair to list them.  Scale membership is :class:`Capacity`'s check.
    """
    check_criteria_count(n)
    size = 1 << n
    out: list[str] = []
    if len(values) != size:
        return [f"expected {size} values for n={n}, got {len(values)}"]
    if values[0] == 0.0 and values[size - 1] == 1.0 and _is_monotone(values, n):
        return out
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


def _check_q(q: int, n: int) -> int:
    if isinstance(q, bool) or not isinstance(q, int) or not 1 <= q <= n:
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


def _is_monotone(values: Sequence[float], n: int) -> bool:
    """No covering pair (A, A + {i}) decreases, in bulk: one comparison map
    per bit slice, n * 2^(n-1) comparisons at C speed."""
    return not any(
        any(map(operator.gt, values[lo], values[hi]))
        for bit in range(n)
        for lo, hi in _bit_slices(n, bit)
    )


def _few_below(n: int, q: int) -> bool:
    """Whether the masks of size below q are at most half of the 2^n: then a
    walk over them beats a pass over the whole table."""
    return 2 * sum(map(math.comb, [n] * q, range(q))) <= 1 << n


def _subset_max_sweep(out: list, n: int) -> list:
    """``out`` made in place max{out[Y] : Y subset of X}: n * 2^(n-1) binary
    maxes, bits high to low, a tie keeping the smaller set's value."""
    for bit in reversed(range(n)):
        for lo, hi in _bit_slices(n, bit):
            # max(a, b), inlined: b only when strictly greater
            out[hi] = [b if b > a else a for a, b in zip(out[lo], out[hi])]
    return out


def _layer_max(f: Sequence[float], m: int, q: int, low: int) -> list:
    """out[A] = max of f over the subsets of A on m bits whose size lies in
    [low, q], -inf when A has none; a tie keeps the value found without bit
    0, then bit 1, as the seeded sweep does.

    Masks without bit 0 are the same problem on the even entries; a mask
    with it takes the better of that and the problem on the odd entries
    with both sizes one less, which at q = 1 is the constant f[1].  That
    costs about q * 2^m merges, so while 3q <= m it beats the sweep's
    m * 2^(m-1) steps, which take the node otherwise, seeded with the
    entries of size in [low, q] and -inf elsewhere.
    """
    if 3 * q > m:
        out = [v if low <= mask.bit_count() <= q else -math.inf for mask, v in enumerate(f)]
        return _subset_max_sweep(out, m)
    a = _layer_max(f[0::2], m - 1, q, low)
    out = a + a
    out[0::2] = a
    # max(a, b), inlined: b only when strictly greater
    if q == 1:
        b = f[1]
        out[1::2] = [b if b > x else x for x in a]
    else:
        b = _layer_max(f[1::2], m - 1, q - 1, low - 1)
        out[1::2] = [y if y > x else x for x, y in zip(a, b)]
    return out


def extend_layer(values: Sequence[float], n: int, q: int, kind: SystemKind) -> list[float]:
    """Extend a table from its boundary layer, in the order of ``kind``.

    Max-min, the q-maxitive extension: values[X] up to cardinality q, and
    above it the max over the size-q subsets, by :func:`_layer_max` in
    about q * 2^n steps for small q (n * 2^(n-1) at most), with ties (the
    sign of a zero) as in the covering recursion.  Min-max, the q-minitive
    one: the same on the table read by complements (reversed) and negated,
    both exact, so zeros keep the dual's signs.
    """
    if kind.order.dual:
        values = [-v for v in reversed(values)]
    out = _layer_max(values, n, q, q)
    # sizes below q keep their values: copy whichever side has fewer masks
    low = _few_below(n, q)
    source, out = (values, out) if low else (out, list(values))
    for mask in masks_of_sizes(n, range(q) if low else range(q, n + 1)):
        out[mask] = source[mask]
    return [-v for v in reversed(out)] if kind.order.dual else out


def _classify(values: Sequence[float], n: int, q: int, kind: SystemKind) -> Scoring:
    """How the q-checked integral of ``kind`` scores a table.

    A table equals the max over its subsets of size up to q (read negated
    by complements for min-max, as :func:`extend_layer` reads it) exactly
    when it is a monotone q-extension, so one :func:`_layer_max` pass
    settles the chain form.  A table that fails it keeps the reduced form
    when it equals its extension from layer q (then it is not monotone, so
    not a capacity) and is refused otherwise.  At q = n every table is a
    q-extension and the bulk monotonicity pass alone decides.
    """
    if q == n:
        return Scoring.CHAIN if _is_monotone(values, n) else Scoring.REDUCED
    seen = [-v for v in reversed(values)] if kind.order.dual else list(values)
    if _layer_max(seen, n, q, 0) == seen:
        return Scoring.CHAIN
    if extend_layer(values, n, q, kind) == list(values):
        return Scoring.REDUCED
    return Scoring.REFUSED


def _q_scoring(mu: Capacity, q: int, kind: SystemKind) -> Scoring:
    """:func:`_classify` of mu, once per capacity, q and order; later calls
    read the answer it left in ``mu._scoring``, where ``learn`` also records
    the chain form for the capacity it returns."""
    key = (_check_q(q, mu.n), kind)
    if key not in mu._scoring:
        mu._scoring[key] = _classify(mu.values, mu.n, q, kind)
    return mu._scoring[key]


def _is_q_extension(mu: Capacity, q: int, kind: SystemKind) -> bool:
    """Whether mu is its own extension from layer q in the order of ``kind``.

    Every table is its own extension from layer n, with no pass; below it,
    :func:`_q_scoring` decides.
    """
    return _check_q(q, mu.n) == mu.n or _q_scoring(mu, q, kind) is not Scoring.REFUSED


def is_q_maxitive(mu: Capacity, q: int) -> bool:
    """True iff values above cardinality q are the max of their small subsets.

    Every capacity is n-maxitive, so q = n always returns True.
    """
    return _is_q_extension(mu, q, SystemKind.MAX_MIN)


def is_q_minitive(mu: Capacity, q: int) -> bool:
    """True iff values below cardinality n - q are the min of their large supersets.

    The order dual of q-maxitivity: a capacity is q-minitive exactly when
    its conjugate (the value of the complement, reversed on the scale) is
    q-maxitive.
    """
    return _is_q_extension(mu, q, SystemKind.MIN_MAX)
