"""Inconsistency handling for relational systems on [0, 1].

The Chebyshev distance of a system is the smallest max-norm perturbation of
its right-hand side that restores consistency.  It has a closed form: a
max over rows of a min over columns of per-cell terms, where each term
combines the row's own shortfall with cross-row corrections capped at half
the gap between targets.  Evaluated literally, every cell scans every row,
O(m·N²) for N rows and m columns; ``_maxmin_per_row`` sweeps the rows in
target order, each column advancing its queue only when visited, at most
O(N log N + m·N) with the same floats.  It reads a system's columns
(``chebyshev_distance``, negated for min-max) or subset columns with no
system (``learning._distance``, stopping rows that cannot raise the max).
``learn`` re-solves against the targets relaxed by the distance
(``relaxed_rhs``) for the approximate capacities.

Finite-chain systems are embedded in [0, 1] by their numeric values; the
halving in the cross terms can land between chain levels, so results are
reported on the unit interval and compared with ``learn``'s tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, neg, pos
from typing import Iterable, Sequence

from .relational import RelationalSystem, SystemKind


@dataclass(frozen=True)
class DistanceReport:
    """Chebyshev distance of a system plus its per-row contributions."""

    distance: float
    per_row: tuple[float, ...]


def chebyshev_distance(sys: RelationalSystem) -> DistanceReport:
    """Closed-form Chebyshev distance; zero exactly when the system is consistent.

    For each row i, every column A gets the larger of the row's own
    shortfall and the worst cross-row term; the row's contribution is the
    best (smallest) column, and the distance is the worst row.

    Evaluated by one sweep over the rows in target order, each resolved
    (``_maxmin_per_row``): at most O(N log N + m·N) for N rows and m columns
    instead of the literal O(m·N²), with the same floats bit for bit.
    """
    # Each min-max term is the max-min term of the negated system:
    # negation is exact and (-t) - (-b) is bit for bit b - t.
    flip = neg if sys.kind.order.dual else pos
    # negated row by row, so that the floats a row of the sweep reads lie
    # together in memory
    rows = [tuple(map(flip, row)) for row in sys.matrix]
    per_row = _maxmin_per_row(zip(*rows), tuple(map(flip, sys.rhs)))
    return DistanceReport(max(per_row), per_row)


def _maxmin_per_row(
    columns: Iterable[Sequence[float]], rhs: Sequence[float], cut: bool = False
) -> tuple[float, ...]:
    """Per-row contributions of a max-min system, row by row in target order.

    In a column with entries a_l, the worst cross term of a row with target
    t is g(t) = max over rows l with b_l < t of min((t - b_l)/2, c_l), where
    c_l = pos(a_l - b_l).  The rows passed form a queue sorted by target; a
    row whose ramp (t - b_l)/2 has reached its cap c_l stays saturated as t
    grows, leaving the front for a running max of caps, and the front ramp
    dominates the rest.  Each column advances its (front, saturated) only
    when a row visits it, O(N) per column.  A row skips the columns whose
    shortfall t - a exceeds its best cell; with ``cut`` it stops at the first
    cell at most the max of the rows done, whose column leads the next row,
    and only the max of the result is exact.  Ties keep the ``repr`` of a
    min over columns in the fed order and of ``max`` over items: a skip or
    cut at an equal value needs a later index, a replacement an earlier one.
    """
    order = sorted(range(len(rhs)), key=rhs.__getitem__)
    # itemgetter of one index returns the item, not a 1-tuple
    ranked = itemgetter(*order) if len(order) > 1 else lambda seq: (seq[order[0]],)
    targets = ranked(rhs)
    cols = list(map(ranked, columns))
    fronts, sats, visit = [0] * len(cols), [0.0] * len(cols), list(range(len(cols)))
    per_row, top, top_k = [0.0] * len(rhs), -math.inf, -1
    for below, (t, k) in enumerate(zip(targets, order)):
        best, best_j = math.inf, 0  # best_j is read only once best is finite
        for at, j in enumerate(visit):
            entries = cols[j]
            shortfall = t - entries[below]
            if shortfall > best or (shortfall == best and j > best_j):
                continue
            front, saturated = fronts[j], sats[j]
            while front < below:
                b = targets[front]
                cap = entries[front] - b
                if cap > 0.0:
                    # the closed form's own expression, so ties round alike
                    ramp = (t - b) / 2.0
                    if ramp < cap:
                        worst = ramp if ramp > saturated else saturated
                        break
                    saturated = cap if cap > saturated else saturated
                front += 1
            else:
                worst = saturated
            fronts[j], sats[j] = front, saturated
            cell = shortfall if shortfall > worst else worst
            if cell < best or (cell == best and j < best_j):
                best, best_j = cell, j
            if cut and (cell < top or (cell == top and k > top_k)):
                visit.insert(0, visit.pop(at))
                break
        # a cut row's best is at most its cut cell, so it leaves the max alone
        if best > top or (best == top and k < top_k):
            top, top_k = best, k
        per_row[k] = best
    return tuple(per_row)


def relaxed_rhs(
    rhs: Sequence[float], distance: float, kind: SystemKind
) -> tuple[float, ...]:
    """Right-hand side moved by the distance toward the order's top and
    clamped there: up to at most 1 (max-min), down to at least 0 (min-max)."""
    order = kind.order
    step = order.sign * distance
    return tuple(order.meet(b + step, order.top) for b in rhs)

