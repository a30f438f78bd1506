"""Inconsistency handling for relational systems on [0, 1].

The Chebyshev distance of a system is the smallest max-norm perturbation of
its right-hand side that restores consistency.  It has a closed form: a
max over rows of a min over columns of per-cell terms, where each term
combines the row's own shortfall with cross-row corrections capped at half
the gap between targets.  Evaluated literally, every cell scans every row,
O(m·N²) for N rows and m columns; ``chebyshev_distance`` evaluates the same
closed form by a per-column sweep over the rows in target order, in
O(N log N + m·N), with bit-identical results.  Min-max systems run the same
sweep on their exact negation.  Relaxing the right-hand side by the
distance and re-solving yields the greatest (max-min) or lowest (min-max)
approximate solution.

Finite-chain systems are embedded in [0, 1] by their numeric values; the
halving in the cross terms can land between chain levels, so results are
reported on the unit interval and compared with the scale tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .relational import RelationalSystem, SolutionVector, SystemKind, potential_solution


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

    Evaluated by one sweep per column over the rows in target order
    (``_maxmin_per_row``): O(N log N + m·N) for N rows and m columns instead
    of the literal O(m·N²), with the same floats bit for bit.
    """
    if sys.kind.order.dual:
        # Each min-max term is the max-min term of the negated system:
        # negation is exact and (-t) - (-b) is bit for bit b - t.
        rhs = tuple(-b for b in sys.rhs)
        columns = (tuple(-a for a in column) for column in zip(*sys.matrix))
    else:
        rhs = sys.rhs
        columns = zip(*sys.matrix)
    per_row = _maxmin_per_row(columns, rhs)
    return DistanceReport(max(per_row), per_row)


def _maxmin_per_row(
    columns: Iterable[Sequence[float]], rhs: tuple[float, ...]
) -> tuple[float, ...]:
    """Per-row contributions of a max-min system, one column at a time.

    In a column with entries a_l, the worst cross term of a row with target
    t is g(t) = max over rows l with b_l < t of min((t - b_l)/2, c_l), where
    c_l = pos(a_l - b_l).  Sweeping the rows in target order, the rows before
    the current one form a queue sorted by target.  A row whose ramp
    (t - b_l)/2 has reached its cap c_l is saturated and stays so as t
    grows; it leaves the front of the queue and its cap joins a running
    max.  Every row still queued is dominated by the ramp of the front row,
    which has the lowest target, so g(t) = max(saturated, (t - b_front)/2).
    A queued row tied with t has a zero ramp, so ties need no special case.
    """
    order = sorted(range(len(rhs)), key=rhs.__getitem__)
    per_row = [math.inf] * len(rhs)
    for column in columns:
        front, saturated = 0, 0.0
        for below, i in enumerate(order):
            t = rhs[i]
            while front < below:
                b = rhs[order[front]]
                cap = column[order[front]] - b
                if cap > 0.0:
                    # the closed form's own expression, so ties round alike
                    if (t - b) / 2.0 < cap:
                        break
                    if cap > saturated:
                        saturated = cap
                front += 1
            worst = saturated
            if front < below:
                ramp = (t - rhs[order[front]]) / 2.0
                if ramp > worst:
                    worst = ramp
            shortfall = t - column[i]
            cell = shortfall if shortfall > worst else worst
            if cell < per_row[i]:
                per_row[i] = cell
    return tuple(per_row)


def relaxed_rhs(
    rhs: Sequence[float], distance: float, kind: SystemKind
) -> tuple[float, ...]:
    """Right-hand side moved by the distance toward the order's top and
    clamped there: up to at most 1 (max-min), down to at least 0 (min-max)."""
    order = kind.order
    step = order.sign * distance
    return tuple(order.meet(b + step, order.top) for b in rhs)


def approx_solution(sys: RelationalSystem, distance: float | None = None) -> SolutionVector:
    """Greatest (max-min) or lowest (min-max) approximate solution.

    Solves against the relaxed right-hand side; applying the system to the
    result lands within the Chebyshev distance of the original rhs, and
    exactly on it when the system is consistent.  ``distance`` may be
    passed to reuse an already computed value.

    The optimum is attained where matrix entries tie with the relaxed rhs,
    so those comparisons use the scale tolerance, toward the order's top
    (1 for max-min, 0 for min-max): the float sum rhs + d can land a few
    ulps on either side of the tie and the strict branch would then forfeit
    the optimality guarantee.  A zero distance skips the relaxation
    entirely and reproduces the exact solved vector.
    """
    d = chebyshev_distance(sys).distance if distance is None else distance
    if d == 0.0:
        return potential_solution(sys)
    order = sys.kind.order
    relaxed = relaxed_rhs(sys.rhs, d, sys.kind)
    slack = order.sign * sys.scale.tol
    le, top = order.le, order.top
    values = tuple(
        order.meet(top if le(a, r + slack) else r for a, r in zip(column, relaxed))
        for column in zip(*sys.matrix)
    )
    return SolutionVector(sys.column_labels, values)
