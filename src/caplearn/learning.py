"""Learning capacities from training data.

A training set of (object, target) pairs induces two relational systems:
a max-min system whose columns hold per-subset minima of each object, and a
min-max system built from complement maxima.  Solving them produces the
greatest and lowest capacities that reproduce every target, when any
capacity does; restricting columns by cardinality learns q-maxitive and
q-minitive capacities; and when the restricted systems are inconsistent,
the Chebyshev machinery yields the best approximating capacities together
with the exact minimal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

from .capacity import (
    Capacity,
    _check_q,
    max_over_small_subsets,
    min_over_large_supersets,
)
from .chebyshev import (
    chebyshev_distance,
    greatest_approx_solution,
    lowest_approx_solution,
)
from .errors import DomainError
from .relational import (
    RelationalSystem,
    SolutionVector,
    SystemKind,
    maxmin_apply,
    minmax_apply,
    potential_greatest,
    potential_lowest,
)
from .scale import Scale
from .subsets import (
    cardinality,
    check_criteria_count,
    full_mask,
    masks_of_sizes,
    subset_label,
)
from .sugeno import sugeno_maxmin, sugeno_qmax_unchecked, sugeno_qmin_unchecked


@dataclass(frozen=True)
class TrainingDatum:
    """One object with its targeted global evaluation."""

    x: tuple[float, ...]
    alpha: float


@dataclass(frozen=True)
class TrainingSet:
    n: int
    scale: Scale
    items: tuple[TrainingDatum, ...]

    def __post_init__(self) -> None:
        check_criteria_count(self.n)
        if not self.items:
            raise DomainError("training set needs at least one item")
        on_scale = self.scale.contains_all
        if all(
            len(item.x) == self.n and on_scale(item.x) for item in self.items
        ) and on_scale(self.targets()):
            return
        # some item fails: find the first failure and name it
        for k, item in enumerate(self.items):
            if len(item.x) != self.n:
                raise DomainError(
                    f"item {k}: object has {len(item.x)} coordinates, expected {self.n}"
                )
            for i, v in enumerate(item.x):
                self.scale.require(v, f"item {k}, coordinate x{i + 1}")
            self.scale.require(item.alpha, f"item {k}, target")

    @classmethod
    def from_pairs(cls, n, scale, pairs) -> TrainingSet:
        return cls(
            n, scale, tuple(TrainingDatum(tuple(x), alpha) for x, alpha in pairs)
        )

    def targets(self) -> tuple[float, ...]:
        return tuple(item.alpha for item in self.items)


@dataclass(frozen=True)
class DataViolation:
    kind: str
    items: tuple[int, ...]
    message: str


def validate_data(ts: TrainingSet) -> list[DataViolation]:
    """Items that no Sugeno integral can fit.

    A target must lie between its object's smallest and largest coordinate,
    and identical objects cannot carry different targets.
    """
    out: list[DataViolation] = []
    for k, item in enumerate(ts.items):
        lo, hi = min(item.x), max(item.x)
        if item.alpha > hi:
            out.append(
                DataViolation(
                    "target_above_max",
                    (k,),
                    f"item {k}: target {item.alpha!r} exceeds the largest coordinate {hi!r}",
                )
            )
        elif item.alpha < lo:
            out.append(
                DataViolation(
                    "target_below_min",
                    (k,),
                    f"item {k}: target {item.alpha!r} is below the smallest coordinate {lo!r}",
                )
            )
    by_object: dict[tuple[float, ...], list[int]] = {}
    for k, item in enumerate(ts.items):
        by_object.setdefault(item.x, []).append(k)
    for coords, ks in by_object.items():
        alphas = {ts.items[k].alpha for k in ks}
        if len(alphas) > 1:
            out.append(
                DataViolation(
                    "contradictory_duplicates",
                    tuple(ks),
                    f"items {ks} share the object {coords} but target {sorted(alphas)}",
                )
            )
    return out


def _subset_columns(ts: TrainingSet, masks: list[int], op) -> dict[int, Sequence[float]]:
    """columns[A][k] = op over object k's coordinates in A, for A in ``masks``.

    ``masks`` must be ascending and closed under dropping the lowest bit.
    Each column is op(coordinate column of A's lowest criterion, column of
    the rest), one map over the items, so a build costs O(N * m) for m
    columns.  The lowest criterion comes first, which keeps the tie choice
    of a left-to-right op over A's members (the sign of a zero).
    """
    coords = list(zip(*(item.x for item in ts.items)))
    columns: dict[int, Sequence[float]] = {}
    for mask in masks:
        low = mask & -mask
        rest = mask ^ low
        first = coords[low.bit_length() - 1]
        columns[mask] = list(map(op, first, columns[rest])) if rest else first
    return columns


def build_maxmin_system(ts: TrainingSet, q: int | None = None) -> RelationalSystem:
    """Max-min system over nonempty subsets of cardinality <= q (default n).

    Column (k, A) holds the minimum of object k inside A; the right-hand
    side is the target vector.  Columns follow ascending mask order and are
    labeled by their masks.
    """
    q = ts.n if q is None else _check_q(q, ts.n)
    labels = masks_of_sizes(ts.n, range(1, q + 1))
    columns = _subset_columns(ts, labels, min)
    matrix = tuple(zip(*(columns[mask] for mask in labels)))
    return RelationalSystem(
        SystemKind.MAX_MIN, matrix, ts.targets(), tuple(labels), ts.scale
    )


def build_minmax_system(ts: TrainingSet, q: int | None = None) -> RelationalSystem:
    """Min-max system over proper subsets of cardinality >= n - q (default all).

    Column (k, A) holds the maximum of object k outside A; the columns are
    computed per complement, the nonempty sets of cardinality <= q.
    """
    q = ts.n if q is None else _check_q(q, ts.n)
    outside = masks_of_sizes(ts.n, range(1, q + 1))
    columns = _subset_columns(ts, outside, max)
    # ascending masks are descending complements
    order = outside[::-1]
    matrix = tuple(zip(*(columns[c] for c in order)))
    full = full_mask(ts.n)
    labels = tuple(full ^ c for c in order)
    return RelationalSystem(SystemKind.MIN_MAX, matrix, ts.targets(), labels, ts.scale)


class LearnMode(Enum):
    GREATEST = "greatest"
    LOWEST = "lowest"
    QMAX = "qmax"
    QMIN = "qmin"
    QMAX_APPROX = "qmax_approx"
    QMIN_APPROX = "qmin_approx"


@dataclass(frozen=True)
class LearnReport:
    """Outcome of one learning run.

    ``capacity`` is present only when the mode's conditions hold; the
    residuals line up with the training items and their max norm equals
    ``distance`` in the approximate modes (and is zero otherwise).  Failed
    conditions leave human-readable witnesses in ``notes``.
    """

    mode: LearnMode
    q: int | None
    consistent: bool
    boundary_ok: bool
    distance: float | None
    capacity: Capacity | None
    residuals: tuple[float, ...] | None
    notes: tuple[str, ...] = ()


def qmax_capacity_from_solution(
    solved: dict[int, float], n: int, q: int, scale: Scale
) -> Capacity:
    """Extend a solved low layer to a q-maxitive capacity.

    Keeps the solved values on nonempty subsets of cardinality <= q and
    fills larger subsets with the max over their contained small subsets.
    Requires a size-q subset solved at 1 so the full set reaches 1.
    """
    check_criteria_count(n)
    _check_q(q, n)
    seed = [0.0] * (1 << n)
    for mask in masks_of_sizes(n, range(1, q + 1)):
        seed[mask] = solved[mask]
    return Capacity(n, scale, tuple(max_over_small_subsets(seed, n, q)))


def qmin_capacity_from_solution(
    solved: dict[int, float], n: int, q: int, scale: Scale
) -> Capacity:
    """Extend a solved high layer to a q-minitive capacity (dual template).

    Keeps the solved values on proper subsets of cardinality >= n - q and
    fills smaller subsets with the min over their covering large subsets.
    """
    check_criteria_count(n)
    _check_q(q, n)
    seed = [0.0] * (1 << n)
    seed[-1] = 1.0
    for mask in masks_of_sizes(n, range(n - q, n)):
        seed[mask] = solved[mask]
    return Capacity(n, scale, tuple(min_over_large_supersets(seed, n, q)))


def _residuals(mu: Capacity, ts: TrainingSet, integral=sugeno_maxmin) -> tuple[float, ...]:
    """Integral minus target per item; ``integral(mu, x)`` may be a reduced form.

    The q-modes pass the reduced form of their capacity's class, which
    costs C(n, <=q) subsets per item instead of 2^n and equals the full
    integral on the capacities they build, except for the sign of a zero:
    the full max-min form returns mu's value of the empty set for 0, so
    every form reports that value.
    """
    zero = mu.values[0]
    return tuple((integral(mu, item.x) or zero) - item.alpha for item in ts.items)


def _row_mismatches(produced, rhs) -> tuple[str, ...]:
    return tuple(
        f"equation {k}: system yields {got!r} for target {want!r}"
        for k, (got, want) in enumerate(zip(produced, rhs))
        if got != want
    )


def _best_witness(vec: SolutionVector, size: int) -> tuple[int, float] | None:
    layer = [
        (mask, v) for mask, v in zip(vec.labels, vec.values) if cardinality(mask) == size
    ]
    if not layer:
        return None
    return max(layer, key=lambda pair: pair[1])


def learn_greatest(ts: TrainingSet) -> LearnReport:
    """Greatest capacity reproducing every target, when one exists.

    The max-min system must be consistent and its solved vector must assign
    1 to the full criteria set; the capacity is then the solved vector
    extended by 0 on the empty set.
    """
    sys = build_maxmin_system(ts)
    e = potential_greatest(sys)
    produced = maxmin_apply(sys, e.values)
    consistent = produced == sys.rhs
    boundary_ok = e.values[-1] == 1.0
    notes: tuple[str, ...] = ()
    if not consistent:
        notes += _row_mismatches(produced, sys.rhs)
    if not boundary_ok:
        notes += (
            f"solved vector assigns {e.values[-1]!r} to the full set; some target"
            " lies below its object's smallest coordinate",
        )
    if not (consistent and boundary_ok):
        return LearnReport(LearnMode.GREATEST, None, consistent, boundary_ok, None, None, None, notes)
    mu = Capacity(ts.n, ts.scale, (0.0,) + e.values)
    return LearnReport(
        LearnMode.GREATEST, None, True, True, None, mu, _residuals(mu, ts)
    )


def learn_lowest(ts: TrainingSet) -> LearnReport:
    """Lowest capacity reproducing every target (dual of learn_greatest)."""
    sys = build_minmax_system(ts)
    f = potential_lowest(sys)
    produced = minmax_apply(sys, f.values)
    consistent = produced == sys.rhs
    boundary_ok = f.values[0] == 0.0
    notes: tuple[str, ...] = ()
    if not consistent:
        notes += _row_mismatches(produced, sys.rhs)
    if not boundary_ok:
        notes += (
            f"solved vector assigns {f.values[0]!r} to the empty set; some target"
            " exceeds its object's largest coordinate",
        )
    if not (consistent and boundary_ok):
        return LearnReport(LearnMode.LOWEST, None, consistent, boundary_ok, None, None, None, notes)
    mu = Capacity(ts.n, ts.scale, f.values + (1.0,))
    return LearnReport(
        LearnMode.LOWEST, None, True, True, None, mu, _residuals(mu, ts)
    )


def learn_qmax(ts: TrainingSet, q: int) -> LearnReport:
    """q-maxitive capacity reproducing every target, when one exists.

    Uses the cardinality-restricted max-min system; besides consistency,
    some subset of size exactly q must be solved at 1.
    """
    _check_q(q, ts.n)
    sys = build_maxmin_system(ts, q)
    e = potential_greatest(sys)
    produced = maxmin_apply(sys, e.values)
    consistent = produced == sys.rhs
    witness = _best_witness(e, q)
    boundary_ok = witness is not None and witness[1] == 1.0
    notes: tuple[str, ...] = ()
    if not consistent:
        notes += _row_mismatches(produced, sys.rhs)
    if not boundary_ok and witness is not None:
        notes += (
            f"no size-{q} subset is solved at 1; best is"
            f" {subset_label(witness[0])} = {witness[1]!r}",
        )
    if not (consistent and boundary_ok):
        return LearnReport(LearnMode.QMAX, q, consistent, boundary_ok, None, None, None, notes)
    mu = qmax_capacity_from_solution(e.as_dict(), ts.n, q, ts.scale)
    residuals = _residuals(mu, ts, partial(sugeno_qmax_unchecked, q=q))
    return LearnReport(LearnMode.QMAX, q, True, True, None, mu, residuals)


def learn_qmin(ts: TrainingSet, q: int) -> LearnReport:
    """q-minitive capacity reproducing every target (dual of learn_qmax).

    Some subset of size exactly n - q must be solved at 0.
    """
    _check_q(q, ts.n)
    sys = build_minmax_system(ts, q)
    f = potential_lowest(sys)
    produced = minmax_apply(sys, f.values)
    consistent = produced == sys.rhs
    layer = [
        (mask, v) for mask, v in zip(f.labels, f.values) if cardinality(mask) == ts.n - q
    ]
    best = min(layer, key=lambda pair: pair[1]) if layer else None
    boundary_ok = best is not None and best[1] == 0.0
    notes: tuple[str, ...] = ()
    if not consistent:
        notes += _row_mismatches(produced, sys.rhs)
    if not boundary_ok and best is not None:
        notes += (
            f"no size-{ts.n - q} subset is solved at 0; best is"
            f" {subset_label(best[0])} = {best[1]!r}",
        )
    if not (consistent and boundary_ok):
        return LearnReport(LearnMode.QMIN, q, consistent, boundary_ok, None, None, None, notes)
    mu = qmin_capacity_from_solution(f.as_dict(), ts.n, q, ts.scale)
    residuals = _residuals(mu, ts, partial(sugeno_qmin_unchecked, q=q))
    return LearnReport(LearnMode.QMIN, q, True, True, None, mu, residuals)


def _approx_scale(ts: TrainingSet) -> Scale:
    # Relaxed right-hand sides involve additions and halvings, so learned
    # values may leave a finite chain; results live on the unit interval.
    return Scale.unit_interval(ts.scale.tol)


def learn_qmax_approx(ts: TrainingSet, q: int) -> LearnReport:
    """Greatest q-maxitive capacity within the minimal achievable error.

    Works on possibly inconsistent restricted systems: the Chebyshev
    distance is the exact minimal learning error over q-maxitive
    capacities, and the capacity built from the greatest approximate
    solution attains it.  Requires a size-q subset solved at 1 in that
    approximate solution; otherwise only the distance is reported.
    """
    _check_q(q, ts.n)
    sys = build_maxmin_system(ts, q)
    report = chebyshev_distance(sys)
    eta = greatest_approx_solution(sys, report.distance)
    consistent = report.distance == 0.0
    witness = _best_witness(eta, q)
    boundary_ok = witness is not None and witness[1] == 1.0
    if not boundary_ok:
        notes = ()
        if witness is not None:
            notes = (
                f"no size-{q} subset reaches 1 in the approximate solution; best is"
                f" {subset_label(witness[0])} = {witness[1]!r}",
            )
        return LearnReport(
            LearnMode.QMAX_APPROX, q, consistent, False, report.distance, None, None, notes
        )
    mu = qmax_capacity_from_solution(eta.as_dict(), ts.n, q, _approx_scale(ts))
    residuals = _residuals(mu, ts, partial(sugeno_qmax_unchecked, q=q))
    return LearnReport(
        LearnMode.QMAX_APPROX, q, consistent, True, report.distance, mu, residuals
    )


def learn_qmin_approx(ts: TrainingSet, q: int) -> LearnReport:
    """Lowest q-minitive capacity within the minimal achievable error (dual)."""
    _check_q(q, ts.n)
    sys = build_minmax_system(ts, q)
    report = chebyshev_distance(sys)
    nu = lowest_approx_solution(sys, report.distance)
    consistent = report.distance == 0.0
    layer = [
        (mask, v) for mask, v in zip(nu.labels, nu.values) if cardinality(mask) == ts.n - q
    ]
    best = min(layer, key=lambda pair: pair[1]) if layer else None
    boundary_ok = best is not None and best[1] == 0.0
    if not boundary_ok:
        notes = ()
        if best is not None:
            notes = (
                f"no size-{ts.n - q} subset reaches 0 in the approximate solution; best is"
                f" {subset_label(best[0])} = {best[1]!r}",
            )
        return LearnReport(
            LearnMode.QMIN_APPROX, q, consistent, False, report.distance, None, None, notes
        )
    mu = qmin_capacity_from_solution(nu.as_dict(), ts.n, q, _approx_scale(ts))
    residuals = _residuals(mu, ts, partial(sugeno_qmin_unchecked, q=q))
    return LearnReport(
        LearnMode.QMIN_APPROX, q, consistent, True, report.distance, mu, residuals
    )


def learn(ts: TrainingSet, mode: LearnMode, q: int | None = None) -> LearnReport:
    """Dispatch a learning run; q is required exactly for the q-modes."""
    if mode in (LearnMode.GREATEST, LearnMode.LOWEST):
        if q is not None:
            raise DomainError(f"mode {mode.value} does not take q")
        return learn_greatest(ts) if mode is LearnMode.GREATEST else learn_lowest(ts)
    if q is None:
        raise DomainError(f"mode {mode.value} requires q")
    return {
        LearnMode.QMAX: learn_qmax,
        LearnMode.QMIN: learn_qmin,
        LearnMode.QMAX_APPROX: learn_qmax_approx,
        LearnMode.QMIN_APPROX: learn_qmin_approx,
    }[mode](ts, q)
