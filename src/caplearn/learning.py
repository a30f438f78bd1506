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
from operator import itemgetter
from typing import Sequence

from .capacity import Capacity, _check_q, extend_layer
from .chebyshev import approx_solution, chebyshev_distance
from .errors import DomainError
from .relational import RelationalSystem, SystemKind, apply_system, potential_solution
from .scale import Scale
from .subsets import cardinality, check_criteria_count, full_mask, masks_of_sizes, subset_label


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


def build_system(ts: TrainingSet, kind: SystemKind, q: int | None = None) -> RelationalSystem:
    """The system of ``kind`` over the columns of the layers up to q (default n).

    Max-min: nonempty subsets of cardinality <= q; column (k, A) holds the
    minimum of object k inside A.  Min-max: proper subsets of cardinality
    >= n - q; column (k, A) holds the maximum of object k outside A,
    computed per complement.  The right-hand side is the target vector and
    columns follow ascending label order.
    """
    q = ts.n if q is None else _check_q(q, ts.n)
    order = kind.order
    masks = masks_of_sizes(ts.n, range(1, q + 1))
    columns = _subset_columns(ts, masks, order.meet)
    labels = masks
    if order.dual:
        # ascending masks are descending complements
        masks = masks[::-1]
        labels = [full_mask(ts.n) ^ mask for mask in masks]
    matrix = tuple(zip(*(columns[mask] for mask in masks)))
    return RelationalSystem(kind, matrix, ts.targets(), tuple(labels), ts.scale)


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


# mode -> (system kind, approximate?, note when the boundary layer misses the top)
_MODES = {
    LearnMode.GREATEST: (
        SystemKind.MAX_MIN, False,
        "solved vector assigns {value!r} to the full set; some target"
        " lies below its object's smallest coordinate",
    ),
    LearnMode.LOWEST: (
        SystemKind.MIN_MAX, False,
        "solved vector assigns {value!r} to the empty set; some target"
        " exceeds its object's largest coordinate",
    ),
    LearnMode.QMAX: (
        SystemKind.MAX_MIN, False,
        "no size-{size} subset is solved at 1; best is {label} = {value!r}",
    ),
    LearnMode.QMIN: (
        SystemKind.MIN_MAX, False,
        "no size-{size} subset is solved at 0; best is {label} = {value!r}",
    ),
    LearnMode.QMAX_APPROX: (
        SystemKind.MAX_MIN, True,
        "no size-{size} subset reaches 1 in the approximate solution; best is {label} = {value!r}",
    ),
    LearnMode.QMIN_APPROX: (
        SystemKind.MIN_MAX, True,
        "no size-{size} subset reaches 0 in the approximate solution; best is {label} = {value!r}",
    ),
}


def capacity_from_solution(
    solved: dict[int, float], n: int, q: int, scale: Scale, kind: SystemKind
) -> Capacity:
    """Extend a solved layer to a q-maxitive (max-min) or q-minitive capacity.

    Max-min keeps the solved values on nonempty subsets of cardinality <= q
    and fills larger subsets with the max over their contained small
    subsets.  Min-max keeps them on proper subsets of cardinality >= n - q
    and fills smaller subsets with the min over their covering large ones.
    The boundary set (empty, resp. full) holds the order's bottom.  A
    capacity needs a boundary-layer subset solved at the order's top.
    """
    check_criteria_count(n)
    _check_q(q, n)
    seed = [kind.order.bottom] * (1 << n)
    for mask, v in solved.items():
        seed[mask] = v
    return Capacity(n, scale, tuple(extend_layer(seed, n, q, kind)))


def _residuals(mu: Capacity, ts: TrainingSet, produced: Sequence[float]) -> tuple[float, ...]:
    """Integral minus target per item, from the system product.

    On the capacity extended from a solution, each item's integral is the
    system applied to that solution, except for the sign of a zero: the
    integral reports a zero as mu's value of the empty set, so this does too.
    """
    zero = mu.values[0]
    return tuple((p or zero) - item.alpha for p, item in zip(produced, ts.items))


def _row_mismatches(produced, rhs) -> tuple[str, ...]:
    return tuple(
        f"equation {k}: system yields {got!r} for target {want!r}"
        for k, (got, want) in enumerate(zip(produced, rhs))
        if got != want
    )


def _approx_scale(ts: TrainingSet) -> Scale:
    # Relaxed right-hand sides involve additions and halvings, so learned
    # values may leave a finite chain; results live on the unit interval.
    return Scale.unit_interval(ts.scale.tol)


def learn(ts: TrainingSet, mode: LearnMode, q: int | None = None) -> LearnReport:
    """One learning run; q is required exactly for the q-modes.

    GREATEST (LOWEST) is the exact max-min (min-max) run over every subset,
    which is QMAX (QMIN) at q = n, reported with q None.  An exact mode
    solves the system; it needs consistency, and a subset of the boundary
    layer (size q, resp. n - q) solved at the order's top (1, resp. 0),
    whose extension is then the greatest q-maxitive (lowest q-minitive)
    capacity reproducing every target.  An approximate mode solves the
    system relaxed by its Chebyshev distance, the exact minimal learning
    error, and needs only the boundary condition.  The capacity is built
    from the solved layer; failed conditions leave witnesses in the notes.
    """
    kind, approx, note = _MODES[mode]
    whole = mode in (LearnMode.GREATEST, LearnMode.LOWEST)
    if whole and q is not None:
        raise DomainError(f"mode {mode.value} does not take q")
    if not whole and q is None:
        raise DomainError(f"mode {mode.value} requires q")
    layer_q = ts.n if whole else _check_q(q, ts.n)
    order = kind.order
    sys = build_system(ts, kind, layer_q)
    if approx:
        distance = chebyshev_distance(sys).distance
        solution = approx_solution(sys, distance)
    else:
        distance = None
        solution = potential_solution(sys)
    produced = apply_system(sys, solution.values)
    consistent = distance == 0.0 if approx else produced == sys.rhs
    size = order.layer(ts.n, layer_q)
    layer = [(m, v) for m, v in zip(solution.labels, solution.values) if cardinality(m) == size]
    best, value = order.join(layer, key=itemgetter(1))
    boundary_ok = value == order.top
    notes = () if approx or consistent else _row_mismatches(produced, sys.rhs)
    if not boundary_ok:
        notes += (note.format(size=size, label=subset_label(best), value=value),)
    if not boundary_ok or not (approx or consistent):
        return LearnReport(mode, q, consistent, boundary_ok, distance, None, None, notes)
    scale = _approx_scale(ts) if approx else ts.scale
    mu = capacity_from_solution(solution.as_dict(), ts.n, layer_q, scale, kind)
    return LearnReport(
        mode, q, consistent, True, distance, mu, _residuals(mu, ts, produced)
    )
