"""Learning capacities from training data.

A training set of (object, target) pairs induces a max-min system, whose
columns hold per-subset minima of each object, and a min-max system built
from complement maxima.  Sanchez's residuated solution of either on the
subsets up to cardinality q, extended from its boundary layer, is the
greatest q-maxitive (lowest q-minitive) capacity reproducing every target
when any does (q = n: the greatest and lowest capacities); ``learn`` finds
it without the system, one AND of N-bit row words per subset.  Against
targets relaxed by the Chebyshev distance, swept from the subset columns,
it gives the best approximating capacities with the exact minimal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, compress, repeat
from operator import and_, ge, itemgetter, le, neg, pos
from typing import Any, Iterable, Sequence

from .capacity import Capacity, Scoring, _check_q, extend_layer
# chebyshev_distance is unused here; the benchmark tracer looks it up here (ROADMAP item 1)
from .chebyshev import _maxmin_per_row, chebyshev_distance, relaxed_rhs
from .errors import DomainError
from .relational import RelationalSystem, SystemKind
from .scale import Scale
from .subsets import check_criteria_count, full_mask, masks_of_sizes, subset_label
from .sugeno import _chain

# the slack for float rounding in targets relaxed by the distance, where
# target + distance can land a few ulps either side of a tie; a wider one
# unblocks subsets the optimum needs, and residuals then pass the distance
TOLERANCE = 1e-9


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
        n, items = self.n, self.items
        width = n + 1
        # the values of the items before the first object of the wrong
        # length, each item's coordinates then its target, are checked in
        # one pass; so a bad value is named before a later item's length
        bad = next((k for k, item in enumerate(items) if len(item.x) != n), len(items))
        flat: list = []
        for item in items[:bad]:
            flat += item.x
            flat.append(item.alpha)
        values = tuple(flat)
        names = [f"coordinate x{i + 1}" for i in range(n)] + ["target"]
        floats = self.scale.require_floats(
            values, lambda i: f"item {i // width}, {names[i % width]}"
        )
        if bad < len(items):
            raise DomainError(
                f"item {bad}: object has {len(items[bad].x)} coordinates, expected {n}"
            )
        # an int, a subclass, a list: keep tuples of floats
        if floats is not values or {type(items), *(type(item.x) for item in items)} != {tuple}:
            rows = range(0, len(floats), width)
            items = tuple(TrainingDatum(floats[r:r + n], floats[r + n]) for r in rows)
            object.__setattr__(self, "items", items)

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
    and identical objects cannot carry different targets.  A clean set is
    proved clean in bulk; the item loops run only to list the violations.
    """
    xs, alphas = [item.x for item in ts.items], ts.targets()
    in_range = all(map(le, alphas, map(max, xs))) and all(map(ge, alphas, map(min, xs)))
    if in_range and len(set(xs)) == len(xs):
        return []
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


def _low_bit_fold(base: Sequence, masks: Iterable[int], op) -> dict[int, Any]:
    """out[A] = op(base[i], out[A minus i]) for A in ``masks``, i being A's
    lowest criterion, and base[i] on a singleton: one op per set.

    ``masks`` must be ascending and closed under dropping the lowest bit.
    The lowest criterion comes first, which keeps the tie choice of a
    left-to-right op over A's members (the sign of a zero).
    """
    out: dict[int, Any] = {}
    for mask in masks:
        low = mask & -mask
        rest = mask ^ low
        first = base[low.bit_length() - 1]
        out[mask] = op(first, out[rest]) if rest else first
    return out


def _layer_masks(n: int, q: int) -> Sequence[int]:
    """The ascending masks of layers 1..q: every nonempty set at q = n."""
    return range(1, 1 << n) if q == n else masks_of_sizes(n, range(1, q + 1))


def _columns(ts: TrainingSet, kind: SystemKind, q: int) -> Iterable[Sequence[float]]:
    """The system's columns on the layers up to q, min-max ones negated, by
    an inlined ``min``: min(-a, -b) keeps the argument that max(a, b) keeps,
    so even a zero keeps the system's sign."""
    flip = neg if kind.order.dual else pos
    coords = [tuple(map(flip, column)) for column in zip(*(item.x for item in ts.items))]
    masks = _layer_masks(ts.n, q)
    fold = _low_bit_fold(coords, masks, lambda a, b: [y if y < x else x for x, y in zip(a, b)])
    # ascending sets are descending complements
    return reversed(fold.values()) if kind.order.dual else fold.values()


def build_system(ts: TrainingSet, kind: SystemKind, q: int | None = None) -> RelationalSystem:
    """The system of ``kind`` over the columns of the layers up to q (default n).

    Max-min: nonempty subsets of cardinality <= q; column (k, A) holds the
    minimum of object k inside A.  Min-max: proper subsets of cardinality
    >= n - q; column (k, A) holds the maximum of object k outside A.  The
    right-hand side is the target vector and columns follow ascending label
    order.
    """
    q = ts.n if q is None else _check_q(q, ts.n)
    columns = _columns(ts, kind, q)
    labels = _layer_masks(ts.n, q)
    if kind.order.dual:
        columns = ([-v for v in column] for column in columns)
        labels = [full_mask(ts.n) ^ mask for mask in reversed(labels)]
    matrix = tuple(zip(*columns))
    return RelationalSystem(kind, matrix, ts.targets(), tuple(labels), ts.scale)


def _distance(ts: TrainingSet, kind: SystemKind, q: int) -> float:
    """``chebyshev_distance(build_system(ts, kind, q)).distance`` bit for bit,
    from the subset columns swept with the cut."""
    flip = neg if kind.order.dual else pos
    return max(_maxmin_per_row(_columns(ts, kind, q), tuple(map(flip, ts.targets())), cut=True))


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


def _solve(
    ts: TrainingSet, kind: SystemKind, q: int, rhs: Sequence[float], bound: Sequence[float]
) -> list[float]:
    """The residuated solution of the system of ``kind`` on the layers up to
    q against ``rhs``, as a table with the order's bottom off those layers.

    A row blocks a set when its coordinates in the set's column (inside A
    for max-min, outside B for min-max) all lie strictly beyond its bound;
    the value is the meet of the blocking rows' rhs, the top when none.
    Ranked by rhs in the order, lower k ahead among equals as the meet picks
    them, a set's blocking rows are the AND of its members' row words.  A
    criterion's word is built from its coordinate column in rank order: the
    rows within their bounds, one ``compress`` of the rank bits, cleared
    from the word of all rows.
    """
    n, order = ts.n, kind.order
    rising = sorted(range(len(rhs)), key=rhs.__getitem__, reverse=order.dual)[::-1]
    levels = [order.top] + [rhs[k] for k in rising]
    bits = [1 << r for r in range(len(rising))]
    bounds = [bound[k] for k in rising]
    everyone = (1 << len(rising)) - 1
    blocked = [
        everyone ^ sum(compress(bits, map(order.le, column, bounds)))
        for column in zip(*[ts.items[k].x for k in rising])
    ]
    table = [order.bottom] * (1 << n)
    flip = full_mask(n) if order.dual else 0  # min-max sets are complements
    for mask, word in _low_bit_fold(blocked, _layer_masks(n, q), and_).items():
        table[mask ^ flip] = levels[word.bit_length()]
    return table


def _reaches(ts: TrainingSet, kind: SystemKind, table: Sequence[float]) -> bool:
    """Whether every row's system product on ``table``, the residuated
    solution against the targets (extended when q < n), equals its target:
    by Sanchez, whether the system is consistent.

    No term of a row's product passes its target in the order, and the
    table is monotone, so row k reaches its target b exactly when the table
    reaches b at the largest set whose coordinates all reach b,
    A_k = {i : b <= x_ki} in the order: max-min reads A_k, min-max its
    complement (the set outside which the term takes its max).  One mask
    and one table read per row.
    """
    le, n = kind.order.le, ts.n
    bits = [1 << i for i in range(n)]
    flip = full_mask(n) if kind.order.dual else 0
    return all(
        le(b, table[flip ^ sum(compress(bits, map(le, repeat(b), item.x)))])
        for item, b in zip(ts.items, ts.targets())
    )


def _products(
    ts: TrainingSet, kind: SystemKind, q: int, table: Sequence[float]
) -> tuple[float, ...]:
    """Each row's system product, by the sorted form on the extended table:
    one sort and n reads per row, which consistency does not need.

    A zero takes the sign of the first zero term in column order.  Max-min:
    column {1}.  Min-max: the numerically largest set C of zero coordinates,
    |C| <= q, whose complement is solved at 0, so |C| = min(q, zeros); the
    term is x at C's lowest criterion.
    """
    order = kind.order

    def zero(x: tuple[float, ...]) -> float:
        if not order.dual:
            return min(x[0], table[1])
        zeros = [i for i in reversed(range(ts.n)) if x[i] == 0.0]
        for c in combinations(zeros, min(q, len(zeros))):
            if table[full_mask(ts.n) ^ sum(1 << i for i in c)] == 0.0:
                return x[c[-1]]

    return tuple(_chain(table, item.x, order) or zero(item.x) for item in ts.items)


def _residuals(mu: Capacity, ts: TrainingSet, produced: Sequence[float]) -> tuple[float, ...]:
    """Integral minus target per item, from the system product.

    On the capacity extended from a solution, each item's integral is the
    system applied to that solution, except for the sign of a zero: the
    integral reports a zero as mu's value of the empty set, so this does too.
    """
    zero = mu.values[0]
    return tuple((p or zero) - item.alpha for p, item in zip(produced, ts.items))


def learn(ts: TrainingSet, mode: LearnMode, q: int | None = None) -> LearnReport:
    """One learning run; q is required exactly for the q-modes.

    GREATEST (LOWEST) is QMAX (QMIN) at q = n, reported with q None.  Every
    mode solves its system on the layers up to q by :func:`_solve` and
    extends the solution from the boundary layer when q < n.  An exact mode
    needs consistency, decided by :func:`_reaches`, and a subset of the
    boundary layer (size q, resp. n - q) solved at the order's top (1,
    resp. 0); the extension is then the greatest q-maxitive (lowest
    q-minitive) capacity reproducing every target.  Rows are scored by
    :func:`_products` only for misfit notes and the approximate modes'
    residuals: a reached target is its own product.  An approximate mode
    sweeps its Chebyshev distance, the exact minimal learning error, from
    the subset columns, solves against the targets relaxed by it, an entry
    within ``TOLERANCE`` beyond its relaxed target counting as reaching it,
    and needs only the boundary condition; when that fails it returns before
    the extension.  Failed conditions leave notes.
    """
    kind, approx, note = _MODES[mode]
    whole = mode in (LearnMode.GREATEST, LearnMode.LOWEST)
    if whole and q is not None:
        raise DomainError(f"mode {mode.value} does not take q")
    if not whole and q is None:
        raise DomainError(f"mode {mode.value} requires q")
    layer_q = ts.n if whole else _check_q(q, ts.n)
    order = kind.order
    size = order.layer(ts.n, layer_q)
    targets = rhs = bound = ts.targets()
    distance = None
    if approx:
        distance = _distance(ts, kind, layer_q)
        if distance:
            # the optimum sits where entries tie with the relaxed rhs, so
            # blocking is judged with the tolerance toward the order's top
            rhs = relaxed_rhs(targets, distance, kind)
            bound = tuple(r + order.sign * TOLERANCE for r in rhs)
    table = _solve(ts, kind, layer_q, rhs, bound)
    layer = [(m, table[m]) for m in masks_of_sizes(ts.n, (size,))]
    best, value = order.join(layer, key=itemgetter(1))
    boundary_ok = value == order.top
    notes = () if boundary_ok else (note.format(size=size, label=subset_label(best), value=value),)
    if approx and not boundary_ok:  # no capacity: no extension, no products
        return LearnReport(mode, q, distance == 0.0, False, distance, None, None, notes)
    if layer_q < ts.n:
        table = extend_layer(table, ts.n, layer_q, kind)
    consistent = distance == 0.0 if approx else _reaches(ts, kind, table)
    misfits = () if approx or consistent else tuple(
        f"equation {k}: system yields {got!r} for target {want!r}"
        for k, (got, want) in enumerate(zip(_products(ts, kind, layer_q, table), targets))
        if got != want
    )
    if not boundary_ok or not (approx or consistent):
        return LearnReport(mode, q, consistent, boundary_ok, distance, None, None, misfits + notes)
    # a reached target is its own product
    produced = _products(ts, kind, layer_q, table) if approx else targets
    # Relaxed right-hand sides involve additions and halvings, so learned
    # values may leave a finite chain; results live on the unit interval.
    scale = Scale.unit_interval() if approx else ts.scale
    mu = Capacity(ts.n, scale, table)
    # a residuated solve is monotone and so is its extension: seed the chain form
    mu._scoring[layer_q, kind] = Scoring.CHAIN
    return LearnReport(mode, q, consistent, True, distance, mu, _residuals(mu, ts, produced))
