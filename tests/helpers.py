"""Shared generators and independent-oracle helpers for the test suite.

Everything random takes an explicit ``random.Random`` so failures replay.
The closed-form solvers here intentionally avoid the library's residuated
products: they recompute the extremal vectors from blocking index sets and
are used to cross-check the solver, not to reuse it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from contextlib import contextmanager
from operator import gt, itemgetter, neg, pos
from pathlib import Path
from unittest import mock

import caplearn.learning
from caplearn import (
    Capacity,
    DataViolation,
    DistanceReport,
    DomainError,
    FormatError,
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingDatum,
    TrainingSet,
    apply_system,
    chebyshev_distance,
    potential_solution,
    relaxed_rhs,
    sugeno_maxmin,
)
from caplearn.capacity import _check_q, extend_layer
from caplearn.io import _document, _number, _numbers, dumps_json, scale_from_json, scale_to_json
from caplearn.relational import vector_for_rhs
from caplearn.subsets import (
    add_one_bit,
    check_criteria_count,
    complement,
    drop_one_bit,
    full_mask,
    masks_of_sizes,
    members,
    subset_label,
)
from caplearn.sugeno import _chain

CHAIN21 = Scale.uniform_chain(20)
FIVE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


class FloatSub(float):
    """A float subclass, as numpy.float64 is: a scale member, not a float."""


class IntSub(int):
    """An int subclass: a scale member, not an int."""


# Three-item, three-criteria dataset used across the suite; small enough to
# check every derived quantity by hand.
REFERENCE_PAIRS = (
    ((0.15, 0.2, 0.3), 0.2),
    ((0.5, 0.25, 0.3), 0.3),
    ((0.4, 0.7, 0.35), 0.4),
)

# Greatest and lowest capacities representing the reference data, indexed by
# subset mask (bit i-1 = criterion i).
MU_E_VALUES = (0.0, 0.3, 0.4, 1.0, 0.2, 1.0, 1.0, 1.0)
MU_F_VALUES = (0.0, 0.0, 0.0, 0.4, 0.0, 0.3, 0.2, 1.0)


def reference_training_set(scale: Scale = CHAIN21) -> TrainingSet:
    return TrainingSet.from_pairs(3, scale, REFERENCE_PAIRS)


def by_cardinality(labels):
    """The display order used for matrices: size first, then mask."""
    return sorted(labels, key=lambda mask: (mask.bit_count(), mask))


def is_consistent(sys_: RelationalSystem) -> bool:
    """Exact test: the potential extremal solution reproduces the rhs."""
    return apply_system(sys_, potential_solution(sys_)) == sys_.rhs


def solution_by_label(sys_: RelationalSystem) -> dict:
    """The potential extremal solution keyed by column label."""
    return dict(zip(sys_.column_labels, potential_solution(sys_)))


def approx_solution(sys_: RelationalSystem, distance: float | None = None) -> tuple[float, ...]:
    """Greatest (max-min) or lowest (min-max) approximate solution, in
    column order: the reference for ``learn``'s relaxed solve.

    Solves against the relaxed right-hand side; applying the system to the
    result lands within the Chebyshev distance of the original rhs, and
    exactly on it when the system is consistent.  ``distance`` may be
    passed to reuse an already computed value.

    The optimum is attained where matrix entries tie with the relaxed rhs,
    so those comparisons use ``learning.TOLERANCE``, toward the
    order's top (1 for max-min, 0 for min-max): the float sum rhs + d can
    land a few ulps on either side of the tie and the strict branch would
    then forfeit the optimality guarantee.  A zero distance skips the
    relaxation entirely and reproduces the exact solved vector.
    """
    d = chebyshev_distance(sys_).distance if distance is None else distance
    if d == 0.0:
        return potential_solution(sys_)
    order = sys_.kind.order
    relaxed = relaxed_rhs(sys_.rhs, d, sys_.kind)
    slack = order.sign * caplearn.learning.TOLERANCE
    le, top = order.le, order.top
    return tuple(
        order.meet(top if le(a, r + slack) else r for a, r in zip(column, relaxed))
        for column in zip(*sys_.matrix)
    )


# Writers for system and training files; only test fixtures write these.


def save_system(sys_: RelationalSystem, path) -> None:
    doc = {
        "kind": sys_.kind.value,
        "matrix": [list(row) for row in sys_.matrix],
        "rhs": list(sys_.rhs),
        "column_labels": list(sys_.column_labels),
        "scale": scale_to_json(sys_.scale),
    }
    Path(path).write_text(dumps_json(doc), encoding="utf-8")


def training_set_to_json(ts: TrainingSet) -> dict:
    return {
        "n": ts.n,
        "scale": scale_to_json(ts.scale),
        "items": [{"x": list(item.x), "alpha": item.alpha} for item in ts.items],
    }


def save_training_set(ts: TrainingSet, path) -> None:
    Path(path).write_text(dumps_json(training_set_to_json(ts)), encoding="utf-8")


def random_capacity(rng: random.Random, n: int, levels, scale: Scale | None = None) -> Capacity:
    """Monotone table built bottom-up: each value at least its covered ones."""
    size = 1 << n
    values = [0.0] * size
    for mask in range(1, size - 1):
        floor = max(values[sub] for sub in drop_one_bit(mask))
        values[mask] = rng.choice([v for v in levels if v >= floor])
    values[size - 1] = 1.0
    return Capacity(n, scale or Scale.unit_interval(), tuple(values))


def random_object(rng: random.Random, n: int, levels) -> tuple[float, ...]:
    return tuple(rng.choice(levels) for _ in range(n))


def random_system(
    rng: random.Random, kind: SystemKind, n_rows: int, n_cols: int, levels
) -> RelationalSystem:
    matrix = tuple(
        tuple(rng.choice(levels) for _ in range(n_cols)) for _ in range(n_rows)
    )
    rhs = tuple(rng.choice(levels) for _ in range(n_rows))
    return RelationalSystem(kind, matrix, rhs, tuple(range(n_cols)), Scale.unit_interval())


def _pos(x: float) -> float:
    return x if x > 0.0 else 0.0


def cross_gap_maxmin(target_i: float, entry_l: float, target_l: float) -> float:
    """How far row l's equation can push target i upward, for max-min systems.

    Half the gap between the two targets, capped by row l's overshoot above
    its own target (an entry below target l exerts no pressure).
    """
    return min(_pos(target_i - target_l) / 2.0, _pos(entry_l - target_l))


def cross_gap_minmax(target_i: float, entry_l: float, target_l: float) -> float:
    """Dual cross term: downward pressure on target i in a min-max system."""
    return min(_pos(target_l - target_i) / 2.0, _pos(target_l - entry_l))


def grid_chebyshev_reference(sys: RelationalSystem, levels: tuple[float, ...]) -> float:
    """``oracle.grid_chebyshev`` by sorting the whole candidate product by its
    distance from the rhs and testing candidates in that order."""
    candidates = sorted(
        itertools.product(levels, repeat=sys.n_rows),
        key=lambda c: (max(abs(a - b) for a, b in zip(c, sys.rhs)), c),
    )
    for c in candidates:
        if apply_system(sys, vector_for_rhs(sys, c)) == c:
            return max(abs(a - b) for a, b in zip(c, sys.rhs))
    raise AssertionError("grid contains no consistent rhs; grid must include 0 and 1")


def chebyshev_distance_reference(sys: RelationalSystem) -> DistanceReport:
    """The Chebyshev distance's closed form evaluated literally, in O(m·N²).

    Every cell (i, j) scans all N rows for its worst cross term; the
    library's per-column sweep must reproduce this report bit for bit.
    """
    if sys.kind is SystemKind.MAX_MIN:

        def cell(i: int, j: int) -> float:
            shortfall = _pos(sys.rhs[i] - sys.matrix[i][j])
            worst = max(
                cross_gap_maxmin(sys.rhs[i], sys.matrix[l][j], sys.rhs[l])
                for l in range(sys.n_rows)
            )
            return max(shortfall, worst)

    else:

        def cell(i: int, j: int) -> float:
            overshoot = _pos(sys.matrix[i][j] - sys.rhs[i])
            worst = max(
                cross_gap_minmax(sys.rhs[i], sys.matrix[l][j], sys.rhs[l])
                for l in range(sys.n_rows)
            )
            return max(overshoot, worst)

    per_row = tuple(
        min(cell(i, j) for j in range(sys.n_cols)) for i in range(sys.n_rows)
    )
    return DistanceReport(max(per_row), per_row)


def build_maxmin_system_reference(ts: TrainingSet, q: int | None = None) -> RelationalSystem:
    """The max-min system with every cell taken as a min over members()."""
    q = ts.n if q is None else _check_q(q, ts.n)
    labels = tuple(mask for mask in range(1, 1 << ts.n) if mask.bit_count() <= q)
    matrix = tuple(
        tuple(min(item.x[i - 1] for i in members(mask)) for mask in labels)
        for item in ts.items
    )
    return RelationalSystem(SystemKind.MAX_MIN, matrix, ts.targets(), labels, ts.scale)


def build_minmax_system_reference(ts: TrainingSet, q: int | None = None) -> RelationalSystem:
    """The min-max system with every cell a max over the complement's members()."""
    q = ts.n if q is None else _check_q(q, ts.n)
    labels = tuple(mask for mask in range(full_mask(ts.n)) if mask.bit_count() >= ts.n - q)
    matrix = tuple(
        tuple(
            max(item.x[i - 1] for i in members(complement(mask, ts.n))) for mask in labels
        )
        for item in ts.items
    )
    return RelationalSystem(SystemKind.MIN_MAX, matrix, ts.targets(), labels, ts.scale)


def max_over_small_subsets_reference(values, n: int, q: int) -> list[float]:
    """Covering recursion: a set above cardinality q takes the max over
    its one-smaller subsets, in ascending order of the dropped bit."""
    out = [0.0] * (1 << n)
    for mask in range(1 << n):
        if mask.bit_count() <= q:
            out[mask] = values[mask]
        else:
            out[mask] = max(out[sub] for sub in drop_one_bit(mask))
    return out


def min_over_large_supersets_reference(values, n: int, q: int) -> list[float]:
    """Covering recursion, dual: min over the one-larger supersets."""
    out = [0.0] * (1 << n)
    low = n - q
    for mask in sorted(range(1 << n), key=int.bit_count, reverse=True):
        if mask.bit_count() >= low:
            out[mask] = values[mask]
        else:
            out[mask] = min(out[sup] for sup in add_one_bit(mask, n))
    return out


def build_system_reference(ts: TrainingSet, kind: SystemKind, q: int | None = None):
    if kind is SystemKind.MAX_MIN:
        return build_maxmin_system_reference(ts, q)
    return build_minmax_system_reference(ts, q)


def extend_layer_reference(values, n: int, q: int, kind: SystemKind) -> list[float]:
    if kind is SystemKind.MAX_MIN:
        return max_over_small_subsets_reference(values, n, q)
    return min_over_large_supersets_reference(values, n, q)


def bit_slices(n: int, bit: int) -> list[tuple[slice, slice]]:
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


def is_monotone_reference(values, n: int) -> bool:
    """No covering pair (A, A + {i}) decreases, in bulk: one comparison map
    per bit slice, n * 2^(n-1) comparisons at C speed; ``capacity._is_monotone``
    must agree on every table without a NaN."""
    return not any(
        any(map(gt, values[lo], values[hi]))
        for bit in range(n)
        for lo, hi in bit_slices(n, bit)
    )


def subset_max_sweep(out: list, n: int) -> list:
    """``out`` made in place max{out[Y] : Y subset of X}: n * 2^(n-1) binary
    maxes, bits high to low, a tie keeping the smaller set's value."""
    for bit in reversed(range(n)):
        for lo, hi in bit_slices(n, bit):
            # max(a, b), inlined: b only when strictly greater
            out[hi] = [b if b > a else a for a, b in zip(out[lo], out[hi])]
    return out


def layer_max_float_reference(f, m: int, q: int, low: int) -> list:
    """out[A] = max of f over the subsets of A on m bits whose size lies in
    [low, q], -inf when A has none; a tie keeps the value found without bit
    0, then bit 1, as :func:`subset_max_sweep` does.

    The float recursion on the lowest criterion: masks without bit 0 are
    the same problem on the even entries; a mask with it takes the better
    of that and the problem on the odd entries with both sizes one less,
    which at q = 1 is the constant f[1].  While 3q > m the sweep takes the
    node, seeded with the entries of size in [low, q] and -inf elsewhere.
    """
    if 3 * q > m:
        out = [v if low <= mask.bit_count() <= q else -math.inf for mask, v in enumerate(f)]
        return subset_max_sweep(out, m)
    a = layer_max_float_reference(f[0::2], m - 1, q, low)
    out = a + a
    out[0::2] = a
    if q == 1:
        b = f[1]
        out[1::2] = [b if b > x else x for x in a]
    else:
        b = layer_max_float_reference(f[1::2], m - 1, q - 1, low - 1)
        out[1::2] = [y if y > x else x for x, y in zip(a, b)]
    return out


def extend_layer_float_reference(values, n: int, q: int, kind: SystemKind) -> list[float]:
    """The extension by :func:`layer_max_float_reference` seeded with layer
    q, on the table read negated by complements for min-max."""
    dual = kind.order.dual
    if dual:
        values = [-v for v in reversed(values)]
    out = layer_max_float_reference(values, n, q, q)
    for mask in masks_of_sizes(n, range(q)):
        out[mask] = values[mask]
    return [-v for v in reversed(out)] if dual else out


def extend_layer_sweep_reference(values, n: int, q: int, kind: SystemKind) -> list[float]:
    """The extension as one subset-max sweep over all n bits, seeded with
    the size-q layer and -inf elsewhere, in n·2^(n−1) steps whatever q is;
    ``capacity.extend_layer`` must reproduce it by ``repr``."""
    dual = kind.order.dual
    if dual:
        values = [-v for v in reversed(values)]
    out = [-math.inf] * (1 << n)
    for mask in masks_of_sizes(n, (q,)):
        out[mask] = values[mask]
    subset_max_sweep(out, n)
    for mask in masks_of_sizes(n, range(q)):
        out[mask] = values[mask]
    return [-v for v in reversed(out)] if dual else out


def capacity_from_solution(solved, n: int, q: int, scale: Scale, kind: SystemKind) -> Capacity:
    """A solved layer extended to a q-maxitive (max-min) or q-minitive
    capacity by ``capacity.extend_layer``: the order's bottom on the
    boundary set and on every unsolved set before the extension."""
    seed = [kind.order.bottom] * (1 << n)
    for mask, v in solved.items():
        seed[mask] = v
    return Capacity(n, scale, tuple(extend_layer(seed, n, q, kind)))


def capacity_from_solution_reference(
    solved, n: int, q: int, scale: Scale, kind: SystemKind
) -> Capacity:
    """The q-maxitive table with 0 on every unsolved set, or the q-minitive
    one with 0 there and 1 on the full set, extended by the recursions."""
    table = [0.0] * (1 << n)
    if kind is SystemKind.MIN_MAX:
        table[-1] = 1.0
    for mask, v in solved.items():
        table[mask] = v
    return Capacity(n, scale, tuple(extend_layer_reference(table, n, q, kind)))


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


def sugeno_table_reference(mu: Capacity, x, kind: SystemKind) -> float:
    """The full integral by its definition: join over all 2^n subsets A of
    meet(the object's A-term, mu(A)), from a 2^n table per object.

    The A-term is the min of x inside A (max-min form) or the max of x
    outside A (min-max form); reading the table of maxima reversed visits
    the complements.  A zero result is reported as mu's value on the empty
    set, whichever zero the terms held.  Defined on any table, where the
    library's sorted form needs a capacity.
    """
    order = kind.order
    table = _subset_table(tuple(x), order.meet, order.top)
    if order.dual:
        table.reverse()
    return order.join(map(order.meet, table, mu.values)) or mu.values[0]


def residuals_reference(mu: Capacity, ts: TrainingSet, *_produced) -> tuple[float, ...]:
    """Full max-min integral minus target, whatever system product is offered."""
    return tuple(
        sugeno_table_reference(mu, item.x, SystemKind.MAX_MIN) - item.alpha for item in ts.items
    )


def solve_reference(ts: TrainingSet, kind: SystemKind, q: int, rhs, bound) -> list[float]:
    """The system of ``kind`` on the layers up to q built cell by cell and
    solved column by column by the residuated product against ``rhs``: the
    meet over rows of the order's top where the entry lies within bound_k,
    rhs_k where it lies beyond.  The table holds the order's bottom on every
    set without a column; ``learning._solve`` must reproduce it by ``repr``."""
    sys_ = build_system_reference(ts, kind, q)
    order = kind.order
    table = [order.bottom] * (1 << ts.n)
    for mask, column in zip(sys_.column_labels, zip(*sys_.matrix)):
        table[mask] = order.meet(
            order.top if order.le(a, b) else r for a, r, b in zip(column, rhs, bound)
        )
    return table


def products_reference(ts: TrainingSet, kind: SystemKind, q: int, table) -> tuple[float, ...]:
    """The system of ``kind`` on the layers up to q, built cell by cell and
    applied to the table's values on its columns, column by column."""
    sys_ = build_system_reference(ts, kind, q)
    return apply_system(sys_, [table[mask] for mask in sys_.column_labels])


def extremal_table_sweep(ts: TrainingSet, kind: SystemKind):
    """The whole system's potential solution as a full table (the order's
    bottom at the boundary set) and each row's product, without the system.

    Row k is written once, at {i : le(x_ki, alpha_k)}, as its rank by target
    in the order, lower k ahead among equals as in the residuated product;
    a subset-max sweep (read by complements for max-min) gives each set its
    best row.  Products are the chain form on the monotone table; a zero
    keeps the sign of the first zero term in column order.
    """
    n, order = ts.n, kind.order
    alphas = ts.targets()
    rising = sorted(range(len(alphas)), key=alphas.__getitem__, reverse=order.dual)[::-1]
    best = [0] * (1 << n)
    for rank, k in enumerate(rising, 1):
        best[sum(1 << i for i, v in enumerate(ts.items[k].x) if order.le(v, alphas[k]))] = rank
    levels = [order.top] + [alphas[k] for k in rising]
    table = [levels[r] for r in subset_max_sweep(best, n)]
    if not order.dual:
        table.reverse()
    table[full_mask(n) if order.dual else 0] = order.bottom
    return table, tuple(
        _chain(table, x, order) or (x[x.index(0.0)] if order.dual else min(x[0], table[1]))
        for x in (item.x for item in ts.items)
    )


def maxmin_per_row_reference(columns, rhs) -> tuple[float, ...]:
    """Per-row contributions of a max-min system, one column at a time, in
    O(N log N + m·N): every row's exact minimum over every column.

    Each column is put in target order and swept once; rows before the
    current one form a queue sorted by target, whose saturated front rows
    (ramp (t - b)/2 at their cap a - b) leave it for a running max.  A row
    keeps the first column in the fed order that attains its minimum.
    ``chebyshev._maxmin_per_row`` must reproduce it by ``repr``: every entry
    without its cut, their max with it.
    """
    order = sorted(range(len(rhs)), key=rhs.__getitem__)
    ranked = itemgetter(*order) if len(order) > 1 else lambda seq: (seq[order[0]],)
    targets = ranked(rhs)
    best = [math.inf] * len(rhs)
    for column in columns:
        entries = ranked(column)
        front, saturated = 0, 0.0
        for below, t in enumerate(targets):
            while front < below:
                b = targets[front]
                cap = entries[front] - b
                if cap > 0.0:
                    if (t - b) / 2.0 < cap:
                        break
                    if cap > saturated:
                        saturated = cap
                front += 1
            worst = saturated
            if front < below:
                ramp = (t - targets[front]) / 2.0
                if ramp > worst:
                    worst = ramp
            shortfall = t - entries[below]
            cell = shortfall if shortfall > worst else worst
            if cell < best[below]:
                best[below] = cell
    return tuple(cell for _, cell in sorted(zip(order, best)))


def distance_reference(ts: TrainingSet, kind: SystemKind, q: int) -> float:
    """The Chebyshev distance of the system of ``kind`` on the layers up to
    q, built cell by cell and swept column by column; min-max negated into
    max-min.  ``learning._distance`` must reproduce it by ``repr``."""
    sys_ = build_system_reference(ts, kind, q)
    flip = neg if kind.order.dual else pos
    columns = (tuple(map(flip, column)) for column in zip(*sys_.matrix))
    return max(maxmin_per_row_reference(columns, tuple(map(flip, sys_.rhs))))


@contextmanager
def reference_learning():
    """Run caplearn's learner on the reference distances, solutions,
    products, extensions and residuals above, so whole reports can be
    compared with the fast path."""
    with mock.patch.multiple(
        caplearn.learning,
        _distance=distance_reference,
        _solve=solve_reference,
        _products=products_reference,
        extend_layer=extend_layer_reference,
        _residuals=residuals_reference,
    ):
        yield


def index_sets(ts: TrainingSet) -> tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]]:
    """Per-subset blocking item sets; an independent route to the solved vectors.

    For a nonempty subset A, the first map collects the items whose minimum
    inside A exceeds their target; the greatest solution at A is then the
    smallest such target (1 when the set is empty).  The second map is the
    dual for proper subsets: items whose maximum outside B falls below
    their target, the lowest solution being their largest target (0 when
    empty).
    """
    j_map: dict[int, frozenset[int]] = {}
    for mask in range(1, 1 << ts.n):
        j_map[mask] = frozenset(
            k
            for k, item in enumerate(ts.items)
            if min(item.x[i - 1] for i in members(mask)) > item.alpha
        )
    k_map: dict[int, frozenset[int]] = {}
    for mask in range(full_mask(ts.n)):
        k_map[mask] = frozenset(
            k
            for k, item in enumerate(ts.items)
            if max(item.x[i - 1] for i in members(complement(mask, ts.n))) < item.alpha
        )
    return j_map, k_map


def random_training_set(rng: random.Random, n: int, size: int, levels) -> TrainingSet:
    scale = Scale.finite_chain(levels) if 0.0 in levels and 1.0 in levels else Scale.unit_interval()
    return TrainingSet.from_pairs(
        n,
        scale,
        [(random_object(rng, n, levels), rng.choice(levels)) for _ in range(size)],
    )


def representable_training_set(rng: random.Random, n: int, size: int, levels):
    """Data generated from a hidden capacity, plus that capacity."""
    mu = random_capacity(rng, n, levels)
    pairs = []
    for _ in range(size):
        x = random_object(rng, n, levels)
        pairs.append((x, sugeno_maxmin(mu, x)))
    return TrainingSet.from_pairs(n, Scale.unit_interval(), pairs), mu


def closed_form_greatest(ts: TrainingSet) -> dict[int, float]:
    """Greatest solution per blocking sets: min target over items whose
    in-subset minimum overshoots, 1 when none does.  Items are taken in
    ascending order, as the residuated product takes its rows, so a tie
    between 0.0 and -0.0 keeps the first (a frozenset iterates by hash)."""
    j_map, _ = index_sets(ts)
    return {
        mask: min((ts.items[k].alpha for k in sorted(ks)), default=1.0)
        for mask, ks in j_map.items()
    }


def closed_form_lowest(ts: TrainingSet) -> dict[int, float]:
    _, k_map = index_sets(ts)
    return {
        mask: max((ts.items[k].alpha for k in sorted(ks)), default=0.0)
        for mask, ks in k_map.items()
    }


def capacity_leq(a: Capacity, b: Capacity) -> bool:
    return all(x <= y for x, y in zip(a.values, b.values))


def brute_force_conjugate(mu: Capacity) -> Capacity:
    """Direct complement-then-negate loop over all subsets: level i of l maps
    to level l - i + 1 on a chain, v to 1 - v on the unit interval."""
    n, levels = mu.n, mu.scale.levels
    flip = dict(zip(levels, reversed(levels))) if levels else {}
    values = (mu.values[complement(mask, n)] for mask in range(1 << n))
    return Capacity(n, mu.scale, tuple(flip.get(v, 1.0 - v) for v in values))


def capacity_violations_reference(values, n: int) -> list[str]:
    """``capacity_violations`` as one scan: the boundaries, then each covering pair."""
    check_criteria_count(n)
    size = 1 << n
    out: list[str] = []
    if len(values) != size:
        return [f"expected {size} values for n={n}, got {len(values)}"]
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


def exhaustive_capacity_check(values, n) -> bool:
    """Full O(4^n) pairwise monotonicity plus boundaries; n <= 4 only."""
    size = 1 << n
    if values[0] != 0.0 or values[size - 1] != 1.0:
        return False
    for a in range(size):
        for b in range(size):
            if a & b == a and values[a] > values[b]:
                return False
    return True


def brute_q_maxitive(mu: Capacity, q: int) -> bool:
    """Literal definition: max over all strictly contained small subsets."""
    for mask in range(1 << mu.n):
        if mask.bit_count() <= q:
            continue
        best = max(
            mu.values[sub]
            for sub in range(1 << mu.n)
            if sub != mask and sub & mask == sub and sub.bit_count() <= q
        )
        if mu.values[mask] != best:
            return False
    return True


def brute_q_minitive(mu: Capacity, q: int) -> bool:
    full = full_mask(mu.n)
    for mask in range(1 << mu.n):
        if mask.bit_count() >= mu.n - q:
            continue
        best = min(
            mu.values[sup]
            for sup in range(1 << mu.n)
            if sup != mask and sup & mask == mask and sup.bit_count() >= mu.n - q
        )
        if mu.values[mask] != best:
            return False
    return True


def brute_sugeno_maxmin(mu: Capacity, x) -> float:
    """Term-by-term evaluation without the shared min tables."""
    best = 0.0
    for mask in range(1, 1 << mu.n):
        inner = min(x[i - 1] for i in members(mask))
        best = max(best, min(inner, mu.values[mask]))
    return best




# The readers and the data check as they were before their bulk paths: item
# by item (row by row), each failure named as it is met.


def training_set_from_json_reference(obj) -> TrainingSet:
    _document(obj, "training set", ("n", "scale", "items"))
    scale = scale_from_json(obj["scale"])
    items = obj["items"]
    if not isinstance(items, list):
        raise FormatError("training set field 'items' must be an array")
    pairs = []
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "x" not in item or "alpha" not in item:
            raise FormatError(f"item {k} must be an object with 'x' and 'alpha'")
        x = item["x"]
        if not isinstance(x, list):
            raise FormatError(f"item {k}: 'x' must be an array")
        _numbers(x, lambda i: f"item {k}, coordinate x{i + 1}")
        _number(item["alpha"], f"item {k}, alpha")
        pairs.append((x, item["alpha"]))  # off-scale values are named as written
    try:
        return TrainingSet.from_pairs(obj["n"], scale, pairs)
    except Exception as exc:
        raise FormatError(f"invalid training set: {exc}") from exc


def training_set_from_csv_text_reference(text: str, source: str = "<csv>") -> TrainingSet:
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise FormatError(f"{source}: no rows")
    header = [cell.strip().lower() for cell in rows[0][1]]
    n = len(header) - 1
    expected = [f"x{i + 1}" for i in range(n)] + ["alpha"]
    if n < 1 or header != expected:
        raise FormatError(
            f"{source}: header must be x1,...,xn,alpha; got {','.join(header)}"
        )
    underscored = "_" in text
    pairs = []
    for lineno, row in rows[1:]:
        if len(row) != n + 1:
            raise FormatError(f"{source}, row {lineno}: expected {n + 1} cells, got {len(row)}")
        try:
            if underscored and any("_" in cell for cell in row):
                raise ValueError("underscores are not allowed in numbers")
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise FormatError(f"{source}, row {lineno}: {exc}") from exc
        pairs.append((tuple(values[:n]), values[n]))
    try:
        return TrainingSet.from_pairs(n, Scale.unit_interval(), pairs)
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc


def validate_data_reference(ts: TrainingSet) -> list[DataViolation]:
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


# The value checks of TrainingSet and RelationalSystem as they were before
# one Scale.require_floats call each: a bulk Scale.floats over every value,
# then, when some length or value fails, a walk item by item (row by row,
# then the rhs), each row's length judged before its values.


def training_set_items_reference(n: int, scale: Scale, items) -> tuple:
    """The items a training set keeps, or the DomainError it raises, once
    n and a nonempty item list have passed."""
    xs = [item.x for item in items]
    tuples = type(items) is tuple and all(type(x) is tuple for x in xs)
    values = (*itertools.chain.from_iterable(xs), *(item.alpha for item in items))
    floats = scale.floats(values) if all(len(x) == n for x in xs) else None
    if floats is None:
        names = [f"coordinate x{i + 1}" for i in range(n)] + ["target"]
        rows = []
        for k, item in enumerate(items):
            if len(item.x) != n:
                raise DomainError(f"item {k}: object has {len(item.x)} coordinates, expected {n}")
            row = (*item.x, item.alpha)
            rows.append(scale.require_floats(row, lambda i: f"item {k}, {names[i]}"))
        coordinates = itertools.chain.from_iterable(row[:n] for row in rows)
        floats = (*coordinates, *(row[n] for row in rows))
    if floats is not values or not tuples:
        alphas = floats[len(xs) * n:]
        items = tuple(TrainingDatum(floats[k * n:k * n + n], a) for k, a in enumerate(alphas))
    return items


def system_values_reference(matrix, rhs, m: int, scale: Scale) -> tuple:
    """The (matrix, rhs) a system keeps, or the DomainError it raises, once
    its m column labels and its rhs length have passed."""
    tuples = type(matrix) is type(rhs) is tuple and all(type(row) is tuple for row in matrix)
    values = (*itertools.chain.from_iterable(matrix), *rhs)
    floats = scale.floats(values) if all(len(r) == m for r in matrix) else None
    if floats is None:
        rows = []
        for k, row in enumerate(matrix):
            if len(row) != m:
                raise DomainError(f"row {k} has {len(row)} entries, expected {m}")
            rows.append(scale.require_floats(row, lambda j: f"matrix entry ({k}, {j})"))
        rhs_floats = scale.require_floats(rhs, lambda k: f"right-hand side entry {k}")
        floats = (*itertools.chain.from_iterable(rows), *rhs_floats)
    if floats is not values or not tuples:
        matrix = tuple(floats[k * m:k * m + m] for k in range(len(matrix)))
        rhs = floats[len(matrix) * m:]
    return matrix, rhs
