"""Shared generators and independent-oracle helpers for the test suite.

Everything random takes an explicit ``random.Random`` so failures replay.
The closed-form solvers here intentionally avoid the library's residuated
products: they recompute the extremal vectors from blocking index sets and
are used to cross-check the solver, not to reuse it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import caplearn.learning
from caplearn import (
    Capacity,
    DistanceReport,
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingSet,
    sugeno_maxmin,
)
from caplearn.capacity import _check_q
from caplearn.subsets import (
    add_one_bit,
    cardinality,
    complement,
    drop_one_bit,
    full_mask,
    members,
)

CHAIN21 = Scale.uniform_chain(20)
FIVE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

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
    return sorted(labels, key=lambda mask: (cardinality(mask), mask))


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
    labels = tuple(mask for mask in range(1, 1 << ts.n) if cardinality(mask) <= q)
    matrix = tuple(
        tuple(min(item.x[i - 1] for i in members(mask)) for mask in labels)
        for item in ts.items
    )
    return RelationalSystem(SystemKind.MAX_MIN, matrix, ts.targets(), labels, ts.scale)


def build_minmax_system_reference(ts: TrainingSet, q: int | None = None) -> RelationalSystem:
    """The min-max system with every cell a max over the complement's members()."""
    q = ts.n if q is None else _check_q(q, ts.n)
    labels = tuple(mask for mask in range(full_mask(ts.n)) if cardinality(mask) >= ts.n - q)
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
        if cardinality(mask) <= q:
            out[mask] = values[mask]
        else:
            out[mask] = max(out[sub] for sub in drop_one_bit(mask))
    return out


def min_over_large_supersets_reference(values, n: int, q: int) -> list[float]:
    """Covering recursion, dual: min over the one-larger supersets."""
    out = [0.0] * (1 << n)
    low = n - q
    for mask in sorted(range(1 << n), key=cardinality, reverse=True):
        if cardinality(mask) >= low:
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


def residuals_reference(mu: Capacity, ts: TrainingSet, *_produced) -> tuple[float, ...]:
    """Full max-min integral minus target, whatever system product is offered."""
    return tuple(sugeno_maxmin(mu, item.x) - item.alpha for item in ts.items)


@contextmanager
def reference_learning():
    """Run caplearn's learner on the reference builds, extensions and
    residuals above, so whole reports can be compared with the fast path."""
    with mock.patch.multiple(
        caplearn.learning,
        build_system=build_system_reference,
        capacity_from_solution=capacity_from_solution_reference,
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
    in-subset minimum overshoots, 1 when none does."""
    j_map, _ = index_sets(ts)
    return {
        mask: min((ts.items[k].alpha for k in ks), default=1.0)
        for mask, ks in j_map.items()
    }


def closed_form_lowest(ts: TrainingSet) -> dict[int, float]:
    _, k_map = index_sets(ts)
    return {
        mask: max((ts.items[k].alpha for k in ks), default=0.0)
        for mask, ks in k_map.items()
    }


def capacity_leq(a: Capacity, b: Capacity) -> bool:
    return all(x <= y for x, y in zip(a.values, b.values))


def brute_force_conjugate(mu: Capacity) -> tuple[float, ...]:
    """Direct complement-then-negate loop over all subsets."""
    from caplearn import iota

    n = mu.n
    return tuple(iota(mu.scale, mu.values[complement(mask, n)]) for mask in range(1 << n))


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
        if cardinality(mask) <= q:
            continue
        best = max(
            mu.values[sub]
            for sub in range(1 << mu.n)
            if sub != mask and sub & mask == sub and cardinality(sub) <= q
        )
        if mu.values[mask] != best:
            return False
    return True


def brute_q_minitive(mu: Capacity, q: int) -> bool:
    full = full_mask(mu.n)
    for mask in range(1 << mu.n):
        if cardinality(mask) >= mu.n - q:
            continue
        best = min(
            mu.values[sup]
            for sup in range(1 << mu.n)
            if sup != mask and sup & mask == mask and cardinality(sup) >= mu.n - q
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


