"""Brute-force verifiers for the solver's extremality and optimality claims.

Everything here enumerates: capacities over a finite grid of values,
solution vectors of a system, consistent right-hand sides, and the minimal
learning error over constrained capacities.  Each search takes the levels
it walks and a budget, and refuses with ``BudgetError`` when its candidate
count, len(levels) ** exponent, exceeds the budget, at any size: the count
is never built past the budget's bit length.  The searches walk their
candidates lazily, in a fixed order, so oracle outputs are reproducible and
memory does not grow with the candidate count.

A formula meets the optimum of the grid its search walked by one rule: never
below the formula, and at most half the largest gap between levels above it
when the data lies on the grid.  Rounding to the nearest level is monotone,
so against on-grid values it commutes with every min and max: the rounded
optimal solution (capacity) is again consistent, on the grid, q-maxitive
(q-minitive) and normalised, and reaches the rounded optimum.  Off the grid
no upper bound holds, and only the lower side is checked.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .capacity import Capacity, _check_q, _is_q_extension
from .chebyshev import chebyshev_distance
from .errors import BudgetError, DomainError
from .learning import TOLERANCE, LearnMode, TrainingSet, build_system, learn
from .relational import RelationalSystem, SystemKind, apply_system
from .relational import potential_solution, vector_for_rhs
from .scale import Scale
from .subsets import check_criteria_count, drop_one_bit
from .sugeno import sugeno_maxmin

DEFAULT_BUDGET = 10_000_000

# the CLI's --mode names of the q constraints: the system kind of each
_Q_KINDS = {"qmax": SystemKind.MAX_MIN, "qmin": SystemKind.MIN_MAX}


def _guard(levels: tuple[float, ...], exponent: int, budget: int, what: str) -> None:
    """Refuse a search over len(levels) ** exponent candidates above ``budget``.

    The levels must ascend strictly from 0 to 1, so there are at least two and
    any exponent past the budget's bit length is over it: the power is built
    only up to that exponent (the estimate is then a lower bound above the
    budget), and the message names the count as a power.
    """
    if not (levels and levels[0] == 0.0 and levels[-1] == 1.0
            and all(a < b for a, b in zip(levels, levels[1:]))):
        raise DomainError("grid levels must ascend strictly from 0 to 1")
    if budget < 1:
        raise DomainError("budget must be positive")
    estimate = len(levels) ** min(exponent, budget.bit_length())
    if estimate > budget:
        raise BudgetError(f"{what} would enumerate ~{len(levels)}^{exponent} candidates,"
                          f" over the budget of {budget}", estimate, budget)


def enumerate_capacities(
    n: int, levels: tuple[float, ...], budget: int = DEFAULT_BUDGET,
    q: int | None = None, kind: SystemKind = SystemKind.MAX_MIN,
) -> Iterator[Capacity]:
    """Every monotone boundary-normalized table on n criteria over ``levels``,
    canonically ordered, that is its own extension from layer q (default n)
    in the order of ``kind``: q-maxitive for max-min, q-minitive for min-max.

    Backtracks over subsets in ascending mask order; each value is chosen at
    or above the values of the covered subsets, which are always assigned
    first.  Duplicate-free by construction.  Tables are returned on the
    unit-interval scale so they compose with any [0, 1] data.
    """
    q = _check_q(n if q is None else q, check_criteria_count(n))
    # at most a free choice on every subset but the two boundaries
    _guard(levels, (1 << n) - 2, budget, "capacity enumeration")
    scale = Scale.unit_interval()
    size = 1 << n
    table = [0.0] * size

    def rec(mask: int) -> Iterator[Capacity]:
        if mask == size - 1:
            table[mask] = 1.0
            mu = Capacity(n, scale, tuple(table))
            if _is_q_extension(mu, q, kind):
                yield mu
            return
        floor = max(table[sub] for sub in drop_one_bit(mask)) if mask else 0.0
        for v in levels:
            if v < floor:
                continue
            table[mask] = v
            yield from rec(mask + 1)

    return rec(1)


def enumerate_solutions(sys: RelationalSystem, levels: tuple[float, ...],
                        budget: int = DEFAULT_BUDGET) -> Iterator[tuple[float, ...]]:
    """Every vector over ``levels``, in column order, that solves the system exactly."""
    _guard(levels, sys.n_cols, budget, "solution enumeration")
    return (c for c in itertools.product(levels, repeat=sys.n_cols)
            if apply_system(sys, c) == sys.rhs)


def grid_chebyshev(sys: RelationalSystem, levels: tuple[float, ...],
                   budget: int = DEFAULT_BUDGET) -> float:
    """Smallest max-norm gap between the rhs and a consistent rhs on ``levels``.

    Walks the distinct row gaps |level - rhs_k| upward and tests, at gap t,
    each candidate within t but not within the gap before, once, so the
    first consistent one is the grid optimum.  The all-zeros (max-min) or
    all-ones (min-max) candidate is always consistent, so the walk ends.
    """
    _guard(levels, sys.n_rows, budget, "rhs grid search")
    gaps = [[abs(v - r) for v in levels] for r in sys.rhs]
    within: list[tuple[float, ...]] = [()] * sys.n_rows  # levels within the gap before
    for t in sorted(set(itertools.chain.from_iterable(gaps))):
        at = [tuple(v for v, g in zip(levels, row) if g == t) for row in gaps]
        upto = [w + a for w, a in zip(within, at)]
        # split by the first row at exactly t: rows before it stay within the
        # gap before, rows after it within t
        for k in range(sys.n_rows):
            for c in itertools.product(*within[:k], at[k], *upto[k + 1:]):
                # re-solved against c, which need not lie on the system's scale
                if apply_system(sys, vector_for_rhs(sys, c)) == c:
                    return t
        within = upto
    raise AssertionError("grid contains no consistent rhs; grid must include 0 and 1")


def min_learning_error(
    ts: TrainingSet, levels: tuple[float, ...], budget: int = DEFAULT_BUDGET,
    q: int | None = None, kind: SystemKind = SystemKind.MAX_MIN,
) -> tuple[float, Capacity]:
    """Exhaustive minimal worst-case fitting error over the capacities of
    :func:`enumerate_capacities` on ``ts.n`` criteria.

    Returns the error together with the first capacity attaining it in
    enumeration order.
    """
    def error(mu: Capacity) -> float:
        return max(abs(sugeno_maxmin(mu, item.x) - item.alpha) for item in ts.items)

    # the grid always admits at least one capacity
    best = min(enumerate_capacities(ts.n, levels, budget, q, kind), key=error)
    return error(best), best


def grid_levels(step: float, budget: int) -> tuple[float, ...]:
    """Evenly spaced levels 0, 1/k, ..., 1 with k = round(1 / step), refused
    before ``round`` when 1 / step exceeds the budget, as a search would be."""
    if not 0.0 < step <= 1.0:
        raise DomainError(f"grid step must be in (0, 1], got {step}")
    if budget < 1:
        raise DomainError("budget must be positive")
    if 1.0 / step > budget:
        raise BudgetError(f"a grid of step {step} would enumerate ~{1.0 / step} candidates,"
                          f" over the budget of {budget}", 1.0 / step, budget)
    count = round(1.0 / step)
    return tuple(i / count for i in range(count + 1))


def _with_bounds(*values: Iterable[float]) -> tuple[float, ...]:
    """The given values plus 0 and 1, ascending, each once."""
    return tuple(sorted({0.0, 1.0}.union(*values)))


def _bracket(check, formula, found, levels, attainable) -> dict:
    """``found``, the optimum over ``levels``, never below ``formula``, and when
    ``attainable`` within half the largest gap of ``levels`` above it."""
    ok = found >= formula - TOLERANCE
    if attainable:
        half_gap = max(b - a for a, b in zip(levels, levels[1:])) / 2
        ok = ok and found <= formula + half_gap + TOLERANCE
    return {"check": check, "formula": formula, "grid": found, "ok": ok}


def system_checks(sys: RelationalSystem, levels: tuple[float, ...], budget: int) -> list[dict]:
    """The distance formula against a grid search over right-hand sides on
    ``levels``, within ``TOLERANCE``, the potential solution against every
    enumerated solution, and zero distance against consistency.  With every
    matrix entry a level, a solution rounded to the levels reaches the optimal
    rhs rounded."""
    formula = chebyshev_distance(sys).distance
    grid = grid_chebyshev(sys, levels, budget)
    on_grid = set(levels).issuperset(itertools.chain.from_iterable(sys.matrix))
    checks = [_bracket("chebyshev distance formula vs grid search", formula, grid, levels,
                       on_grid)]
    # solution candidates only need the system's own values plus the bounds;
    # a finer grid multiplies the search without new lattice behavior
    candidates = _with_bounds(*sys.matrix, sys.rhs)
    extremal = potential_solution(sys)
    le = sys.kind.order.le
    ok = all(all(map(le, sol, extremal)) for sol in enumerate_solutions(sys, candidates, budget))
    if sys.kind.order.dual:
        name = "every enumerated solution above the lowest vector"
    else:
        name = "every enumerated solution below the greatest vector"
    checks.append({"check": name, "ok": ok})
    solves = apply_system(sys, extremal) == sys.rhs
    checks.append(
        {
            "check": "distance is zero exactly on consistent systems",
            "ok": (formula == 0.0) == solves,
        }
    )
    return checks


def learning_check(ts: TrainingSet, q: int, mode: str, budget: int) -> dict:
    """The minimal ``mode`` ("qmax" or "qmin") learning error, as the
    approximate learner reports it, against an exhaustive capacity search.
    Its levels hold every coordinate, so when the boundary holds the optimal
    capacity rounded to them reaches the optimal integrals rounded."""
    learner = learn(ts, LearnMode(mode + "_approx"), q)
    # capacity values beyond the data's own levels cannot improve the fit,
    # so the exhaustive search enumerates over exactly those
    levels = _with_bounds(*(item.x for item in ts.items), ts.targets())
    err, _ = min_learning_error(ts, levels, budget, q, _Q_KINDS[mode])
    return _bracket(f"minimal {mode} learning error vs exhaustive grid search",
                    learner.distance, err, levels, learner.boundary_ok)


def training_checks(
    ts: TrainingSet, levels: tuple[float, ...], budget: int,
    q: int | None = None, mode: str | None = None,
) -> list[dict]:
    """:func:`system_checks` on the system of ``ts`` for ``mode`` ("qmax" by
    default, or "qmin") up to q (default n), then :func:`learning_check`."""
    q, mode = ts.n if q is None else q, mode or "qmax"
    checks = system_checks(build_system(ts, _Q_KINDS[mode], q), levels, budget)
    return checks + [learning_check(ts, q, mode, budget)]
