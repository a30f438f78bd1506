"""Brute-force verifiers for the solver's extremality and optimality claims.

Everything here enumerates: capacities over a finite grid of values,
solution vectors of a system, consistent right-hand sides, and the minimal
learning error over constrained capacities.  Searches are bounded by an
explicit budget and refuse deterministically when the estimate exceeds it;
iteration order is fixed, so oracle outputs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .capacity import Capacity, is_q_maxitive, is_q_minitive
from .chebyshev import chebyshev_distance
from .errors import BudgetError, DomainError
from .learning import LearnMode, TrainingSet, learn
from .relational import (
    RelationalSystem,
    SolutionVector,
    apply_system,
    potential_solution,
    vector_for_rhs,
)
from .scale import Scale
from .subsets import check_criteria_count, drop_one_bit
from .sugeno import sugeno_maxmin

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """Value grid and shape for exhaustive searches.

    ``q_mode`` restricts capacity enumeration to "qmax" (q-maxitive) or
    "qmin" (q-minitive) tables.  Enumerated capacities are returned on the
    unit-interval scale so they compose with any [0, 1] data.
    """

    levels: tuple[float, ...]
    n: int
    q_mode: str | None = None
    q: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        check_criteria_count(self.n)
        if not self.levels:
            raise DomainError("grid needs at least one level")
        if any(not 0.0 <= v <= 1.0 for v in self.levels):
            raise DomainError("grid levels must lie in [0, 1]")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise DomainError("grid levels must be strictly increasing")
        if 0.0 not in self.levels or 1.0 not in self.levels:
            raise DomainError("grid must contain 0 and 1")
        if self.q_mode is not None:
            if self.q_mode not in ("qmax", "qmin"):
                raise DomainError(f"unknown constraint {self.q_mode!r}")
            if self.q is None or not 1 <= self.q <= self.n:
                raise DomainError(f"constraint {self.q_mode!r} needs q in 1..{self.n}")
        if self.budget < 1:
            raise DomainError("budget must be positive")

    def constraint_holds(self, mu: Capacity) -> bool:
        if self.q_mode == "qmax":
            return is_q_maxitive(mu, self.q)
        if self.q_mode == "qmin":
            return is_q_minitive(mu, self.q)
        return True


def _guard(estimate: int, budget: int, what: str) -> None:
    if estimate > budget:
        raise BudgetError(
            f"{what} would enumerate ~{estimate} candidates, over the budget of {budget}",
            estimate,
            budget,
        )


def capacity_count_estimate(spec: GridSpec) -> int:
    """Upper bound: free choices on every subset except the two boundaries."""
    free = (1 << spec.n) - 2
    return len(spec.levels) ** free


def enumerate_capacities(spec: GridSpec) -> Iterator[Capacity]:
    """Every monotone boundary-normalized table over the grid, canonically ordered.

    Backtracks over subsets in ascending mask order; each value is chosen at
    or above the values of the covered subsets, which are always assigned
    first.  Duplicate-free by construction.  The q constraint, when set,
    filters the stream.
    """
    _guard(capacity_count_estimate(spec), spec.budget, "capacity enumeration")
    scale = Scale.unit_interval()
    size = 1 << spec.n
    table = [0.0] * size

    def rec(mask: int) -> Iterator[Capacity]:
        if mask == size - 1:
            table[mask] = 1.0
            mu = Capacity(spec.n, scale, tuple(table))
            if spec.constraint_holds(mu):
                yield mu
            return
        floor = max(table[sub] for sub in drop_one_bit(mask)) if mask else 0.0
        for v in spec.levels:
            if v < floor:
                continue
            table[mask] = v
            yield from rec(mask + 1)

    yield from rec(1)


def enumerate_solutions(sys: RelationalSystem, spec: GridSpec) -> Iterator[SolutionVector]:
    """Every vector over the grid that solves the system exactly."""
    _guard(len(spec.levels) ** sys.n_cols, spec.budget, "solution enumeration")
    for combo in itertools.product(spec.levels, repeat=sys.n_cols):
        if apply_system(sys, combo) == sys.rhs:
            yield SolutionVector(sys.column_labels, combo)


def _consistent_for_rhs(sys: RelationalSystem, rhs: tuple[float, ...]) -> bool:
    # Re-solve against a candidate rhs; candidates come from the grid and
    # need not be members of the system's declared scale.
    return apply_system(sys, vector_for_rhs(sys, rhs)) == rhs


def grid_chebyshev(sys: RelationalSystem, spec: GridSpec) -> float:
    """Smallest max-norm gap between the rhs and a grid-consistent rhs.

    Candidates are scanned in increasing distance from the actual rhs, so
    the first consistent one is the grid optimum.  The all-zeros (max-min)
    or all-ones (min-max) candidate is always consistent, so the scan
    terminates.
    """
    _guard(len(spec.levels) ** sys.n_rows, spec.budget, "rhs grid search")
    candidates = sorted(
        itertools.product(spec.levels, repeat=sys.n_rows),
        key=lambda c: (max(abs(a - b) for a, b in zip(c, sys.rhs)), c),
    )
    for c in candidates:
        if _consistent_for_rhs(sys, c):
            return max(abs(a - b) for a, b in zip(c, sys.rhs))
    raise AssertionError("grid contains no consistent rhs; grid must include 0 and 1")


def min_learning_error(ts: TrainingSet, spec: GridSpec) -> tuple[float, Capacity]:
    """Exhaustive minimal worst-case fitting error over constrained capacities.

    Returns the error together with the first capacity attaining it in
    enumeration order.
    """
    if ts.n != spec.n:
        raise DomainError(f"training set has n={ts.n}, grid spec has n={spec.n}")
    best_err: float | None = None
    best_mu: Capacity | None = None
    for mu in enumerate_capacities(spec):
        err = max(abs(sugeno_maxmin(mu, item.x) - item.alpha) for item in ts.items)
        if best_err is None or err < best_err:
            best_err, best_mu = err, mu
    assert best_mu is not None  # the grid always admits at least one capacity
    return best_err, best_mu


def grid_levels(step: float) -> tuple[float, ...]:
    """Evenly spaced levels 0, 1/k, ..., 1 with k = round(1 / step)."""
    if not 0.0 < step <= 1.0:
        raise DomainError(f"grid step must be in (0, 1], got {step}")
    count = round(1.0 / step)
    return tuple(i / count for i in range(count + 1))


def system_checks(
    sys: RelationalSystem, levels: tuple[float, ...], step: float, budget: int
) -> list[dict]:
    """The distance formula against a grid search over right-hand sides on
    ``levels`` (grid spacing ``step``), the potential solution against every
    enumerated solution, and zero distance against consistency."""
    formula = chebyshev_distance(sys).distance
    grid = grid_chebyshev(sys, GridSpec(levels, 1, budget=budget))
    tol = sys.scale.tol
    checks = [
        {
            "check": "chebyshev distance formula vs grid search",
            "formula": formula,
            "grid": grid,
            "ok": grid >= formula - tol and abs(formula - grid) <= step + tol,
        }
    ]
    # solution candidates only need the system's own values plus the bounds;
    # a finer grid multiplies the search without new lattice behavior
    enum_levels = tuple(
        sorted({0.0, 1.0} | {v for row in sys.matrix for v in row} | set(sys.rhs))
    )
    enum_spec = GridSpec(enum_levels, 1, budget=budget)
    extremal = potential_solution(sys).values
    le = sys.kind.order.le
    ok = all(
        all(map(le, sol.values, extremal)) for sol in enumerate_solutions(sys, enum_spec)
    )
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
    approximate learner reports it, against an exhaustive capacity search."""
    learner = learn(ts, LearnMode(mode + "_approx"), q)
    formula = learner.distance
    # capacity values beyond the data's own levels cannot improve the fit,
    # so the exhaustive search enumerates over exactly those
    levels = tuple(
        sorted({0.0, 1.0} | {v for item in ts.items for v in item.x} | set(ts.targets()))
    )
    spec = GridSpec(levels, ts.n, q_mode=mode, q=q, budget=budget)
    err, _ = min_learning_error(ts, spec)
    tol = ts.scale.tol
    resolution = max(b - a for a, b in zip(levels, levels[1:]))
    ok = err >= formula - tol
    if learner.boundary_ok:
        # the formula is attainable, so the grid optimum lands within one gap
        ok = ok and err <= formula + resolution + tol
    return {
        "check": f"minimal {mode} learning error vs exhaustive grid search",
        "formula": formula,
        "grid": err,
        "ok": ok,
    }
