"""Systems of fuzzy relational equations and their extremal solutions.

A max-min system asserts, row by row, that the max over columns of
min(entry, unknown) hits the right-hand side; a min-max system is the order
dual.  Solving follows Sanchez: the residuated products below yield a
potential greatest (resp. lowest) solution, and the system is consistent
exactly when that vector reproduces the right-hand side.

Column labels are opaque here; the learning module attaches subset masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Sequence

from .errors import DomainError
from .scale import Scale


class SystemKind(Enum):
    MAX_MIN = "maxmin"
    MIN_MAX = "minmax"


def godel_imp(x: float, y: float) -> float:
    """Godel implication: 1 when x <= y, else y.  Residuum of min."""
    return 1.0 if x <= y else y


def eps_prod(x: float, y: float) -> float:
    """Epsilon product: y when x < y, else 0.  Dual tool for min-max systems."""
    return y if x < y else 0.0


@dataclass(frozen=True)
class RelationalSystem:
    kind: SystemKind
    matrix: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    column_labels: tuple[Hashable, ...]
    scale: Scale

    def __post_init__(self) -> None:
        if len(self.matrix) < 1:
            raise DomainError("system needs at least one equation")
        m = len(self.column_labels)
        if m < 1:
            raise DomainError("system needs at least one column")
        if len(set(self.column_labels)) != m:
            raise DomainError("column labels must be unique")
        if len(self.rhs) != len(self.matrix):
            raise DomainError(
                f"right-hand side has {len(self.rhs)} entries for {len(self.matrix)} equations"
            )
        on_scale = self.scale.contains_all
        if all(len(row) == m and on_scale(row) for row in self.matrix) and on_scale(self.rhs):
            return
        # some entry fails: find the first one and name it
        for k, row in enumerate(self.matrix):
            if len(row) != m:
                raise DomainError(f"row {k} has {len(row)} entries, expected {m}")
            for j, v in enumerate(row):
                self.scale.require(v, f"matrix entry ({k}, {j})")
        for k, v in enumerate(self.rhs):
            self.scale.require(v, f"right-hand side entry {k}")

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.column_labels)


@dataclass(frozen=True)
class SolutionVector:
    """A candidate solution aligned with a system's columns."""

    labels: tuple[Hashable, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise DomainError("labels and values must have the same length")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def value_of(self, label: Hashable) -> float:
        return self.values[self.labels.index(label)]

    def as_dict(self) -> dict[Hashable, float]:
        return dict(zip(self.labels, self.values))


def _vector(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    vec = tuple(v)
    if len(vec) != sys.n_cols:
        raise DomainError(f"vector has {len(vec)} entries, system has {sys.n_cols} columns")
    return vec


def _require_kind(sys: RelationalSystem, kind: SystemKind, op: str) -> None:
    if sys.kind is not kind:
        raise DomainError(f"{op} expects a {kind.value} system, got {sys.kind.value}")


def maxmin_apply(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    """Row-wise max of min(entry, v)."""
    _require_kind(sys, SystemKind.MAX_MIN, "maxmin_apply")
    vec = _vector(sys, v)
    return tuple(max(min(a, x) for a, x in zip(row, vec)) for row in sys.matrix)


def minmax_apply(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    """Row-wise min of max(entry, v)."""
    _require_kind(sys, SystemKind.MIN_MAX, "minmax_apply")
    vec = _vector(sys, v)
    return tuple(min(max(a, x) for a, x in zip(row, vec)) for row in sys.matrix)


def apply_system(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    if sys.kind is SystemKind.MAX_MIN:
        return maxmin_apply(sys, v)
    return minmax_apply(sys, v)


def greatest_vector_for_rhs(sys: RelationalSystem, rhs: Sequence[float]) -> tuple[float, ...]:
    """Column-wise min of godel_imp(entry, rhs) against an arbitrary rhs.

    Used both for the potential greatest solution (rhs = the system's own)
    and for approximate solving, where the relaxed rhs may be off-scale.
    """
    return tuple(
        min(godel_imp(sys.matrix[k][j], rhs[k]) for k in range(sys.n_rows))
        for j in range(sys.n_cols)
    )


def lowest_vector_for_rhs(sys: RelationalSystem, rhs: Sequence[float]) -> tuple[float, ...]:
    """Column-wise max of eps_prod(entry, rhs) against an arbitrary rhs."""
    return tuple(
        max(eps_prod(sys.matrix[k][j], rhs[k]) for k in range(sys.n_rows))
        for j in range(sys.n_cols)
    )


def potential_greatest(sys: RelationalSystem) -> SolutionVector:
    """Sanchez's candidate: greatest solution whenever the system is consistent.

    Computed for inconsistent systems as well; consumers decide what the
    vector means in that case.
    """
    _require_kind(sys, SystemKind.MAX_MIN, "potential_greatest")
    return SolutionVector(sys.column_labels, greatest_vector_for_rhs(sys, sys.rhs))


def potential_lowest(sys: RelationalSystem) -> SolutionVector:
    """Dual candidate: lowest solution whenever the min-max system is consistent."""
    _require_kind(sys, SystemKind.MIN_MAX, "potential_lowest")
    return SolutionVector(sys.column_labels, lowest_vector_for_rhs(sys, sys.rhs))


def is_consistent(sys: RelationalSystem) -> bool:
    """Exact test: the potential extremal solution must reproduce the rhs.

    Equality is exact on purpose; every compared value is a max/min/selection
    of inputs, so float error cannot arise and a tolerance would only mask
    genuine inconsistency.
    """
    if sys.kind is SystemKind.MAX_MIN:
        e = greatest_vector_for_rhs(sys, sys.rhs)
        return maxmin_apply(sys, e) == sys.rhs
    f = lowest_vector_for_rhs(sys, sys.rhs)
    return minmax_apply(sys, f) == sys.rhs
