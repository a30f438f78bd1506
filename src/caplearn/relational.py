"""Systems of fuzzy relational equations and their extremal solutions.

A max-min system asserts, row by row, that the max over columns of
min(entry, unknown) hits the right-hand side; a min-max system is the order
dual.  Solving follows Sanchez: the residuated products below yield a
potential greatest (resp. lowest) solution, and the system is consistent
exactly when that vector reproduces the right-hand side.

Column labels are opaque here; the learning module attaches subset masks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Sequence

from .errors import DomainError
from .scale import Scale


def godel_imp(x: float, y: float) -> float:
    """Godel implication: 1 when x <= y, else y.  Residuum of min."""
    return 1.0 if x <= y else y


def eps_prod(x: float, y: float) -> float:
    """Epsilon product: y when x < y, else 0.  Dual tool for min-max systems."""
    return y if x < y else 0.0


@dataclass(frozen=True)
class Order:
    """The lattice order a system kind solves in.

    A max-min system reads [0, 1] as given; its min-max dual reads it upside
    down, so every routine is written once over this descriptor.  ``le`` is
    the order, ``join``/``meet`` its max/min, ``top``/``bottom`` its ends and
    ``residuum`` the Godel implication in it (the epsilon product when read
    upside down).  ``sign`` is +1.0 or -1.0: the direction in which a
    relaxed right-hand side moves, and the exact negation that maps the
    min-max side onto the max-min one.  The dual side indexes subsets by
    their complements: a min-max column is labeled by the set outside which
    it takes its max.
    """

    le: Callable[[float, float], bool]
    join: Callable[..., float]
    meet: Callable[..., float]
    top: float
    bottom: float
    residuum: Callable[[float, float], float]
    sign: float

    @property
    def dual(self) -> bool:
        return self.sign < 0.0

    def layer(self, n: int, q: int) -> int:
        """Cardinality of the boundary layer: q, or n - q on the dual side."""
        return n - q if self.dual else q


class SystemKind(Enum):
    MAX_MIN = "maxmin"
    MIN_MAX = "minmax"

    @property
    def order(self) -> Order:
        return _ORDERS[self]


_ORDERS = {
    SystemKind.MAX_MIN: Order(operator.le, max, min, 1.0, 0.0, godel_imp, 1.0),
    SystemKind.MIN_MAX: Order(operator.ge, min, max, 0.0, 1.0, eps_prod, -1.0),
}


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


def apply_system(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    """Row-wise join of meet(entry, v): max of min for max-min, min of max for min-max."""
    order = sys.kind.order
    vec = _vector(sys, v)
    return tuple(order.join(map(order.meet, row, vec)) for row in sys.matrix)


def vector_for_rhs(sys: RelationalSystem, rhs: Sequence[float]) -> tuple[float, ...]:
    """Column-wise meet of residuum(entry, rhs) against an arbitrary rhs.

    Used both for the potential extremal solution (rhs = the system's own)
    and by the oracle, whose candidate right-hand sides may be off-scale.
    """
    order = sys.kind.order
    return tuple(
        order.meet(map(order.residuum, column, rhs)) for column in zip(*sys.matrix)
    )


def potential_solution(sys: RelationalSystem) -> SolutionVector:
    """Sanchez's candidate: the greatest (max-min) or lowest (min-max)
    solution whenever the system is consistent.

    Computed for inconsistent systems as well; consumers decide what the
    vector means in that case.
    """
    return SolutionVector(sys.column_labels, vector_for_rhs(sys, sys.rhs))


def is_consistent(sys: RelationalSystem) -> bool:
    """Exact test: the potential extremal solution must reproduce the rhs.

    Equality is exact on purpose; every compared value is a max/min/selection
    of inputs, so float error cannot arise and a tolerance would only mask
    genuine inconsistency.
    """
    return apply_system(sys, potential_solution(sys).values) == sys.rhs
