"""Systems of fuzzy relational equations and their extremal solutions.

A max-min system asserts, row by row, that the max over columns of
min(entry, unknown) hits the right-hand side; a min-max system is the order
dual.  Solving follows Sanchez: the residuated products below yield a
potential greatest (resp. lowest) solution, and the system is consistent
exactly when that vector reproduces the right-hand side.

Vectors are plain tuples in column order; column labels are opaque here,
and the learning module attaches subset masks.  ``learn`` finds the same
solutions without building a system (see ``learning._solve``); these
routines serve the ``distance`` and ``oracle`` commands.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Hashable, Sequence

from .errors import DomainError
from .scale import Scale


@dataclass(frozen=True)
class Order:
    """The lattice order a system kind solves in.

    A max-min system reads [0, 1] as given; its min-max dual reads it upside
    down, so every routine is written once over this descriptor.  ``le`` is
    the order, ``join``/``meet`` its max/min and ``top``/``bottom`` its ends;
    they fix the residuum, the top where an entry is within the target, else
    the target: the Godel implication, or read upside down the epsilon
    product.  ``sign`` is +1.0 or -1.0: the direction in which a relaxed
    right-hand side moves, and the exact negation that maps the min-max side
    onto the max-min one.  The dual side indexes subsets by their
    complements: a min-max column is labeled by the set outside which it
    takes its max.
    """

    le: Callable[[float, float], bool]
    join: Callable[..., float]
    meet: Callable[..., float]
    top: float
    bottom: float
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
    SystemKind.MAX_MIN: Order(operator.le, max, min, 1.0, 0.0, 1.0),
    SystemKind.MIN_MAX: Order(operator.ge, min, max, 0.0, 1.0, -1.0),
}


@dataclass(frozen=True)
class RelationalSystem:
    kind: SystemKind
    matrix: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    column_labels: tuple[Hashable, ...]
    scale: Scale

    def __post_init__(self) -> None:
        if type(self.column_labels) is not tuple:
            object.__setattr__(self, "column_labels", tuple(self.column_labels))
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
        # the entries of the rows before the first row of the wrong length
        # are checked in one pass, then the rhs in another; so a bad entry
        # is named before a later row's length
        matrix = self.matrix
        bad = next((k for k, row in enumerate(matrix) if len(row) != m), len(matrix))
        values = tuple(chain.from_iterable(matrix[:bad]))
        floats = self.scale.require_floats(
            values, lambda i: "matrix entry ({}, {})".format(*divmod(i, m))
        )
        if bad < len(matrix):
            raise DomainError(f"row {bad} has {len(matrix[bad])} entries, expected {m}")
        rhs = self.scale.require_floats(self.rhs, lambda k: f"right-hand side entry {k}")
        object.__setattr__(self, "rhs", rhs)
        # an int, a subclass, a list: keep tuples of floats
        if floats is not values or {type(matrix), *map(type, matrix)} != {tuple}:
            matrix = tuple(floats[r:r + m] for r in range(0, len(floats), m))
            object.__setattr__(self, "matrix", matrix)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.column_labels)


def apply_system(sys: RelationalSystem, v: Sequence[float]) -> tuple[float, ...]:
    """Row-wise join of meet(entry, v): max of min for max-min, min of max for min-max."""
    order = sys.kind.order
    vec = tuple(v)
    if len(vec) != sys.n_cols:
        raise DomainError(f"vector has {len(vec)} entries, system has {sys.n_cols} columns")
    return tuple(order.join(map(order.meet, row, vec)) for row in sys.matrix)


def vector_for_rhs(sys: RelationalSystem, rhs: Sequence[float]) -> tuple[float, ...]:
    """Column-wise meet of the residuum against an arbitrary rhs: the order's
    top where an entry is within its row's target, else the target (the
    Godel implication for max-min, the epsilon product for min-max).

    Used both for the potential extremal solution (rhs = the system's own)
    and by the oracle, whose candidate right-hand sides may be off-scale.
    """
    order = sys.kind.order
    le, top = order.le, order.top
    return tuple(
        order.meet([top if le(a, r) else r for a, r in zip(column, rhs)])
        for column in zip(*sys.matrix)
    )


def potential_solution(sys: RelationalSystem) -> tuple[float, ...]:
    """Sanchez's candidate: the greatest (max-min) or lowest (min-max)
    solution whenever the system is consistent, which holds exactly when
    applying the system to it gives back the rhs (every value compared is
    an input or a selection of inputs, so equality is exact).
    """
    return vector_for_rhs(sys, sys.rhs)
