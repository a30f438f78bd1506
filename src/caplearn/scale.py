"""Evaluation scales: finite chains in [0, 1] and the unit interval itself.

A scale is the totally ordered value set shared by objects, targets and
capacities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from .errors import DomainError

_NUMBER_TYPES = frozenset((int, float))


# the one rule for what is a number on a scale; a bool is not, though
# True == 1.0 would pass it for a member
def _number_type(t: type) -> bool:
    """True for int, float and their subclasses (numpy.float64) and for the
    other integers (numpy.int64, a ``numbers.Integral``); not for bool, nor
    for numpy.bool_, which is no ``numbers.Integral``."""
    return issubclass(t, (int, float, numbers.Integral)) and not issubclass(t, bool)


def _digits(v: int) -> int:
    """The decimal digits of a nonzero int's ``abs``, counted with no decimal
    conversion, which Python refuses past ``sys.get_int_max_str_digits()``."""
    v = abs(v)
    d = int(math.log10(v)) + 1  # off by at most one
    return d + (v >= 10**d) - (v < 10 ** (d - 1))


def _shown(v: object) -> str:
    """``repr(v)``, or for an int past that limit, its size."""
    try:
        return repr(v)
    except ValueError:
        return f"<an integer of {_digits(v)} digits>"


class ScaleKind(Enum):
    FINITE_CHAIN = "finite_chain"
    UNIT_INTERVAL = "unit_interval"


@dataclass(frozen=True)
class Scale:
    """An evaluation scale, whose lattice operations are exact.

    Finite chains keep their levels as floats; membership tests use exact
    float equality, so data must be produced by the same parse/arithmetic
    as the levels themselves.  Values not on a declared chain are rejected,
    never rounded.
    """

    kind: ScaleKind
    levels: tuple[float, ...] | None = None
    _level_set: frozenset[float] = field(
        init=False, repr=False, compare=False, default_factory=frozenset
    )

    def __post_init__(self) -> None:
        if self.kind is ScaleKind.UNIT_INTERVAL:
            if self.levels is not None:
                raise DomainError("unit-interval scale does not take levels")
            return
        levels = self.levels
        if levels is None or len(levels) < 2:
            raise DomainError("finite chain needs at least the two levels 0 and 1")
        for v in levels:
            if not _number_type(type(v)):
                raise DomainError(f"chain level {v!r} is not a number")
        if levels[0] != 0.0 or levels[-1] != 1.0:
            raise DomainError("chain levels must start at 0 and end at 1")
        # compared, never converted first: a NaN, an infinity or an int past
        # float range fails one of these comparisons
        if any(not a < b for a, b in zip(levels, levels[1:])):
            raise DomainError("chain levels must be strictly increasing")
        levels = tuple(map(float, levels))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_level_set", frozenset(levels))

    @classmethod
    def unit_interval(cls) -> Scale:
        return cls(ScaleKind.UNIT_INTERVAL)

    @classmethod
    def finite_chain(cls, levels: Iterable[float]) -> Scale:
        return cls(ScaleKind.FINITE_CHAIN, tuple(levels))

    @classmethod
    def uniform_chain(cls, steps: int) -> Scale:
        """Chain 0, 1/steps, 2/steps, ..., 1 built by exact float division."""
        if isinstance(steps, bool) or not isinstance(steps, int):
            raise DomainError(f"uniform chain steps must be an integer, got {steps!r}")
        if steps < 1:
            raise DomainError("uniform chain needs at least one step")
        return cls.finite_chain((i / steps for i in range(steps + 1)))

    def contains(self, value: float) -> bool:
        """True iff ``value`` is on the scale: :meth:`floats` of the one value."""
        return self.floats((value,)) is not None

    def floats(self, values: Iterable[float]) -> tuple[float, ...] | None:
        """The values as floats if each is a number (``_number_type``) on the
        scale, else None; a tuple of floats comes back as given.

        One type scan, then one bulk pass: on the unit interval the bounds of
        min and max, then a sum that only a NaN makes NaN (min and max skip a
        NaN unless it comes first, and then fail the bound); on a chain, the
        set of distinct values against the set of levels.
        """
        vs = tuple(values)
        types = set(map(type, vs))
        if not (types <= _NUMBER_TYPES or all(map(_number_type, types))):
            return None
        if self.kind is ScaleKind.UNIT_INTERVAL:
            held = not vs or (0.0 <= min(vs) and max(vs) <= 1.0 and not math.isnan(sum(vs)))
        else:
            held = set(vs) <= self._level_set
        if not held:
            return None
        return vs if types <= {float} else tuple(map(float, vs))

    def require(self, value: float, what: str = "value") -> float:
        """The one-value case of :meth:`require_floats`, the value named ``what``."""
        return self.require_floats((value,), lambda _: what)[0]

    def require_floats(
        self, values: Iterable[float], what: Callable[[int], str]
    ) -> tuple[float, ...]:
        """:meth:`floats`, or when some value is not a member, a
        ``DomainError`` that names the first such value, the one at index i
        as ``what(i)``."""
        vs = tuple(values)
        floats = self.floats(vs)
        if floats is None:
            i, v = next((i, v) for i, v in enumerate(vs) if not self.contains(v))
            raise DomainError(f"{what(i)} {_shown(v)} is not a member of {self.describe()}")
        return floats

    def describe(self) -> str:
        if self.kind is ScaleKind.UNIT_INTERVAL:
            return "the unit interval [0, 1]"
        return f"the {len(self.levels)}-level chain"

