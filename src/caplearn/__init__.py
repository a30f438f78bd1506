"""caplearn: learning capacities for Sugeno integrals from training data.

The package solves the max-min and min-max systems of fuzzy relational
equations induced by a training set to recover the greatest and lowest
representing capacities, reduces the systems by subset cardinality to learn
q-maxitive and q-minitive capacities, and falls back to Chebyshev-distance
approximation when the reduced systems are inconsistent.
"""

from .capacity import (
    Capacity,
    capacity_violations,
    is_q_maxitive,
    is_q_minitive,
)
from .chebyshev import DistanceReport, chebyshev_distance, relaxed_rhs
from .errors import BudgetError, CaplearnError, DomainError, FormatError
from .learning import (
    DataViolation,
    LearnMode,
    LearnReport,
    TrainingDatum,
    TrainingSet,
    build_system,
    learn,
    validate_data,
)
from .oracle import (
    enumerate_capacities,
    enumerate_solutions,
    grid_chebyshev,
    min_learning_error,
)
from .relational import RelationalSystem, SystemKind, apply_system, potential_solution
from .scale import Scale, ScaleKind
from .sugeno import integrals, sugeno_maxmin, sugeno_minmax, sugeno_qmax, sugeno_qmin

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Capacity",
    "CaplearnError",
    "DataViolation",
    "DistanceReport",
    "DomainError",
    "FormatError",
    "LearnMode",
    "LearnReport",
    "RelationalSystem",
    "Scale",
    "ScaleKind",
    "SystemKind",
    "TrainingDatum",
    "TrainingSet",
    "apply_system",
    "build_system",
    "capacity_violations",
    "chebyshev_distance",
    "enumerate_capacities",
    "enumerate_solutions",
    "grid_chebyshev",
    "integrals",
    "is_q_maxitive",
    "is_q_minitive",
    "learn",
    "min_learning_error",
    "potential_solution",
    "relaxed_rhs",
    "sugeno_maxmin",
    "sugeno_minmax",
    "sugeno_qmax",
    "sugeno_qmin",
    "validate_data",
]
