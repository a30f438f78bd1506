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
    conjugate,
    is_capacity,
    is_q_maxitive,
    is_q_minitive,
)
from .chebyshev import (
    DistanceReport,
    chebyshev_distance,
    cross_gap_maxmin,
    cross_gap_minmax,
    greatest_approx_solution,
    lower_bound_rhs,
    lowest_approx_solution,
    upper_bound_rhs,
)
from .errors import BudgetError, CaplearnError, DomainError, FormatError
from .learning import (
    DataViolation,
    LearnMode,
    LearnReport,
    TrainingDatum,
    TrainingSet,
    build_maxmin_system,
    build_minmax_system,
    learn,
    learn_greatest,
    learn_lowest,
    learn_qmax,
    learn_qmax_approx,
    learn_qmin,
    learn_qmin_approx,
    qmax_capacity_from_solution,
    qmin_capacity_from_solution,
    validate_data,
)
from .oracle import (
    GridSpec,
    enumerate_capacities,
    enumerate_solutions,
    grid_chebyshev,
    min_learning_error,
)
from .relational import (
    RelationalSystem,
    SolutionVector,
    SystemKind,
    apply_system,
    eps_prod,
    godel_imp,
    is_consistent,
    maxmin_apply,
    minmax_apply,
    potential_greatest,
    potential_lowest,
)
from .scale import Scale, ScaleKind, iota
from .sugeno import (
    sugeno_maxmin,
    sugeno_minmax,
    sugeno_qmax,
    sugeno_qmax_unchecked,
    sugeno_qmin,
    sugeno_qmin_unchecked,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Capacity",
    "CaplearnError",
    "DataViolation",
    "DistanceReport",
    "DomainError",
    "FormatError",
    "GridSpec",
    "LearnMode",
    "LearnReport",
    "RelationalSystem",
    "Scale",
    "ScaleKind",
    "SolutionVector",
    "SystemKind",
    "TrainingDatum",
    "TrainingSet",
    "apply_system",
    "build_maxmin_system",
    "build_minmax_system",
    "capacity_violations",
    "chebyshev_distance",
    "conjugate",
    "cross_gap_maxmin",
    "cross_gap_minmax",
    "enumerate_capacities",
    "enumerate_solutions",
    "eps_prod",
    "godel_imp",
    "greatest_approx_solution",
    "grid_chebyshev",
    "iota",
    "is_capacity",
    "is_consistent",
    "is_q_maxitive",
    "is_q_minitive",
    "learn",
    "learn_greatest",
    "learn_lowest",
    "learn_qmax",
    "learn_qmax_approx",
    "learn_qmin",
    "learn_qmin_approx",
    "lower_bound_rhs",
    "lowest_approx_solution",
    "maxmin_apply",
    "min_learning_error",
    "minmax_apply",
    "potential_greatest",
    "potential_lowest",
    "qmax_capacity_from_solution",
    "qmin_capacity_from_solution",
    "sugeno_maxmin",
    "sugeno_minmax",
    "sugeno_qmax",
    "sugeno_qmax_unchecked",
    "sugeno_qmin",
    "sugeno_qmin_unchecked",
    "upper_bound_rhs",
    "validate_data",
]
