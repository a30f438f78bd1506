import random
from itertools import product

import pytest

from caplearn import (
    BudgetError,
    DomainError,
    GridSpec,
    LearnMode,
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingSet,
    apply_system,
    build_system,
    chebyshev_distance,
    enumerate_capacities,
    enumerate_solutions,
    grid_chebyshev,
    is_capacity,
    is_q_maxitive,
    is_q_minitive,
    learn,
    min_learning_error,
    potential_solution,
    sugeno_maxmin,
)

from helpers import (
    FIVE_LEVELS,
    random_system,
    random_training_set,
    reference_training_set,
)

UNIT = Scale.unit_interval()
COARSE = (0.0, 0.5, 1.0)


class TestEnumerateCapacities:
    def test_single_criterion_has_one_capacity(self):
        caps = list(enumerate_capacities(GridSpec(COARSE, 1)))
        assert len(caps) == 1
        assert caps[0].values == (0.0, 1.0)

    def test_two_criteria_binary_levels(self):
        caps = list(enumerate_capacities(GridSpec((0.0, 1.0), 2)))
        assert len(caps) == 4

    def test_two_criteria_three_levels(self):
        caps = list(enumerate_capacities(GridSpec(COARSE, 2)))
        assert len(caps) == 9

    def test_all_yields_are_capacities(self):
        for spec in (GridSpec(COARSE, 3), GridSpec(FIVE_LEVELS, 2)):
            caps = list(enumerate_capacities(spec))
            assert len(caps) == len({c.values for c in caps})  # duplicate-free
            for mu in caps:
                assert is_capacity(mu.values, spec.n)

    def test_matches_product_filter_count(self):
        # independent count: filter raw tables over the grid
        for levels, n in ((COARSE, 2), (FIVE_LEVELS, 2), (COARSE, 3)):
            expected = 0
            free = (1 << n) - 2
            for combo in product(levels, repeat=free):
                values = (0.0,) + combo + (1.0,)
                if is_capacity(values, n):
                    expected += 1
            got = len(list(enumerate_capacities(GridSpec(levels, n))))
            assert got == expected

    def test_q_constraint_filters(self):
        qmax = list(enumerate_capacities(GridSpec(COARSE, 2, q_mode="qmax", q=1)))
        assert len(qmax) == 5  # one of the two singletons must reach 1
        assert all(is_q_maxitive(mu, 1) for mu in qmax)
        qmin = list(enumerate_capacities(GridSpec(COARSE, 2, q_mode="qmin", q=1)))
        assert len(qmin) == 5  # dual count: one singleton pinned at 0
        assert all(is_q_minitive(mu, 1) for mu in qmin)

    def test_budget_refusal_carries_estimate(self):
        spec = GridSpec(tuple(i / 20 for i in range(21)), 4, budget=1000)
        with pytest.raises(BudgetError) as err:
            list(enumerate_capacities(spec))
        assert err.value.estimate > err.value.budget

    def test_deterministic_order(self):
        spec = GridSpec(FIVE_LEVELS, 2)
        first = [mu.values for mu in enumerate_capacities(spec)]
        second = [mu.values for mu in enumerate_capacities(spec)]
        assert first == second


class TestEnumerateSolutions:
    def test_consistent_system_contains_extremal_vector(self):
        rng = random.Random(61)
        for _ in range(30):
            sys_ = random_system(rng, SystemKind.MAX_MIN, 2, 3, FIVE_LEVELS)
            rhs = apply_system(sys_, tuple(rng.choice(FIVE_LEVELS) for _ in range(3)))
            sys_ = RelationalSystem(
                SystemKind.MAX_MIN, sys_.matrix, rhs, sys_.column_labels, sys_.scale
            )
            e = potential_solution(sys_)
            sols = list(enumerate_solutions(sys_, GridSpec(FIVE_LEVELS, 1)))
            assert any(s.values == e.values for s in sols)
            assert all(
                all(v <= ev for v, ev in zip(s.values, e.values)) for s in sols
            )

    def test_minmax_solutions_dominate_lowest_vector(self):
        rng = random.Random(62)
        for _ in range(30):
            sys_ = random_system(rng, SystemKind.MIN_MAX, 2, 3, FIVE_LEVELS)
            rhs = tuple(
                min(max(a, x) for a, x in zip(row, (0.5, 0.5, 0.5)))
                for row in sys_.matrix
            )
            sys_ = RelationalSystem(
                SystemKind.MIN_MAX, sys_.matrix, rhs, sys_.column_labels, sys_.scale
            )
            f = potential_solution(sys_)
            sols = list(enumerate_solutions(sys_, GridSpec(FIVE_LEVELS, 1)))
            assert any(s.values == f.values for s in sols)
            assert all(
                all(v >= fv for v, fv in zip(s.values, f.values)) for s in sols
            )

    def test_inconsistent_system_yields_nothing(self):
        sys_ = RelationalSystem(
            SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT
        )
        assert list(enumerate_solutions(sys_, GridSpec(FIVE_LEVELS, 1))) == []

    def test_budget_guard(self):
        rng = random.Random(63)
        sys_ = random_system(rng, SystemKind.MAX_MIN, 2, 10, FIVE_LEVELS)
        with pytest.raises(BudgetError):
            list(enumerate_solutions(sys_, GridSpec(FIVE_LEVELS, 1, budget=100)))


class TestGridChebyshev:
    def test_consistent_rhs_gives_zero(self):
        ts = reference_training_set()
        sys_ = build_system(ts, SystemKind.MAX_MIN)
        levels = tuple(i / 20 for i in range(21))
        assert grid_chebyshev(sys_, GridSpec(levels, 1)) == 0.0

    def test_single_cell_example(self):
        sys_ = RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT)
        levels = tuple(i / 20 for i in range(21))
        assert grid_chebyshev(sys_, GridSpec(levels, 1)) == pytest.approx(0.3, abs=1e-12)

    def test_sandwich_against_formula(self):
        rng = random.Random(64)
        levels = tuple(i / 20 for i in range(21))
        spec = GridSpec(levels, 1)
        for _ in range(40):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 3), rng.randint(1, 5), levels)
            formula = chebyshev_distance(sys_).distance
            grid = grid_chebyshev(sys_, spec)
            assert grid >= formula - 1e-9
            assert abs(grid - formula) <= 0.05 + 1e-12

    def test_budget_guard(self):
        rng = random.Random(65)
        sys_ = random_system(rng, SystemKind.MAX_MIN, 8, 2, FIVE_LEVELS)
        with pytest.raises(BudgetError):
            grid_chebyshev(sys_, GridSpec(FIVE_LEVELS, 1, budget=1000))


class TestMinLearningError:
    def test_zero_on_representable_data(self):
        # grid holding every learned value, so the greatest capacity witnesses
        ts = reference_training_set()
        levels = (0.0, 0.2, 0.3, 0.4, 1.0)
        err, mu = min_learning_error(ts, GridSpec(levels, 3, q_mode="qmax", q=2))
        assert err == 0.0
        assert is_q_maxitive(mu, 2)

    def test_error_brackets_formula_distance(self):
        # the exhaustive error never beats the formula; it matches it to one
        # grid step whenever the approximate-solution hypothesis holds
        rng = random.Random(66)
        levels = FIVE_LEVELS
        bracketed = 0
        for _ in range(12):
            ts = TrainingSet.from_pairs(
                2,
                UNIT,
                [
                    ((rng.choice(levels), rng.choice(levels)), rng.choice(levels))
                    for _ in range(3)
                ],
            )
            formula = chebyshev_distance(build_system(ts, SystemKind.MAX_MIN, 1)).distance
            err, _ = min_learning_error(ts, GridSpec(levels, 2, q_mode="qmax", q=1))
            assert err >= formula - 1e-9
            if learn(ts, LearnMode.QMAX_APPROX, 1).boundary_ok:
                assert err <= formula + 0.25 + 1e-9  # one grid step on this grid
                bracketed += 1
        assert bracketed >= 3

    def test_dimension_mismatch_rejected(self):
        ts = reference_training_set()
        with pytest.raises(DomainError):
            min_learning_error(ts, GridSpec(FIVE_LEVELS, 2))


class TestRepresentabilityNecessity:
    """Failed learning runs really mean no representing capacity exists.

    The canonical representing capacities take all their values in the
    target set plus the bounds, so exhaustive enumeration over those values
    is an exact existence oracle, not just a grid approximation.
    """

    def test_failed_qmax_runs_have_no_witness(self):
        rng = random.Random(67)
        failures = 0
        for _ in range(500):
            if failures >= 40:
                break
            ts = random_training_set(rng, 2, rng.randint(2, 4), FIVE_LEVELS)
            q = rng.randint(1, 2)
            if learn(ts, LearnMode.QMAX, q).capacity is not None:
                continue
            candidates = tuple(sorted({0.0, 1.0} | set(ts.targets())))
            spec = GridSpec(candidates, 2, q_mode="qmax", q=q)
            for mu in enumerate_capacities(spec):
                assert any(
                    sugeno_maxmin(mu, item.x) != item.alpha for item in ts.items
                )
            failures += 1
        assert failures >= 40

    def test_failed_qmin_runs_have_no_witness(self):
        rng = random.Random(68)
        failures = 0
        for _ in range(500):
            if failures >= 40:
                break
            ts = random_training_set(rng, 2, rng.randint(2, 4), FIVE_LEVELS)
            q = rng.randint(1, 2)
            if learn(ts, LearnMode.QMIN, q).capacity is not None:
                continue
            candidates = tuple(sorted({0.0, 1.0} | set(ts.targets())))
            spec = GridSpec(candidates, 2, q_mode="qmin", q=q)
            for mu in enumerate_capacities(spec):
                assert any(
                    sugeno_maxmin(mu, item.x) != item.alpha for item in ts.items
                )
            failures += 1
        assert failures >= 40

    def test_failed_unrestricted_runs_have_no_witness(self):
        rng = random.Random(69)
        failures = 0
        for _ in range(500):
            if failures >= 30:
                break
            n = rng.choice((2, 3))
            ts = random_training_set(rng, n, rng.randint(2, 4), FIVE_LEVELS)
            if learn(ts, LearnMode.GREATEST).capacity is not None:
                continue
            candidates = tuple(sorted({0.0, 1.0} | set(ts.targets())))
            for mu in enumerate_capacities(GridSpec(candidates, n)):
                assert any(
                    sugeno_maxmin(mu, item.x) != item.alpha for item in ts.items
                )
            failures += 1
        assert failures >= 30


class TestGridSpecValidation:
    def test_levels_must_cover_bounds(self):
        with pytest.raises(DomainError):
            GridSpec((0.0, 0.5), 2)
        with pytest.raises(DomainError):
            GridSpec((0.5, 1.0), 2)

    def test_constraint_needs_q(self):
        with pytest.raises(DomainError):
            GridSpec(COARSE, 2, q_mode="qmax")
        with pytest.raises(DomainError):
            GridSpec(COARSE, 2, q_mode="other", q=1)
