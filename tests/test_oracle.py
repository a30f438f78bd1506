import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caplearn import (
    BudgetError,
    DomainError,
    LearnMode,
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingSet,
    apply_system,
    build_system,
    capacity_violations,
    chebyshev_distance,
    enumerate_capacities,
    enumerate_solutions,
    grid_chebyshev,
    is_q_maxitive,
    is_q_minitive,
    learn,
    min_learning_error,
    potential_solution,
    sugeno_maxmin,
)
from caplearn import oracle
from caplearn.io import load_data
from caplearn.oracle import DEFAULT_BUDGET, grid_levels, learning_check, system_checks

from helpers import (
    FIVE_LEVELS,
    grid_chebyshev_reference,
    random_system,
    random_training_set,
    reference_training_set,
)
from test_golden import GOLDEN

UNIT = Scale.unit_interval()
COARSE = (0.0, 0.5, 1.0)


class TestEnumerateCapacities:
    def test_single_criterion_has_one_capacity(self):
        caps = list(enumerate_capacities(1, COARSE))
        assert len(caps) == 1
        assert caps[0].values == (0.0, 1.0)

    def test_two_criteria_binary_levels(self):
        caps = list(enumerate_capacities(2, (0.0, 1.0)))
        assert len(caps) == 4

    def test_two_criteria_three_levels(self):
        caps = list(enumerate_capacities(2, COARSE))
        assert len(caps) == 9

    def test_all_yields_are_capacities(self):
        for n, levels in ((3, COARSE), (2, FIVE_LEVELS)):
            caps = list(enumerate_capacities(n, levels))
            assert len(caps) == len({c.values for c in caps})  # duplicate-free
            for mu in caps:
                assert not capacity_violations(mu.values, n)

    def test_matches_product_filter_count(self):
        # independent count: filter raw tables over the grid
        for levels, n in ((COARSE, 2), (FIVE_LEVELS, 2), (COARSE, 3)):
            expected = 0
            free = (1 << n) - 2
            for combo in product(levels, repeat=free):
                values = (0.0,) + combo + (1.0,)
                if not capacity_violations(values, n):
                    expected += 1
            got = len(list(enumerate_capacities(n, levels)))
            assert got == expected

    def test_q_constraint_filters(self):
        qmax = list(enumerate_capacities(2, COARSE, q=1))
        assert len(qmax) == 5  # one of the two singletons must reach 1
        assert all(is_q_maxitive(mu, 1) for mu in qmax)
        qmin = list(enumerate_capacities(2, COARSE, q=1, kind=SystemKind.MIN_MAX))
        assert len(qmin) == 5  # dual count: one singleton pinned at 0
        assert all(is_q_minitive(mu, 1) for mu in qmin)

    def test_budget_refusal_carries_estimate(self):
        with pytest.raises(BudgetError) as err:
            list(enumerate_capacities(4, tuple(i / 20 for i in range(21)), budget=1000))
        assert err.value.estimate > err.value.budget

    def test_deterministic_order(self):
        first = [mu.values for mu in enumerate_capacities(2, FIVE_LEVELS)]
        second = [mu.values for mu in enumerate_capacities(2, FIVE_LEVELS)]
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
            sols = list(enumerate_solutions(sys_, FIVE_LEVELS))
            assert e in sols
            assert all(all(v <= ev for v, ev in zip(s, e)) for s in sols)

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
            sols = list(enumerate_solutions(sys_, FIVE_LEVELS))
            assert f in sols
            assert all(all(v >= fv for v, fv in zip(s, f)) for s in sols)

    def test_inconsistent_system_yields_nothing(self):
        sys_ = RelationalSystem(
            SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT
        )
        assert list(enumerate_solutions(sys_, FIVE_LEVELS)) == []

    def test_budget_guard(self):
        rng = random.Random(63)
        sys_ = random_system(rng, SystemKind.MAX_MIN, 2, 10, FIVE_LEVELS)
        with pytest.raises(BudgetError):
            list(enumerate_solutions(sys_, FIVE_LEVELS, budget=100))


class TestGridChebyshev:
    def test_consistent_rhs_gives_zero(self):
        ts = reference_training_set()
        sys_ = build_system(ts, SystemKind.MAX_MIN)
        levels = tuple(i / 20 for i in range(21))
        assert grid_chebyshev(sys_, levels) == 0.0

    def test_single_cell_example(self):
        sys_ = RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT)
        levels = tuple(i / 20 for i in range(21))
        assert grid_chebyshev(sys_, levels) == pytest.approx(0.3, abs=1e-12)

    def test_sandwich_against_formula(self):
        rng = random.Random(64)
        levels = tuple(i / 20 for i in range(21))
        for _ in range(40):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 3), rng.randint(1, 5), levels)
            formula = chebyshev_distance(sys_).distance
            grid = grid_chebyshev(sys_, levels)
            assert grid >= formula - 1e-9
            assert abs(grid - formula) <= 0.05 + 1e-12

    def test_budget_guard(self):
        rng = random.Random(65)
        sys_ = random_system(rng, SystemKind.MAX_MIN, 8, 2, FIVE_LEVELS)
        with pytest.raises(BudgetError):
            grid_chebyshev(sys_, FIVE_LEVELS, budget=1000)


@st.composite
def grid_searches(draw):
    """A small system, entries and rhs off the grid too, and a grid whose
    candidate product stays under about 700 right-hand sides."""
    count = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 3 if count > 4 else 4))
    pool = draw(st.lists(st.sampled_from(FIVE_LEVELS + (-0.0, 0.1, 0.3, 0.6, 0.9)), min_size=1))
    value = st.sampled_from(pool)
    n_cols = draw(st.integers(1, 3))
    sys_ = RelationalSystem(
        draw(st.sampled_from(SystemKind)),
        tuple(tuple(draw(value) for _ in range(n_cols)) for _ in range(n_rows)),
        tuple(draw(value) for _ in range(n_rows)),
        tuple(range(n_cols)),
        UNIT,
    )
    return sys_, tuple(i / count for i in range(count + 1))


class TestGridChebyshevReference:
    @given(grid_searches())
    def test_matches_the_sorted_search(self, case):
        sys_, levels = case
        assert repr(grid_chebyshev(sys_, levels)) == repr(grid_chebyshev_reference(sys_, levels))


@st.composite
def on_grid_systems(draw):
    """A system with entries on the 1/k grid and its rhs anywhere on [0, 1]."""
    k = draw(st.sampled_from((2, 4, 5)))
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.integers(0, k).map(lambda i: i / k)
    sys_ = RelationalSystem(
        draw(st.sampled_from(SystemKind)),
        tuple(tuple(draw(entry) for _ in range(n_cols)) for _ in range(n_rows)),
        tuple(draw(st.floats(0.0, 1.0)) for _ in range(n_rows)),
        tuple(range(n_cols)),
        UNIT,
    )
    return sys_, k


class TestOracleBracket:
    """The grid optimum lies between the formula and half a gap above it
    when the data is on the grid, and anywhere above it when it is not."""

    @given(on_grid_systems())
    def test_grid_optimum_within_half_a_gap(self, case):
        sys_, k = case
        grid = grid_chebyshev(sys_, tuple(i / k for i in range(k + 1)))
        excess = grid - chebyshev_distance(sys_).distance
        assert -1e-9 <= excess <= 1 / (2 * k) + 1e-9

    @pytest.mark.parametrize("gaps, ok", [(0.5, True), (0.6, False)])
    def test_system_check_holds_on_grid_data_to_half_a_gap(self, monkeypatch, gaps, ok):
        sys_ = load_data(GOLDEN / "system_maxmin.json")
        formula = chebyshev_distance(sys_).distance
        monkeypatch.setattr(oracle, "grid_chebyshev", lambda *_: formula + gaps * 0.25)
        checks = system_checks(sys_, grid_levels(0.25, DEFAULT_BUDGET), DEFAULT_BUDGET)
        assert (checks[0]["formula"], checks[0]["ok"]) == (formula, ok)

    def test_system_check_off_the_grid_only_bounds_below(self, monkeypatch):
        sys_ = load_data(GOLDEN / "system_maxmin.json")
        levels = grid_levels(0.5, DEFAULT_BUDGET)  # 0.25 and 0.75 lie off it
        formula = chebyshev_distance(sys_).distance
        for found, ok in ((formula + 0.5, True), (formula - 0.01, False)):
            monkeypatch.setattr(oracle, "grid_chebyshev", lambda *_: found)
            assert system_checks(sys_, levels, DEFAULT_BUDGET)[0]["ok"] is ok

    @pytest.mark.parametrize("gaps, ok", [(0.5, True), (0.6, False)])
    def test_learning_check_holds_to_half_a_gap(self, monkeypatch, gaps, ok):
        ts = load_data(GOLDEN / "tiny.json")  # every value on the 0.25 grid
        formula = learn(ts, LearnMode.QMAX_APPROX, 1).distance
        monkeypatch.setattr(oracle, "min_learning_error", lambda *_: (formula + gaps * 0.25, None))
        check = learning_check(ts, 1, "qmax", DEFAULT_BUDGET)
        assert (check["formula"], check["ok"]) == (formula, ok)


class TestMinLearningError:
    def test_zero_on_representable_data(self):
        # grid holding every learned value, so the greatest capacity witnesses
        ts = reference_training_set()
        levels = (0.0, 0.2, 0.3, 0.4, 1.0)
        err, mu = min_learning_error(ts, levels, q=2)
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
            err, _ = min_learning_error(ts, levels, q=1)
            assert err >= formula - 1e-9
            if learn(ts, LearnMode.QMAX_APPROX, 1).boundary_ok:
                assert err <= formula + 0.25 + 1e-9  # one grid step on this grid
                bracketed += 1
        assert bracketed >= 3


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
            for mu in enumerate_capacities(2, candidates, q=q):
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
            for mu in enumerate_capacities(2, candidates, q=q, kind=SystemKind.MIN_MAX):
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
            for mu in enumerate_capacities(n, candidates):
                assert any(
                    sugeno_maxmin(mu, item.x) != item.alpha for item in ts.items
                )
            failures += 1
        assert failures >= 30


ONE_CELL = RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.5,), (0,), UNIT)
SEARCHES = {
    "capacities": lambda levels, budget: enumerate_capacities(2, levels, budget),
    "solutions": lambda levels, budget: enumerate_solutions(ONE_CELL, levels, budget),
    "rhs": lambda levels, budget: grid_chebyshev(ONE_CELL, levels, budget),
    "learning": lambda levels, budget: min_learning_error(reference_training_set(), levels, budget),
}


class TestSearchValidation:
    """Every search refuses bad levels and budgets, and every capacity search
    a q that is not an integer in 1..n, before it walks a candidate."""

    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize(
        "levels",
        [(0.0, 0.5), (0.5, 1.0), (0.0, 0.5, 0.5, 1.0), (0.0, 0.7, 0.3, 1.0),
         (-0.5, 0.0, 1.0), (0.0, 1.0, 1.5), (0.0, float("nan"), 1.0), ()],
        ids=["no-1", "no-0", "repeated", "unsorted", "below-0", "above-1", "nan", "empty"],
    )
    def test_levels_must_ascend_from_zero_to_one(self, search, levels):
        with pytest.raises(DomainError, match="grid levels"):
            SEARCHES[search](levels, DEFAULT_BUDGET)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_budget_must_be_positive(self, search):
        with pytest.raises(DomainError, match="budget must be positive"):
            SEARCHES[search](COARSE, 0)

    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize("budget", [True, 10.0, 1e7, "10", None])
    def test_budget_must_be_an_integer(self, search, budget):
        with pytest.raises(DomainError) as err:
            SEARCHES[search](COARSE, budget)
        assert str(err.value) == f"budget must be an integer, got {budget!r}"

    @pytest.mark.parametrize(
        "step, budget, refusal",
        [
            (True, 100, "grid step must be in (0, 1], got True"),
            ("0.5", 100, "grid step must be in (0, 1], got '0.5'"),
            (None, 100, "grid step must be in (0, 1], got None"),
            (0.5, True, "budget must be an integer, got True"),
            (0.5, 10.0, "budget must be an integer, got 10.0"),
        ],
        ids=["bool-step", "string-step", "none-step", "bool-budget", "float-budget"],
    )
    def test_grid_levels_needs_a_number_step_and_an_integer_budget(self, step, budget, refusal):
        with pytest.raises(DomainError) as err:
            grid_levels(step, budget)
        assert str(err.value) == refusal

    @pytest.mark.parametrize("q", [True, 1.5, 0, 4])
    def test_q_must_be_an_integer_in_range(self, q):
        with pytest.raises(DomainError, match=r"q must be an integer in 1\.\.3"):
            enumerate_capacities(3, COARSE, q=q)
        with pytest.raises(DomainError, match=r"q must be an integer in 1\.\.3"):
            min_learning_error(reference_training_set(), COARSE, q=q)

    @pytest.mark.parametrize("budget, refused", [(3**6, False), (3**6 - 1, True)])
    def test_count_at_the_budget_passes(self, budget, refused):
        # n = 3 leaves 2^3 - 2 = 6 free subsets on three levels
        if refused:
            with pytest.raises(BudgetError, match=r"~3\^6 candidates") as err:
                enumerate_capacities(3, COARSE, budget)
            assert err.value.estimate == 3**6 > err.value.budget == budget
        else:
            assert len(list(enumerate_capacities(3, COARSE, budget))) > 0

    def test_oversized_search_refused_at_once(self):
        # 3^(2^24 - 2) candidates, a count of over eight million decimal digits
        with pytest.raises(BudgetError, match=r"~3\^16777214 candidates") as err:
            enumerate_capacities(24, COARSE)
        assert err.value.estimate > err.value.budget == DEFAULT_BUDGET
