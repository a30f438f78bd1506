"""Acceptance suite: every criterion runs end to end at its stated tolerance
and prints one PASS/FAIL line (visible under ``pytest -s``).

Each criterion carries a wall-clock budget that is asserted, so regressions
in the solvers' complexity fail loudly here.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from caplearn import (
    LearnMode,
    RelationalSystem,
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
    sugeno_minmax,
    sugeno_qmax,
)
from caplearn.cli import main
from caplearn.io import capacity_from_json, capacity_to_json, dumps_json, save_capacity
from caplearn.subsets import add_one_bit, full_mask, masks_of_sizes
from caplearn.sugeno import sugeno_qmax_unchecked, sugeno_qmin_unchecked

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    MU_E_VALUES,
    brute_force_conjugate,
    by_cardinality,
    capacity_from_solution,
    capacity_leq,
    closed_form_greatest,
    closed_form_lowest,
    is_consistent,
    random_capacity,
    random_object,
    random_system,
    random_training_set,
    reference_training_set,
    representable_training_set,
    save_training_set,
    solution_by_label,
)

TOL = 1e-9
GRID_STEP = 0.05
GRID = tuple(i / 20 for i in range(21))


@contextmanager
def criterion(name: str, budget: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - started
    timing = f"({elapsed:.2f}s, budget {budget:.0f}s)"
    if elapsed >= budget:
        print(f"FAIL  {name} {timing}")
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget}s budget"
    print(f"PASS  {name} {timing}")


def test_criterion_1_reference_dataset_exact():
    with criterion("1 reference dataset reproduced exactly", 1.0):
        ts = reference_training_set()
        sys_ = build_system(ts, SystemKind.MAX_MIN, 3)
        order = by_cardinality(sys_.column_labels)
        reordered = [
            [row[sys_.column_labels.index(m)] for m in order] for row in sys_.matrix
        ]
        assert reordered == [
            [0.15, 0.2, 0.3, 0.15, 0.15, 0.2, 0.15],
            [0.5, 0.25, 0.3, 0.25, 0.3, 0.25, 0.25],
            [0.4, 0.7, 0.35, 0.4, 0.35, 0.35, 0.35],
        ]
        e = solution_by_label(sys_)
        assert [e[m] for m in order] == [0.3, 0.4, 0.2, 1.0, 1.0, 1.0, 1.0]
        assert is_consistent(sys_)
        assert e[full_mask(3)] == 1.0
        report = learn(ts, LearnMode.GREATEST)
        mu_e = report.capacity
        assert mu_e.values == MU_E_VALUES
        for item in ts.items:
            assert sugeno_maxmin(mu_e, item.x) == item.alpha
        assert is_q_maxitive(mu_e, 2)
        # strictly above both singletons, so not a possibility measure
        assert mu_e[0b011] == 1.0 > max(mu_e[0b001], mu_e[0b010]) == 0.4


def test_criterion_2_formula_equivalence():
    with criterion("2 integral formulas agree on 1000 random pairs", 5.0):
        rng = random.Random(201)
        reduced_checks = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            mu = random_capacity(rng, n, GRID, CHAIN21)
            x = random_object(rng, n, GRID)
            lo = sugeno_maxmin(mu, x)
            assert lo == sugeno_minmax(mu, x)
            q = rng.randint(1, n)
            if is_q_maxitive(mu, q):
                assert sugeno_qmax_unchecked(mu, x, q) == lo
                reduced_checks += 1
            if is_q_minitive(mu, q):
                assert sugeno_qmin_unchecked(mu, x, q) == lo
                reduced_checks += 1
        assert reduced_checks > 100


def test_criterion_3_extremal_solutions_dominate_grid():
    with criterion("3 solved vectors are extremal among enumerated solutions", 30.0):
        rng = random.Random(202)
        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 3), rng.randint(1, 4)

            base = random_system(rng, SystemKind.MAX_MIN, n_rows, n_cols, FIVE_LEVELS)
            seed_vec = tuple(rng.choice(FIVE_LEVELS) for _ in range(n_cols))
            sys_ = RelationalSystem(
                SystemKind.MAX_MIN, base.matrix, apply_system(base, seed_vec),
                base.column_labels, base.scale,
            )
            e = potential_solution(sys_)
            assert apply_system(sys_, e) == sys_.rhs
            for sol in enumerate_solutions(sys_, FIVE_LEVELS):
                assert all(v <= ev for v, ev in zip(sol, e))

            base = random_system(rng, SystemKind.MIN_MAX, n_rows, n_cols, FIVE_LEVELS)
            seed_vec = tuple(rng.choice(FIVE_LEVELS) for _ in range(n_cols))
            dual = RelationalSystem(
                SystemKind.MIN_MAX, base.matrix, apply_system(base, seed_vec),
                base.column_labels, base.scale,
            )
            f = potential_solution(dual)
            assert apply_system(dual, f) == dual.rhs
            for sol in enumerate_solutions(dual, FIVE_LEVELS):
                assert all(v >= fv for v, fv in zip(sol, f))


def test_criterion_4_round_trip_sandwich():
    with criterion("4 representable data: both extremal capacities bracket", 10.0):
        rng = random.Random(203)
        for _ in range(200):
            n = rng.randint(1, 4)
            ts, mu = representable_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            hi = learn(ts, LearnMode.GREATEST)
            lo = learn(ts, LearnMode.LOWEST)
            assert hi.capacity is not None and lo.capacity is not None
            assert capacity_leq(lo.capacity, mu) and capacity_leq(mu, hi.capacity)
            assert hi.residuals == (0.0,) * len(ts.items)
            assert lo.residuals == (0.0,) * len(ts.items)


def test_criterion_5_distance_formula_vs_grid():
    with criterion("5 chebyshev distance formula matches grid search", 60.0):
        rng = random.Random(204)
        for kind in (SystemKind.MAX_MIN, SystemKind.MIN_MAX):
            for _ in range(100):
                sys_ = random_system(rng, kind, rng.randint(1, 3), rng.randint(1, 7), GRID)
                formula = chebyshev_distance(sys_).distance
                grid = grid_chebyshev(sys_, GRID)
                assert grid >= formula - TOL
                assert abs(formula - grid) <= GRID_STEP
                assert (formula == 0.0) == is_consistent(sys_)


def test_criterion_6_approx_residuals_attain_distance():
    with criterion("6 approximate capacities attain the reported distance", 30.0):
        rng = random.Random(205)
        checked_max = checked_min = 0
        inconsistent_max = inconsistent_min = 0
        for _ in range(20000):
            if checked_max >= 100 and checked_min >= 100:
                break
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            ts = random_training_set(rng, n, rng.randint(2, 5), GRID)
            if checked_max < 100:
                hi = learn(ts, LearnMode.QMAX_APPROX, q)
                if hi.capacity is not None:
                    assert max(abs(r) for r in hi.residuals) == pytest.approx(
                        hi.distance, abs=TOL
                    )
                    checked_max += 1
                    inconsistent_max += hi.distance > 0.0
            if checked_min < 100:
                lo = learn(ts, LearnMode.QMIN_APPROX, q)
                if lo.capacity is not None:
                    assert max(abs(r) for r in lo.residuals) == pytest.approx(
                        lo.distance, abs=TOL
                    )
                    checked_min += 1
                    inconsistent_min += lo.distance > 0.0
        assert checked_max >= 100 and checked_min >= 100
        # most sampled sets must genuinely need approximation
        assert inconsistent_max >= 80 and inconsistent_min >= 80


def test_criterion_7_approx_capacities_extremal_on_grid():
    with criterion("7 approximate capacities extremal at grid resolution", 120.0):
        rng = random.Random(206)
        checked = 0
        for _ in range(2000):
            if checked >= 25:
                break
            ts = TrainingSet.from_pairs(
                2,
                reference_training_set().scale,
                [
                    (
                        (rng.choice(FIVE_LEVELS), rng.choice(FIVE_LEVELS)),
                        rng.choice(FIVE_LEVELS),
                    )
                    for _ in range(rng.randint(2, 4))
                ],
            )
            hi = learn(ts, LearnMode.QMAX_APPROX, 1)
            lo = learn(ts, LearnMode.QMIN_APPROX, 1)
            if hi.capacity is None or lo.capacity is None:
                continue

            delta = hi.distance
            for mu in enumerate_capacities(2, GRID, q=1):
                err = max(
                    abs(sugeno_maxmin(mu, item.x) - item.alpha) for item in ts.items
                )
                assert err >= delta - TOL  # nothing on the grid beats the formula
                if err <= delta + TOL:
                    assert capacity_leq(mu, hi.capacity)
            best, _ = min_learning_error(ts, GRID, q=1)
            assert delta - TOL <= best <= delta + GRID_STEP + TOL

            nabla = lo.distance
            for mu in enumerate_capacities(2, GRID, q=1, kind=SystemKind.MIN_MAX):
                err = max(
                    abs(sugeno_maxmin(mu, item.x) - item.alpha) for item in ts.items
                )
                assert err >= nabla - TOL
                if err <= nabla + TOL:
                    assert capacity_leq(lo.capacity, mu)
            best, _ = min_learning_error(ts, GRID, q=1, kind=SystemKind.MIN_MAX)
            assert nabla - TOL <= best <= nabla + GRID_STEP + TOL
            checked += 1
        assert checked >= 25


def test_criterion_8_monotone_vectors_and_closed_forms():
    with criterion("8 solved vectors monotone; closed forms agree", 10.0):
        rng = random.Random(207)
        for _ in range(500):
            n = rng.randint(2, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = solution_by_label(build_system(ts, SystemKind.MAX_MIN))
            f = solution_by_label(build_system(ts, SystemKind.MIN_MAX))
            for mask in range(1, 1 << n):
                for sup in add_one_bit(mask, n):
                    assert e[mask] <= e[sup]
            for mask in range(full_mask(n)):
                for sup in add_one_bit(mask, n):
                    if sup != full_mask(n):
                        assert f[mask] <= f[sup]
            assert closed_form_greatest(ts) == e
            assert closed_form_lowest(ts) == f


def test_criterion_9_distance_monotone_in_cardinality_bound():
    with criterion("9 distances shrink as the cardinality bound grows", 10.0):
        rng = random.Random(208)
        for _ in range(150):
            n = rng.randint(2, 4)
            ts = random_training_set(rng, n, rng.randint(2, 5), GRID)
            deltas = [
                chebyshev_distance(build_system(ts, SystemKind.MAX_MIN, q)).distance
                for q in range(1, n + 1)
            ]
            nablas = [
                chebyshev_distance(build_system(ts, SystemKind.MIN_MAX, q)).distance
                for q in range(1, n + 1)
            ]
            for small, large in zip(deltas, deltas[1:]):
                assert large <= small + TOL
            for small, large in zip(nablas, nablas[1:]):
                assert large <= small + TOL


def test_criterion_10_distance_scales_to_large_N():
    with criterion("10 chebyshev distance at n=10, q=3, N=800 (175 columns)", 10.0):
        rng = random.Random(209)
        # distinct unit-interval values leave few tied targets for the sweep
        levels = [rng.random() for _ in range(1000)]
        ts = random_training_set(rng, 10, 800, levels)
        for sys_ in (build_system(ts, kind, 3) for kind in SystemKind):
            assert sys_.n_cols == 175
            report = chebyshev_distance(sys_)
            assert report.distance == max(report.per_row) > 0.0


def test_criterion_11_qmode_learning_scales_to_n18():
    with criterion("11 approximate q-mode learning at n=18, q=2, N=50", 5.0):
        rng = random.Random(211)
        ts = random_training_set(rng, 18, 50, CHAIN21.levels)
        hi = learn(ts, LearnMode.QMAX_APPROX, 2)
        lo = learn(ts, LearnMode.QMIN_APPROX, 2)
        for report, in_class in ((hi, is_q_maxitive), (lo, is_q_minitive)):
            assert report.distance > 0.0
            assert len(report.capacity.values) == 1 << 18
            assert in_class(report.capacity, 2)
            assert max(abs(r) for r in report.residuals) == pytest.approx(
                report.distance, abs=TOL
            )


def test_criterion_12_full_integral_scales_to_n16():
    with criterion("12 full integral at n=16 on 500 objects, against the 2-maxitive form", 5.0):
        rng = random.Random(212)
        levels = CHAIN21.levels
        # singletons anywhere on the chain, each pair at least its two
        # members, one pair at 1 so the extension reaches 1 on the full set
        solved = {1 << i: rng.choice(levels) for i in range(16)}
        for mask in masks_of_sizes(16, (2,)):
            floor = max(solved[mask & -mask], solved[mask & (mask - 1)])
            solved[mask] = rng.choice([v for v in levels if v >= floor])
        solved[0b11] = 1.0
        mu = capacity_from_solution(solved, 16, 2, CHAIN21, SystemKind.MAX_MIN)
        assert not capacity_violations(mu.values, 16)
        for _ in range(500):
            x = random_object(rng, 16, levels)
            assert sugeno_maxmin(mu, x) == sugeno_minmax(mu, x) == sugeno_qmax(mu, x, 2)


def test_criterion_13_extremal_learning_scales_to_n14():
    rng = random.Random(213)
    mu = random_capacity(rng, 14, CHAIN21.levels, CHAIN21)
    objects = [random_object(rng, 14, CHAIN21.levels) for _ in range(200)]
    ts = TrainingSet.from_pairs(14, CHAIN21, [(x, sugeno_maxmin(mu, x)) for x in objects])
    with criterion("13 greatest and lowest capacities at n=14, N=200", 1.0):
        hi = learn(ts, LearnMode.GREATEST)
        lo = learn(ts, LearnMode.LOWEST)
        for report in (hi, lo):
            assert report.consistent and report.boundary_ok
            assert report.residuals == (0.0,) * 200
            assert [sugeno_maxmin(report.capacity, x) for x in objects] == list(ts.targets())
        assert capacity_leq(lo.capacity, mu) and capacity_leq(mu, hi.capacity)


def test_criterion_14_approximate_q_modes_scale_to_N2000():
    rng = random.Random(214)
    levels = [rng.random() for _ in range(1000)]
    ts = random_training_set(rng, 12, 2000, levels)
    with criterion("14 approximate q-modes at n=12, q=3, N=2000 (298 columns)", 3.0):
        hi = learn(ts, LearnMode.QMAX_APPROX, 3)
        lo = learn(ts, LearnMode.QMIN_APPROX, 3)
    for report, kind in ((hi, SystemKind.MAX_MIN), (lo, SystemKind.MIN_MAX)):
        # the distance of the cut sweep is the max of every row resolved
        exact = chebyshev_distance(build_system(ts, kind, 3))
        assert repr(report.distance) == repr(exact.distance)
        assert report.distance > 0.0
        # random levels leave no boundary set at the top: no capacity
        assert not report.boundary_ok and report.capacity is None and report.notes


def test_criterion_15_q_checks_of_loaded_capacities_scale_to_n20():
    rng = random.Random(215)
    levels = CHAIN21.levels
    # as in criterion 12: pairs at least their members, one pair at 1
    solved = {1 << i: rng.choice(levels) for i in range(20)}
    for mask in masks_of_sizes(20, (2,)):
        floor = max(solved[mask & -mask], solved[mask & (mask - 1)])
        solved[mask] = rng.choice([v for v in levels if v >= floor])
    solved[0b11] = 1.0
    learned = capacity_from_solution(solved, 20, 2, CHAIN21, SystemKind.MAX_MIN)
    # rebuilt from the canonical text, the capacities carry no recorded form
    # and each q-check classifies its 2^20 table afresh
    mu = capacity_from_json(json.loads(dumps_json(capacity_to_json(learned))))
    dual = brute_force_conjugate(mu)
    assert not mu._scoring and not dual._scoring
    # 0.15-0.2 s on one Xeon core, CPython 3.11; the float-list recursion
    # that the packed level codes replaced took 0.5 s there
    with criterion("15 q-checks of capacities loaded at n=20, q=2, in both orders", 1.0):
        assert is_q_maxitive(mu, 2)
        assert is_q_minitive(dual, 2)
    assert not is_q_maxitive(mu, 1) and not is_q_minitive(dual, 1)


def test_criterion_16_extremal_learning_scales_to_N100000():
    rng = random.Random(216)
    mu = random_capacity(rng, 8, CHAIN21.levels, CHAIN21)
    objects = [random_object(rng, 8, CHAIN21.levels) for _ in range(100_000)]
    ts = TrainingSet.from_pairs(8, CHAIN21, [(x, sugeno_maxmin(mu, x)) for x in objects])
    # 0.4 s on one Xeon core, CPython 3.11; blocking words summed from one
    # int per row took 2.4 s there, quadratic in N
    with criterion("16 greatest and lowest capacities at n=8, N=100000", 2.0):
        hi = learn(ts, LearnMode.GREATEST)
        lo = learn(ts, LearnMode.LOWEST)
        for report in (hi, lo):
            assert report.consistent and report.boundary_ok
    for report in (hi, lo):
        assert report.residuals == (0.0,) * 100_000
    assert capacity_leq(lo.capacity, mu) and capacity_leq(mu, hi.capacity)


def test_criterion_17_eval_scores_N100000_objects_at_n9(tmp_path):
    rng = random.Random(217)
    mu = random_capacity(rng, 9, CHAIN21.levels, CHAIN21)
    objects = [random_object(rng, 9, CHAIN21.levels) for _ in range(100_000)]
    ts = TrainingSet.from_pairs(9, CHAIN21, [(x, rng.choice(CHAIN21.levels)) for x in objects])
    cap_path, data_path, out_path = tmp_path / "mu.json", tmp_path / "data.json", tmp_path / "out"
    save_capacity(mu, cap_path)
    save_training_set(ts, data_path)
    argv = ["eval", "--capacity", str(cap_path), "--data", str(data_path), "--out", str(out_path)]
    # 2.1-3.4 s on one Xeon core, CPython 3.11, in a fresh process on a
    # shared machine: reading the file 0.6-1.0 s, scoring 0.6-1.1 s, writing
    # the report 0.6-0.9 s (1.2-1.8 s when each number took its own repr);
    # two scale checks and two sorts per object took 3.4 s in all there
    with criterion("17 eval --data on N=100000 objects at n=9", 8.0):
        assert main(argv) == 0
    evaluations = json.loads(out_path.read_text(encoding="utf-8"))["evaluations"]
    assert len(evaluations) == 100_000
    for k in rng.sample(range(100_000), 200):
        assert evaluations[k]["value"] == sugeno_maxmin(mu, objects[k]) == sugeno_minmax(mu, objects[k])
