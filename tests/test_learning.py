import random

import pytest

from caplearn import (
    DomainError,
    LearnMode,
    Scale,
    SystemKind,
    TrainingSet,
    build_system,
    capacity_violations,
    chebyshev_distance,
    is_q_maxitive,
    is_q_minitive,
    learn,
    potential_solution,
    validate_data,
)
from caplearn.learning import capacity_from_solution
from caplearn.scale import ScaleKind
from caplearn.subsets import cardinality, add_one_bit, full_mask, mask_of

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    MU_E_VALUES,
    MU_F_VALUES,
    by_cardinality,
    capacity_leq,
    closed_form_greatest,
    closed_form_lowest,
    index_sets,
    random_training_set,
    representable_training_set,
)

UNIT = Scale.unit_interval()

# Reference matrix rows in size-then-mask column order:
# {1} {2} {3} {1,2} {1,3} {2,3} {1,2,3}
REFERENCE_MAXMIN_ROWS = [
    [0.15, 0.2, 0.3, 0.15, 0.15, 0.2, 0.15],
    [0.5, 0.25, 0.3, 0.25, 0.3, 0.25, 0.25],
    [0.4, 0.7, 0.35, 0.4, 0.35, 0.35, 0.35],
]


def perturbed_training_set():
    """Reference data with the second target lowered until no capacity fits."""
    return TrainingSet.from_pairs(
        3,
        CHAIN21,
        (
            ((0.15, 0.2, 0.3), 0.2),
            ((0.5, 0.25, 0.3), 0.15),
            ((0.4, 0.7, 0.35), 0.4),
        ),
    )


class TestValidateData:
    def test_reference_data_clean(self, ref_ts):
        assert validate_data(ref_ts) == []

    def test_target_above_max(self):
        ts = TrainingSet.from_pairs(2, UNIT, [((0.5, 0.6), 0.7)])
        kinds = [v.kind for v in validate_data(ts)]
        assert kinds == ["target_above_max"]

    def test_target_below_min(self):
        ts = TrainingSet.from_pairs(2, UNIT, [((0.5, 0.6), 0.4)])
        kinds = [v.kind for v in validate_data(ts)]
        assert kinds == ["target_below_min"]

    def test_contradictory_duplicates(self):
        ts = TrainingSet.from_pairs(
            2, UNIT, [((0.5, 0.6), 0.5), ((0.5, 0.6), 0.6)]
        )
        violations = validate_data(ts)
        assert [v.kind for v in violations] == ["contradictory_duplicates"]
        assert violations[0].items == (0, 1)


class TestSystemConstruction:
    def test_reference_matrix(self, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MAX_MIN, 3)
        order = by_cardinality(sys_.column_labels)
        reordered = [
            [row[sys_.column_labels.index(m)] for m in order] for row in sys_.matrix
        ]
        assert reordered == REFERENCE_MAXMIN_ROWS
        assert sys_.rhs == (0.2, 0.3, 0.4)

    def test_q1_keeps_singleton_columns(self, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MAX_MIN, 1)
        assert list(sys_.column_labels) == [0b001, 0b010, 0b100]
        assert [list(r) for r in sys_.matrix] == [
            [0.15, 0.2, 0.3],
            [0.5, 0.25, 0.3],
            [0.4, 0.7, 0.35],
        ]

    def test_full_set_column_is_the_row_minimum(self):
        rng = random.Random(51)
        ts = random_training_set(rng, 3, 4, FIVE_LEVELS)
        sys_ = build_system(ts, SystemKind.MAX_MIN)
        col = sys_.column_labels.index(full_mask(3))
        for row, item in zip(sys_.matrix, ts.items):
            assert row[col] == min(item.x)

    def test_minmax_empty_and_pair_columns(self, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MIN_MAX, 3)
        empty = sys_.column_labels.index(0)
        assert [row[empty] for row in sys_.matrix] == [0.3, 0.5, 0.7]
        pair23 = sys_.column_labels.index(mask_of([2, 3], 3))
        assert [row[pair23] for row in sys_.matrix] == [0.15, 0.5, 0.4]

    def test_minmax_q1_keeps_only_largest_proper_subsets(self, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MIN_MAX, 1)
        assert all(cardinality(m) == 2 for m in sys_.column_labels)
        assert len(sys_.column_labels) == 3

    def test_q_range_checked(self, ref_ts):
        for q in (0, 4):
            with pytest.raises(DomainError):
                build_system(ref_ts, SystemKind.MAX_MIN, q)
            with pytest.raises(DomainError):
                build_system(ref_ts, SystemKind.MIN_MAX, q)


class TestIndexSets:
    def test_reference_blocking_sets(self, ref_ts):
        j_map, k_map = index_sets(ref_ts)
        assert j_map[0b001] == {1}  # only the second item overshoots on {1}
        assert j_map[0b011] == frozenset()
        assert k_map[0b110] == {0}

    def test_restricted_systems_agree_on_shared_columns(self):
        # solving is column-independent, so cardinality restriction never
        # changes the solved value of a column it keeps
        rng = random.Random(70)
        for _ in range(60):
            n = rng.randint(2, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = potential_solution(build_system(ts, SystemKind.MAX_MIN)).as_dict()
            f = potential_solution(build_system(ts, SystemKind.MIN_MAX)).as_dict()
            for q in range(1, n + 1):
                e_q = potential_solution(build_system(ts, SystemKind.MAX_MIN, q)).as_dict()
                assert all(e[mask] == v for mask, v in e_q.items())
                f_q = potential_solution(build_system(ts, SystemKind.MIN_MAX, q)).as_dict()
                assert all(f[mask] == v for mask, v in f_q.items())

    def test_closed_forms_match_solver(self):
        rng = random.Random(52)
        for _ in range(100):
            n = rng.randint(1, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = potential_solution(build_system(ts, SystemKind.MAX_MIN))
            assert closed_form_greatest(ts) == e.as_dict()
            f = potential_solution(build_system(ts, SystemKind.MIN_MAX))
            assert closed_form_lowest(ts) == f.as_dict()


class TestLearnGreatestLowest:
    def test_reference_greatest(self, ref_ts):
        report = learn(ref_ts, LearnMode.GREATEST)
        assert report.consistent and report.boundary_ok
        assert report.capacity.values == MU_E_VALUES
        assert report.residuals == (0.0, 0.0, 0.0)
        assert is_q_maxitive(report.capacity, 2)

    def test_reference_lowest(self, ref_ts):
        report = learn(ref_ts, LearnMode.LOWEST)
        assert report.consistent and report.boundary_ok
        assert report.capacity.values == MU_F_VALUES
        assert report.residuals == (0.0, 0.0, 0.0)
        assert is_q_minitive(report.capacity, 2)

    def test_round_trip_sandwich(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(1, 4)
            ts, mu = representable_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            hi = learn(ts, LearnMode.GREATEST)
            lo = learn(ts, LearnMode.LOWEST)
            assert hi.capacity is not None and lo.capacity is not None
            assert capacity_leq(lo.capacity, mu)
            assert capacity_leq(mu, hi.capacity)
            assert hi.residuals == (0.0,) * len(ts.items)
            assert lo.residuals == (0.0,) * len(ts.items)

    def test_contradictory_data_is_inconsistent(self):
        ts = TrainingSet.from_pairs(
            2, UNIT, [((0.5, 0.6), 0.5), ((0.5, 0.6), 0.6)]
        )
        report = learn(ts, LearnMode.GREATEST)
        assert not report.consistent
        assert report.capacity is None
        assert report.notes

    def test_internality_violation_breaks_lowest_boundary(self):
        ts = TrainingSet.from_pairs(2, UNIT, [((0.5, 0.6), 0.7)])
        report = learn(ts, LearnMode.LOWEST)
        assert not report.boundary_ok
        assert report.capacity is None

    def test_learned_tables_pass_capacity_check(self):
        rng = random.Random(54)
        for _ in range(40):
            ts, _ = representable_training_set(rng, 3, 4, FIVE_LEVELS)
            for report in (learn(ts, LearnMode.GREATEST), learn(ts, LearnMode.LOWEST)):
                assert capacity_violations(report.capacity.values, 3) == []

    def test_boundary_equivalences(self):
        rng = random.Random(55)
        for _ in range(120):
            n = rng.randint(1, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = potential_solution(build_system(ts, SystemKind.MAX_MIN))
            f = potential_solution(build_system(ts, SystemKind.MIN_MAX))
            assert (e.value_of(full_mask(n)) == 1.0) == all(
                min(it.x) <= it.alpha for it in ts.items
            )
            assert (f.value_of(0) == 0.0) == all(
                it.alpha <= max(it.x) for it in ts.items
            )

    def test_representability_routes_agree(self):
        # the max-min and min-max conditions accept exactly the same data
        rng = random.Random(56)
        for _ in range(120):
            n = rng.randint(1, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            hi = learn(ts, LearnMode.GREATEST)
            lo = learn(ts, LearnMode.LOWEST)
            assert (hi.capacity is not None) == (lo.capacity is not None)


class TestLearnQ:
    def test_reference_q2_equals_unrestricted(self, ref_ts, mu_e, mu_f):
        assert learn(ref_ts, LearnMode.QMAX, 2).capacity.values == mu_e.values
        assert learn(ref_ts, LearnMode.QMIN, 2).capacity.values == mu_f.values

    def test_reference_q1_fails_with_witness(self, ref_ts):
        hi = learn(ref_ts, LearnMode.QMAX, 1)
        assert hi.consistent and not hi.boundary_ok and hi.capacity is None
        assert any("{2} = 0.4" in note for note in hi.notes)
        lo = learn(ref_ts, LearnMode.QMIN, 1)
        assert not lo.boundary_ok and lo.capacity is None
        assert any("{2,3} = 0.2" in note for note in lo.notes)

    def test_q_equal_n_matches_unrestricted(self):
        rng = random.Random(57)
        for _ in range(40):
            ts, _ = representable_training_set(rng, 3, 4, FIVE_LEVELS)
            hi = learn(ts, LearnMode.GREATEST).capacity.values
            lo = learn(ts, LearnMode.LOWEST).capacity.values
            assert learn(ts, LearnMode.QMAX, 3).capacity.values == hi
            assert learn(ts, LearnMode.QMIN, 3).capacity.values == lo

    def test_learned_q_capacities_hold_their_property(self):
        rng = random.Random(58)
        seen = 0
        for _ in range(2000):
            if seen >= 60:
                break
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            ts = random_training_set(rng, n, rng.randint(1, 4), FIVE_LEVELS)
            hi = learn(ts, LearnMode.QMAX, q)
            if hi.capacity is not None:
                assert capacity_violations(hi.capacity.values, n) == []
                assert is_q_maxitive(hi.capacity, q)
                assert hi.residuals == (0.0,) * len(ts.items)
                seen += 1
            lo = learn(ts, LearnMode.QMIN, q)
            if lo.capacity is not None:
                assert capacity_violations(lo.capacity.values, n) == []
                assert is_q_minitive(lo.capacity, q)
                assert lo.residuals == (0.0,) * len(ts.items)
        assert seen >= 60

    def test_template_matches_reference_construction(self, ref_ts, mu_e):
        e = potential_solution(build_system(ref_ts, SystemKind.MAX_MIN, 2))
        mu = capacity_from_solution(e.as_dict(), 3, 2, ref_ts.scale, SystemKind.MAX_MIN)
        assert mu.values == mu_e.values


class TestLearnApprox:
    def test_consistent_data_reduces_to_exact_mode(self, ref_ts):
        hi = learn(ref_ts, LearnMode.QMAX_APPROX, 2)
        assert hi.distance == 0.0 and hi.consistent
        assert hi.capacity.values == learn(ref_ts, LearnMode.QMAX, 2).capacity.values
        lo = learn(ref_ts, LearnMode.QMIN_APPROX, 2)
        assert lo.distance == 0.0 and lo.consistent
        assert lo.capacity.values == learn(ref_ts, LearnMode.QMIN, 2).capacity.values

    def test_hypothesis_failure_still_reports_distance(self, ref_ts):
        report = learn(ref_ts, LearnMode.QMAX_APPROX, 1)
        assert report.capacity is None
        assert report.distance == 0.0  # the restricted system happens to be consistent
        assert not report.boundary_ok
        assert report.notes

    def test_perturbed_reference_distances(self):
        ts = perturbed_training_set()
        for kind in SystemKind:
            distance = chebyshev_distance(build_system(ts, kind, 2)).distance
            assert distance == pytest.approx(0.1, abs=1e-9)

    def test_perturbed_reference_residuals_attain_distance(self):
        ts = perturbed_training_set()
        hi = learn(ts, LearnMode.QMAX_APPROX, 2)
        assert hi.boundary_ok and not hi.consistent
        assert max(abs(r) for r in hi.residuals) == pytest.approx(hi.distance, abs=1e-9)
        assert is_q_maxitive(hi.capacity, 2)
        lo = learn(ts, LearnMode.QMIN_APPROX, 2)
        assert lo.boundary_ok and not lo.consistent
        assert max(abs(r) for r in lo.residuals) == pytest.approx(lo.distance, abs=1e-9)
        assert is_q_minitive(lo.capacity, 2)

    def test_approx_results_live_on_the_unit_interval(self):
        ts = perturbed_training_set()
        report = learn(ts, LearnMode.QMAX_APPROX, 2)
        assert report.capacity.scale.kind is ScaleKind.UNIT_INTERVAL

    def test_residual_norm_equals_distance_on_random_data(self):
        rng = random.Random(59)
        checked = 0
        for _ in range(2000):
            if checked >= 60:
                break
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            ts = random_training_set(rng, n, rng.randint(2, 4), FIVE_LEVELS)
            hi = learn(ts, LearnMode.QMAX_APPROX, q)
            if hi.capacity is not None:
                assert max(abs(r) for r in hi.residuals) == pytest.approx(hi.distance, abs=1e-9)
                assert is_q_maxitive(hi.capacity, q)
                checked += 1
            lo = learn(ts, LearnMode.QMIN_APPROX, q)
            if lo.capacity is not None:
                assert max(abs(r) for r in lo.residuals) == pytest.approx(lo.distance, abs=1e-9)
                assert is_q_minitive(lo.capacity, q)
        assert checked >= 60


class TestSolvedVectorStructure:
    def test_solved_vectors_are_monotone(self):
        rng = random.Random(60)
        for _ in range(80):
            n = rng.randint(2, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = potential_solution(build_system(ts, SystemKind.MAX_MIN)).as_dict()
            for mask in range(1, 1 << n):
                for sup in add_one_bit(mask, n):
                    assert e[mask] <= e[sup]
            f = potential_solution(build_system(ts, SystemKind.MIN_MAX)).as_dict()
            for mask in range(full_mask(n)):
                for sup in add_one_bit(mask, n):
                    if sup != full_mask(n):
                        assert f[mask] <= f[sup]


class TestDispatch:
    def test_q_required_for_q_modes(self, ref_ts):
        with pytest.raises(DomainError):
            learn(ref_ts, LearnMode.QMAX)

    def test_q_rejected_for_plain_modes(self, ref_ts):
        with pytest.raises(DomainError):
            learn(ref_ts, LearnMode.GREATEST, 2)

    def test_dispatch_reaches_all_modes(self, ref_ts):
        assert learn(ref_ts, LearnMode.GREATEST).mode is LearnMode.GREATEST
        assert learn(ref_ts, LearnMode.LOWEST).mode is LearnMode.LOWEST
        assert learn(ref_ts, LearnMode.QMAX, 2).mode is LearnMode.QMAX
        assert learn(ref_ts, LearnMode.QMIN, 2).mode is LearnMode.QMIN
        assert learn(ref_ts, LearnMode.QMAX_APPROX, 2).mode is LearnMode.QMAX_APPROX
        assert learn(ref_ts, LearnMode.QMIN_APPROX, 2).mode is LearnMode.QMIN_APPROX


class TestTrainingSetValidation:
    def test_dimension_checked(self):
        with pytest.raises(DomainError):
            TrainingSet.from_pairs(3, UNIT, [((0.5, 0.6), 0.5)])

    def test_chain_membership_checked(self):
        with pytest.raises(DomainError):
            TrainingSet.from_pairs(2, CHAIN21, [((0.21, 0.6), 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            TrainingSet.from_pairs(2, UNIT, [])
