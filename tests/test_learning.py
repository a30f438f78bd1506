import random
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import caplearn.learning
from caplearn import (
    DomainError,
    LearnMode,
    Scale,
    SystemKind,
    TrainingDatum,
    TrainingSet,
    build_system,
    capacity_violations,
    chebyshev_distance,
    is_q_maxitive,
    is_q_minitive,
    learn,
    validate_data,
)
from caplearn.capacity import extend_layer
from caplearn.chebyshev import relaxed_rhs
from caplearn.learning import _distance, _products, _reaches, _solve
from caplearn.relational import RelationalSystem
from caplearn.scale import ScaleKind
from caplearn.subsets import add_one_bit, full_mask

from helpers import (
    CHAIN21,
    approx_solution,
    FIVE_LEVELS,
    FloatSub,
    IntSub,
    MU_E_VALUES,
    MU_F_VALUES,
    by_cardinality,
    capacity_from_solution,
    capacity_from_solution_reference,
    capacity_leq,
    closed_form_greatest,
    closed_form_lowest,
    distance_reference,
    extremal_table_sweep,
    index_sets,
    products_reference,
    random_training_set,
    reference_learning,
    representable_training_set,
    solution_by_label,
    solve_reference,
    validate_data_reference,
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


@st.composite
def duplicated_pairs(draw):
    """(object, target) pairs on FIVE_LEVELS and -0.0.  The objects come from
    a pool of at most three, so duplicates are common; a target is mostly one
    of its object's coordinates, so in range."""
    level = st.sampled_from(FIVE_LEVELS + (-0.0,))
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(level, min_size=n, max_size=n), min_size=1, max_size=3))
    objects = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return [(x, draw(st.sampled_from(x) | level)) for x in objects]


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

    @given(duplicated_pairs())
    @example([([0.5, 0.25], 0.5), ([0.5, 0.25], 0.25), ([0.0, 0.0], 0.25), ([0.5, 0.25], 0.5)])
    @example([([0.0], -0.0), ([-0.0], 0.0)])
    def test_bulk_check_matches_reference(self, pairs):
        ts = TrainingSet.from_pairs(len(pairs[0][0]), Scale.finite_chain(FIVE_LEVELS), pairs)
        assert repr(validate_data(ts)) == repr(validate_data_reference(ts))


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
        pair23 = sys_.column_labels.index(0b110)
        assert [row[pair23] for row in sys_.matrix] == [0.15, 0.5, 0.4]

    def test_minmax_q1_keeps_only_largest_proper_subsets(self, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MIN_MAX, 1)
        assert all(m.bit_count() == 2 for m in sys_.column_labels)
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
            e = solution_by_label(build_system(ts, SystemKind.MAX_MIN))
            f = solution_by_label(build_system(ts, SystemKind.MIN_MAX))
            for q in range(1, n + 1):
                e_q = solution_by_label(build_system(ts, SystemKind.MAX_MIN, q))
                assert all(e[mask] == v for mask, v in e_q.items())
                f_q = solution_by_label(build_system(ts, SystemKind.MIN_MAX, q))
                assert all(f[mask] == v for mask, v in f_q.items())

    def test_closed_forms_match_solver(self):
        rng = random.Random(52)
        for _ in range(100):
            n = rng.randint(1, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = solution_by_label(build_system(ts, SystemKind.MAX_MIN))
            assert closed_form_greatest(ts) == e
            f = solution_by_label(build_system(ts, SystemKind.MIN_MAX))
            assert closed_form_lowest(ts) == f


# pools of a few values, so that ties between targets, between 0.0 and
# -0.0, and between whole objects are frequent
extremal_pools = st.one_of(
    st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=4),
    st.just(FIVE_LEVELS + (-0.0,)),
    st.just(CHAIN21.levels + (-0.0,)),
)


@st.composite
def extremal_training_sets(draw, pools=extremal_pools):
    value = st.sampled_from(draw(pools))
    n = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.tuples(*[value] * n), value), min_size=1, max_size=8))
    # repeat some objects, with the same or another target
    for _ in range(draw(st.integers(0, 2))):
        pairs.append((draw(st.sampled_from(pairs))[0], draw(value)))
    return TrainingSet.from_pairs(n, UNIT, pairs)


def ts_of(n, pairs):
    return TrainingSet.from_pairs(n, UNIT, pairs)


# exact ints next to the floats they equal, and both signs of zero
INT_FLOAT_POOL = (0, 1, 0.0, 1.0, 0.5, -0.0)


# relaxations of the targets: a distance and a tolerance, or none (exact)
relaxations = st.none() | st.tuples(
    st.sampled_from([0.125, 0.25, 1 / 3]), st.sampled_from([1e-9, 0.25])
)


class TestExtremalTable:
    """The one residuated solve (``_solve``) and the products on its
    extension (``_products``), at every q, for both kinds, against exact and
    relaxed targets, compared with the system route (cell-by-cell build,
    residuated product, apply) by ``repr``, so the sign of every zero
    agrees; at q = n also with the subset sweep and the blocking-set closed
    forms.  Against exact targets, the one-read decision (``_reaches``) is
    Sanchez's test on the system route: the products equal the targets."""

    @staticmethod
    def check(ts, relax=None):
        closed = {SystemKind.MAX_MIN: closed_form_greatest, SystemKind.MIN_MAX: closed_form_lowest}
        n, targets = ts.n, ts.targets()
        for kind in SystemKind:
            rhs = bound = targets
            if relax is not None:
                distance, tol = relax
                rhs = relaxed_rhs(targets, distance, kind)
                bound = tuple(r + kind.order.sign * tol for r in rhs)
            for q in range(1, n + 1):
                table = _solve(ts, kind, q, rhs, bound)
                assert repr(table) == repr(solve_reference(ts, kind, q, rhs, bound))
                if q < n:
                    table = extend_layer(table, n, q, kind)
                produced = _products(ts, kind, q, table)
                reference = products_reference(ts, kind, q, table)
                assert repr(produced) == repr(reference)
                if relax is None:
                    assert _reaches(ts, kind, table) == (reference == targets)
            if relax is None:
                assert repr((table, produced)) == repr(extremal_table_sweep(ts, kind))
                assert repr({m: table[m] for m in closed[kind](ts)}) == repr(closed[kind](ts))

    @given(extremal_training_sets(), relaxations)
    # n = 1, N = 1, and tied zero targets of both signs
    @example(ts_of(1, [((0.5,), 0.5)]), None)
    @example(ts_of(1, [((-0.0,), 0.0)]), None)
    @example(ts_of(3, [((0.0, -0.0, 0.5), -0.0)]), None)
    @example(ts_of(2, [((0.5, 1.0), 0.0), ((0.5, 1.0), -0.0), ((0.0, -0.0), 0.5)]), None)
    # at q = 1 the first zero min-max column is {1} (outside {2}), whose
    # term is x2 = -0.0, not the first zero coordinate
    @example(ts_of(2, [((0.0, -0.0), 0.0)]), None)
    # an int target, reached by the float 1.0
    @example(ts_of(1, [((1.0,), 1)]), None)
    # targets tied with a coordinate, where a table entry equals the target:
    # max-min item 0 is reached at {1} = 0.5, min-max item 0 at {} = 0.5
    @example(ts_of(1, [((0.5,), 0.5), ((1.0,), 0.5)]), None)
    @example(ts_of(1, [((0.5,), 0.5), ((0.0,), 0.5)]), None)
    # zero targets of both signs, reached by zeros of the other sign
    @example(ts_of(2, [((0.0, 0.5), -0.0), ((-0.0, 1.0), 0.0), ((0.5, 1.0), 0.5)]), None)
    # tied targets 0.0 and -0.0 on items 3 and 8, whose blocking set the
    # closed form once took in hash order
    @example(
        ts_of(5, [((0.0,) * 4 + (0.25 if k in (3, 8) else 0.0,), -0.0 if k == 8 else 0.0)
                  for k in range(9)]),
        None,
    )
    # one row, beyond its target in every coordinate: above it, so it blocks
    # every max-min set, or below it, so it blocks every min-max set
    @example(ts_of(3, [((0.5, 1.0, 0.75), 0.25)]), None)
    @example(ts_of(3, [((0.0, -0.0, 0.25), 0.5)]), None)
    # all targets tied, so the rank order is the item order
    @example(ts_of(2, [((0.5, 1.0), 0.5), ((1.0, 0.25), 0.5), ((0.0, 0.75), 0.5)]), None)
    # zero targets of both signs under a relaxation, which moves all three
    # min-max targets to 0.0
    @example(
        ts_of(2, [((0.5, -0.0), 0.0), ((0.0, 1.0), -0.0), ((0.125, 0.25), 0.125)]),
        (0.125, 1e-9),
    )
    def test_matches_the_system_route(self, ts, relax):
        self.check(ts, relax)

    @pytest.mark.parametrize(
        "kind, pairs, expected",
        [
            # every coordinate above its target, so every row blocks every
            # nonempty set: the first of the tied least targets wins
            (SystemKind.MAX_MIN, [((0.5, 1.0, 0.75), 0.0), ((1.0, 0.5, 0.5), -0.0)], "0.0"),
            (SystemKind.MAX_MIN, [((1.0, 0.5, 0.5), -0.0), ((0.5, 1.0, 0.75), 0.0)], "-0.0"),
            # every coordinate below its target, so every row blocks every
            # proper set: the greatest target wins
            (SystemKind.MIN_MAX, [((0.0, -0.0, 0.25), 0.5), ((0.25, 0.0, 0.5), 1.0)], "1.0"),
        ],
    )
    def test_every_row_blocks_every_subset(self, kind, pairs, expected):
        ts = ts_of(3, pairs)
        self.check(ts)
        table = _solve(ts, kind, 3, ts.targets(), ts.targets())
        boundary = 0 if kind is SystemKind.MAX_MIN else 7
        assert [repr(v) for m, v in enumerate(table) if m != boundary] == [expected] * 7


class TestDistance:
    """``_distance``, swept from the subset columns, against the Chebyshev
    distance of the system built cell by cell, by ``repr``, for both kinds
    and every q."""

    @given(extremal_training_sets(extremal_pools | st.just(INT_FLOAT_POOL)))
    # n = 1, N = 1, tied targets, and signed zeros
    @example(ts_of(1, [((0.5,), 0.25)]))
    @example(ts_of(3, [((0.5, 1.0, 0.0), 0.5), ((1.0, 0.0, 0.5), 0.5), ((0.0, -0.0, 1.0), 0.5)]))
    @example(ts_of(2, [((0.0, -0.0), 0.5), ((0.5, 1.0), -0.0), ((1.0, 0.5), 0.0)]))
    # exact ints tied with floats, which the training set stores as floats
    @example(ts_of(2, [((1, 1.0), 0), ((1.0, 1), 0.5)]))
    @example(ts_of(4, [((1.0, 0, 0, 0.0), 1), ((1.0, 0.0, 0, 1), 0.0),
                       ((1.0, 1.0, 1, 0.0), 1), ((1, 1.0, 1, 1.0), 0)]))
    # a min-max distance of 1.0 at every q, from int data
    @example(ts_of(2, [((0, 1), 0), ((1, 1.0), 0)]))
    def test_matches_the_system_route(self, ts):
        for kind in SystemKind:
            for q in range(1, ts.n + 1):
                assert repr(_distance(ts, kind, q)) == repr(distance_reference(ts, kind, q))


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
            e = solution_by_label(build_system(ts, SystemKind.MAX_MIN))
            f = solution_by_label(build_system(ts, SystemKind.MIN_MAX))
            assert (e[full_mask(n)] == 1.0) == all(
                min(it.x) <= it.alpha for it in ts.items
            )
            assert (f[0] == 0.0) == all(
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

    @pytest.mark.parametrize(
        "pairs",
        [
            (((0.15, 0.2, 0.3), 0.2), ((0.5, 0.25, 0.3), 0.3), ((0.4, 0.7, 0.35), 0.4)),
            (((0.15, 0.2, 0.3), 0.2), ((0.5, 0.25, 0.3), 0.15), ((0.4, 0.7, 0.35), 0.4)),
            (((0.5, 0.6, 0.7), 0.3), ((0.1, -0.0, 0.2), 0.0)),
            (((0.1, 0.2, 0.3), 0.8), ((0.0, 0.0, 0.0), -0.0)),
        ],
        ids=["consistent", "inconsistent", "target-below-min", "target-above-max"],
    )
    def test_q_equal_n_solves_without_the_system(self, monkeypatch, pairs):
        # every mode at every q learns without building a system, and
        # reports what the system route reports
        ts = TrainingSet.from_pairs(3, UNIT, pairs)
        q_modes = (LearnMode.QMAX, LearnMode.QMIN, LearnMode.QMAX_APPROX, LearnMode.QMIN_APPROX)
        runs = [(LearnMode.GREATEST, None), (LearnMode.LOWEST, None)] + [
            (mode, q) for mode in q_modes for q in (1, 2, 3)
        ]
        with reference_learning():
            with_system = {run: learn(ts, *run) for run in runs}

        def refused(*_):
            raise AssertionError("the system was built")

        monkeypatch.setattr(caplearn.learning, "build_system", refused)
        monkeypatch.setattr(RelationalSystem, "__post_init__", refused)
        for (mode, q), report in with_system.items():
            fast = learn(ts, mode, q)
            assert fast.mode is mode and fast.q == q
            assert repr(fast) == repr(report)

    @given(extremal_training_sets())
    # an int target, stored as the float 1.0: reached, so not scored
    @example(ts_of(1, [((1.0,), 1)]))
    # item 1's target exceeds its largest coordinate: inconsistent at every q
    @example(ts_of(2, [((0.5, 1.0), 0.5), ((0.0, 0.25), 0.5), ((1.0, -0.0), 0.0)]))
    def test_consistent_exact_learn_scores_no_row(self, ts):
        # a consistent exact learn decides by one table read per row and
        # scores no row; any other keeps its products, and every report is
        # the system route's, misfit notes included
        runs = [(LearnMode.GREATEST, None), (LearnMode.LOWEST, None)] + [
            (mode, q) for mode in (LearnMode.QMAX, LearnMode.QMIN) for q in range(1, ts.n + 1)
        ]
        with reference_learning():
            expected = {run: learn(ts, *run) for run in runs}

        def refused(*_):
            raise AssertionError("the rows were scored")

        unscored = mock.patch.object(caplearn.learning, "_products", refused)
        for run, report in expected.items():
            with unscored if report.consistent else nullcontext():
                assert repr(learn(ts, *run)) == repr(report)

    @given(
        st.sampled_from([UNIT, Scale.finite_chain(FIVE_LEVELS)]),
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.tuples(*[st.sampled_from(INT_FLOAT_POOL)] * n),
                              st.sampled_from(INT_FLOAT_POOL)),
                    min_size=1, max_size=6,
                ),
            )
        ),
    )
    # an int target tied with a float coordinate: the misfit note of item 0
    # once read "yields 1" where the system route read "yields 1.0"
    @example(
        Scale.uniform_chain(4),
        (2, [((1.0, -0.0), 0.0), ((-0.0, -0.0), 1), ((0.5, 0), 1), ((1, 1.0), -0.0),
             ((0.0, 0), 0.0), ((0.25, 0), 0.5)]),
    )
    def test_int_data_learns_as_its_floats(self, scale, case):
        # every mode at every q: the same report, by repr, from ints as from
        # the floats they equal, and from the system route
        n, pairs = case
        as_given = TrainingSet.from_pairs(n, scale, pairs)
        as_floats = TrainingSet.from_pairs(
            n, scale, [(tuple(map(float, x)), float(a)) for x, a in pairs]
        )
        assert repr(as_given) == repr(as_floats)
        runs = [(LearnMode.GREATEST, None), (LearnMode.LOWEST, None)] + [
            (mode, q) for mode in list(LearnMode)[2:] for q in range(1, n + 1)
        ]
        for run in runs:
            report = learn(as_given, *run)
            assert repr(report) == repr(learn(as_floats, *run))
            with reference_learning():
                assert repr(report) == repr(learn(as_given, *run))

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
        e = solution_by_label(build_system(ref_ts, SystemKind.MAX_MIN, 2))
        for build in (capacity_from_solution, capacity_from_solution_reference):
            assert build(e, 3, 2, ref_ts.scale, SystemKind.MAX_MIN).values == mu_e.values
        assert learn(ref_ts, LearnMode.QMAX, 2).capacity.values == mu_e.values


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
                # the solved layers are the system's approximate solution
                sys_ = build_system(ts, SystemKind.MAX_MIN, q)
                assert tuple(hi.capacity[m] for m in sys_.column_labels) == approx_solution(sys_)
                checked += 1
            lo = learn(ts, LearnMode.QMIN_APPROX, q)
            if lo.capacity is not None:
                assert max(abs(r) for r in lo.residuals) == pytest.approx(lo.distance, abs=1e-9)
                assert is_q_minitive(lo.capacity, q)
                sys_ = build_system(ts, SystemKind.MIN_MAX, q)
                assert tuple(lo.capacity[m] for m in sys_.column_labels) == approx_solution(sys_)
        assert checked >= 60


    def test_failed_boundary_returns_before_the_extension(self, monkeypatch):
        # an approximate mode whose boundary layer misses the top returns no
        # capacity, so it neither extends the table nor scores the rows
        rng = random.Random(61)
        cases = []
        for _ in range(200):
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            ts = random_training_set(rng, n, rng.randint(2, 5), FIVE_LEVELS)
            for mode in (LearnMode.QMAX_APPROX, LearnMode.QMIN_APPROX):
                with reference_learning():
                    report = learn(ts, mode, q)
                if not report.boundary_ok:
                    cases.append((ts, mode, q, report))
        assert {mode for _, mode, _, _ in cases} == {LearnMode.QMAX_APPROX, LearnMode.QMIN_APPROX}

        def refused(*_):
            raise AssertionError("the table was extended or scored")

        monkeypatch.setattr(caplearn.learning, "extend_layer", refused)
        monkeypatch.setattr(caplearn.learning, "_products", refused)
        for ts, mode, q, report in cases:
            assert repr(learn(ts, mode, q)) == repr(report)


class TestSolvedVectorStructure:
    def test_solved_vectors_are_monotone(self):
        rng = random.Random(60)
        for _ in range(80):
            n = rng.randint(2, 4)
            ts = random_training_set(rng, n, rng.randint(1, 5), FIVE_LEVELS)
            e = solution_by_label(build_system(ts, SystemKind.MAX_MIN))
            for mask in range(1, 1 << n):
                for sup in add_one_bit(mask, n):
                    assert e[mask] <= e[sup]
            f = solution_by_label(build_system(ts, SystemKind.MIN_MAX))
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

    @pytest.mark.parametrize("mode", [LearnMode.QMAX, LearnMode.QMIN_APPROX])
    def test_bool_q_rejected(self, ref_ts, mode):
        with pytest.raises(DomainError, match="got True"):
            learn(ref_ts, mode, True)

    @pytest.mark.parametrize("mode, q", [(LearnMode.QMAX_APPROX, 2), (LearnMode.GREATEST, None)])
    def test_tolerance_cannot_be_passed(self, ref_ts, mode, q):
        # the slack off the lattice is the fixed caplearn.learning.TOLERANCE
        with pytest.raises(TypeError, match="'tol'"):
            learn(ref_ts, mode, q, tol=1e-3)
        with pytest.raises(TypeError, match="positional"):
            learn(ref_ts, mode, q, 1e-3)

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

    def test_float_items_are_kept_as_given(self):
        items = tuple(TrainingSet.from_pairs(2, UNIT, [((0.0, 1.0), 0.5)]).items)
        assert TrainingSet(2, UNIT, items).items is items

    @pytest.mark.parametrize("sub", [FloatSub, IntSub])
    def test_number_subclasses_are_stored_as_floats(self, sub):
        # the bulk check takes a subclass, and the floats it returns are kept
        expected = TrainingSet.from_pairs(2, UNIT, [((1.0, 0.25), 0.25), ((0.0, 0.5), 0.0)])
        for ts in (
            TrainingSet.from_pairs(2, UNIT, [([sub(1), 0.25], 0.25), ((0.0, 0.5), sub(0))]),
            TrainingSet(2, UNIT, [TrainingDatum([sub(1), 0.25], 0.25),
                                  TrainingDatum((0.0, 0.5), sub(0))]),
        ):
            assert type(ts.items) is tuple and {type(item.x) for item in ts.items} == {tuple}
            assert {type(v) for item in ts.items for v in (*item.x, item.alpha)} == {float}
            assert (ts, hash(ts)) == (expected, hash(expected))

    def test_lists_are_stored_as_tuples(self):
        # a list object or item list would leave the set unhashable
        expected = TrainingSet.from_pairs(2, UNIT, [((0.5, 0.2), 0.3)])
        for items in ((TrainingDatum([0.5, 0.2], 0.3),), [TrainingDatum((0.5, 0.2), 0.3)]):
            ts = TrainingSet(2, UNIT, items)
            assert type(ts.items) is tuple and type(ts.items[0].x) is tuple
            assert (ts, hash(ts)) == (expected, hash(expected))
            assert validate_data(ts) == []
