import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caplearn import (
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingSet,
    build_maxmin_system,
    build_minmax_system,
    chebyshev_distance,
    cross_gap_maxmin,
    cross_gap_minmax,
    greatest_approx_solution,
    is_consistent,
    lower_bound_rhs,
    lowest_approx_solution,
    maxmin_apply,
    minmax_apply,
    potential_greatest,
    potential_lowest,
    upper_bound_rhs,
)

from helpers import (
    CHAIN21,
    chebyshev_distance_reference,
    random_system,
    reference_training_set,
)

UNIT = Scale.unit_interval()
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# Values are drawn from a small pool so that tied entries and tied targets
# are frequent; the chain pool adds exact level arithmetic.
value_pools = st.one_of(
    st.lists(unit_floats, min_size=1, max_size=4),
    st.just(CHAIN21.levels),
)


@st.composite
def relational_systems(draw):
    kind = draw(st.sampled_from(SystemKind))
    value = st.sampled_from(draw(value_pools))
    n_cols = draw(st.integers(1, 6))
    row = st.tuples(st.tuples(*[value] * n_cols), value)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    # drawing rows from a few distinct ones repeats whole rows
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    return RelationalSystem(
        kind,
        tuple(entries for entries, _ in rows),
        tuple(b for _, b in rows),
        tuple(range(n_cols)),
        UNIT,
    )


@st.composite
def learning_systems(draw):
    n = draw(st.integers(1, 4))
    value = st.sampled_from(draw(value_pools))
    pairs = draw(
        st.lists(st.tuples(st.tuples(*[value] * n), value), min_size=1, max_size=10)
    )
    ts = TrainingSet.from_pairs(n, UNIT, pairs)
    build = draw(st.sampled_from([build_maxmin_system, build_minmax_system]))
    return build(ts, draw(st.integers(1, n)))


def one_row(kind, entries, b):
    return RelationalSystem(kind, (tuple(entries),), (b,), tuple(range(len(entries))), UNIT)


class TestCrossTerms:
    def test_maxmin_examples(self):
        assert cross_gap_maxmin(0.4, 0.5, 0.4) == 0.0
        assert cross_gap_maxmin(0.8, 0.9, 0.2) == pytest.approx(0.3, abs=1e-12)
        assert cross_gap_maxmin(0.8, 0.3, 0.2) == pytest.approx(0.1, abs=1e-12)

    def test_minmax_examples(self):
        assert cross_gap_minmax(0.5, 0.4, 0.4) == 0.0
        assert cross_gap_minmax(0.2, 0.1, 0.8) == pytest.approx(0.3, abs=1e-12)
        assert cross_gap_minmax(0.2, 0.7, 0.8) == pytest.approx(0.1, abs=1e-12)

    @given(unit_floats, unit_floats, unit_floats)
    def test_terms_are_bounded_half_gaps(self, a, m, b):
        assert 0.0 <= cross_gap_maxmin(a, m, b) <= max(a - b, 0.0) / 2 + 1e-12
        assert 0.0 <= cross_gap_minmax(a, m, b) <= max(b - a, 0.0) / 2 + 1e-12


class TestDistance:
    def test_consistent_reference_systems_have_zero_distance(self):
        ts = reference_training_set()
        assert chebyshev_distance(build_maxmin_system(ts)).distance == 0.0
        assert chebyshev_distance(build_minmax_system(ts)).distance == 0.0

    def test_single_cell_shortfall(self):
        report = chebyshev_distance(one_row(SystemKind.MAX_MIN, [0.5], 0.8))
        assert report.distance == pytest.approx(0.3, abs=1e-12)
        assert report.per_row == (report.distance,)

    def test_single_cell_overshoot(self):
        report = chebyshev_distance(one_row(SystemKind.MIN_MAX, [0.5], 0.2))
        assert report.distance == pytest.approx(0.3, abs=1e-12)

    def test_zero_iff_consistent(self):
        rng = random.Random(41)
        for _ in range(150):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 3), rng.randint(1, 5), CHAIN21.levels)
            assert (chebyshev_distance(sys_).distance == 0.0) == is_consistent(sys_)

    def test_adding_columns_never_increases_distance(self):
        rng = random.Random(42)
        for _ in range(60):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            wide = random_system(rng, kind, 3, 5, CHAIN21.levels)
            narrow = RelationalSystem(
                kind,
                tuple(row[:3] for row in wide.matrix),
                wide.rhs,
                wide.column_labels[:3],
                wide.scale,
            )
            assert (
                chebyshev_distance(wide).distance
                <= chebyshev_distance(narrow).distance + 1e-9
            )


class TestSweepMatchesClosedForm:
    """The per-column sweep against the literal O(m·N²) closed form."""

    @staticmethod
    def check(sys_):
        fast = chebyshev_distance(sys_)
        slow = chebyshev_distance_reference(sys_)
        assert fast == slow
        assert repr(fast) == repr(slow)  # also the sign of every zero

    @given(relational_systems())
    def test_random_systems(self, sys_):
        self.check(sys_)

    @given(learning_systems())
    def test_systems_built_from_training_sets(self, sys_):
        self.check(sys_)

    def test_saturation_rounds_like_the_closed_form(self):
        # Here t >= b + 2*c holds in floats but (t - b)/2 >= c does not, so
        # a sweep testing saturation the first way reports c, one ulp high.
        b, t, a = 0.026527351333575075, 0.25158329759496567, 0.13905532446427038
        self.check(RelationalSystem(SystemKind.MAX_MIN, ((a,), (1.0,)), (b, t), (0,), UNIT))

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_signed_zeros(self, kind):
        sys_ = RelationalSystem(
            kind, ((0.0, -0.0), (-0.0, 0.5), (1.0, 0.0)), (-0.0, 0.0, 0.5), (0, 1), UNIT
        )
        self.check(sys_)


class TestBoundVectors:
    def test_zero_distance_keeps_rhs(self):
        rhs = (0.2, 0.3, 0.4)
        assert upper_bound_rhs(rhs, 0.0) == rhs
        assert lower_bound_rhs(rhs, 0.0) == rhs

    def test_clamping(self):
        assert upper_bound_rhs((0.9,), 0.3) == (1.0,)
        assert lower_bound_rhs((0.1,), 0.3) == (0.0,)

    def test_plain_shift(self):
        assert upper_bound_rhs((0.2, 0.5), 0.1) == (
            pytest.approx(0.3, abs=1e-12),
            pytest.approx(0.6, abs=1e-12),
        )
        assert lower_bound_rhs((0.5, 0.8), 0.2) == (
            pytest.approx(0.3, abs=1e-12),
            pytest.approx(0.6, abs=1e-12),
        )


class TestApproxSolutions:
    def test_consistent_system_recovers_exact_solution(self):
        ts = reference_training_set()
        sys_ = build_maxmin_system(ts)
        assert greatest_approx_solution(sys_).values == potential_greatest(sys_).values
        dual = build_minmax_system(ts)
        assert lowest_approx_solution(dual).values == potential_lowest(dual).values

    def test_single_cell_examples(self):
        sys_ = one_row(SystemKind.MAX_MIN, [0.5], 0.8)
        assert greatest_approx_solution(sys_).values == (1.0,)
        dual = one_row(SystemKind.MIN_MAX, [0.5], 0.2)
        assert lowest_approx_solution(dual).values == (0.0,)

    def test_kind_checked(self):
        sys_ = one_row(SystemKind.MAX_MIN, [0.5], 0.8)
        with pytest.raises(Exception):
            lowest_approx_solution(sys_)

    def test_residual_norm_equals_distance(self):
        # the defining quality of the Chebyshev approximation
        rng = random.Random(43)
        for _ in range(150):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 4), rng.randint(1, 5), CHAIN21.levels)
            report = chebyshev_distance(sys_)
            if kind is SystemKind.MAX_MIN:
                sol = greatest_approx_solution(sys_, report.distance)
                out = maxmin_apply(sys_, sol.values)
            else:
                sol = lowest_approx_solution(sys_, report.distance)
                out = minmax_apply(sys_, sol.values)
            residual = max(abs(a - b) for a, b in zip(out, sys_.rhs))
            assert residual == pytest.approx(report.distance, abs=1e-9)

    def test_relaxed_system_is_consistent_by_construction(self):
        rng = random.Random(44)
        for _ in range(60):
            sys_ = random_system(rng, SystemKind.MAX_MIN, 3, 4, CHAIN21.levels)
            eta = greatest_approx_solution(sys_)
            reached = maxmin_apply(sys_, eta.values)
            again = RelationalSystem(
                SystemKind.MAX_MIN, sys_.matrix, reached, sys_.column_labels, UNIT
            )
            assert is_consistent(again)
