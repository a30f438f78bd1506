import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from caplearn import (
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingSet,
    apply_system,
    build_system,
    chebyshev_distance,
    potential_solution,
    relaxed_rhs,
)
from caplearn.chebyshev import _maxmin_per_row
from caplearn.learning import _labels, _per_row

from helpers import (
    CHAIN21,
    approx_solution,
    chebyshev_distance_reference,
    cross_gap_maxmin,
    cross_gap_minmax,
    is_consistent,
    maxmin_per_row_reference,
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
    kind = draw(st.sampled_from(SystemKind))
    return build_system(ts, kind, draw(st.integers(1, n)))


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
        assert chebyshev_distance(build_system(ts, SystemKind.MAX_MIN)).distance == 0.0
        assert chebyshev_distance(build_system(ts, SystemKind.MIN_MAX)).distance == 0.0

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


@st.composite
def training_sets_kind_q(draw):
    n = draw(st.integers(1, 4))
    value = st.sampled_from([*draw(value_pools), -0.0, 0.0])
    pairs = draw(
        st.lists(st.tuples(st.tuples(*[value] * n), value), min_size=1, max_size=10)
    )
    ts = TrainingSet.from_pairs(n, UNIT, pairs)
    return ts, draw(st.sampled_from(SystemKind)), draw(st.integers(1, n))


class TestSubsetColumnsMatchSystem:
    """``caplearn distance`` on training data sweeps the subset columns with
    no system; per row and column labels as the system route gives them."""

    @given(training_sets_kind_q())
    @example((TrainingSet.from_pairs(2, UNIT, [((0.0, -0.0), -0.0), ((0.5, 0.0), 0.5)]),
              SystemKind.MIN_MAX, 1))
    def test_per_row_and_labels(self, case):
        ts, kind, q = case
        sys_ = build_system(ts, kind, q)
        assert repr(_per_row(ts, kind, q)) == repr(chebyshev_distance(sys_).per_row)
        assert _labels(ts.n, kind, q) == sys_.column_labels


@st.composite
def sweep_inputs(draw):
    """Columns in item order and a right-hand side, from small pools so that
    cells tie often: exact ints beside floats, signed zeros, all targets
    tied, and a column equal to the targets, which makes every cell of that
    column 0.0 and the distance 0.0.

    The sweep is plain arithmetic, so one pool leaves [0, 1]: there an int
    cell ties a float one only at 1, which only the greatest target reaches,
    and the tie rules at the cut would go untested."""
    pool = draw(
        value_pools
        | st.just((0, 1, 0.0, 1.0, 0.5, -0.0))
        | st.just((0, 1, 2, 0.0, 1.0, 2.0, 0.5, -0.0, -1, -1.0))
    )
    value = st.sampled_from(pool)
    n_rows = draw(st.integers(1, 8))
    rhs = draw(st.lists(value, min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        rhs = [rhs[0]] * n_rows
    column = st.lists(value, min_size=n_rows, max_size=n_rows).map(tuple)
    columns = draw(st.lists(column, min_size=1, max_size=6))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), tuple(rhs))
    return columns, tuple(rhs)


class CountingFloat(float):
    """A float whose subtractions from it are counted: in the sweep, one per
    step of a column's queue (``entries[front] - b``)."""

    steps = 0

    def __sub__(self, other):
        CountingFloat.steps += 1
        return float(self) - other


class TestRowMajorSweep:
    """``_maxmin_per_row`` against the column-major reference, by ``repr``:
    every row without the cut, their max with it."""

    @given(sweep_inputs())
    # N = 1, one column, signed zeros, all targets tied
    @example(([(0.5,)], (0.25,)))
    @example(([(0.0, -0.0, 1.0)], (0.5, 0.5, 0.5)))
    @example(([(0.0, -0.0), (-0.0, 0.5)], (-0.0, 0.0)))
    # int/float ties: a row cut at the running max although its item comes
    # first, and a column skipped at the row's best although it comes first
    @example(([(0.0, 0, -1.0), (-1.0, 2, -1.0)], (-1.0, 2, 1)))
    @example(([(2.0, 0, 0.0), (2, 1.0, 0)], (1.0, 1.0, 1)))
    def test_matches_the_column_major_reference(self, case):
        columns, rhs = case
        reference = maxmin_per_row_reference(columns, rhs)
        assert repr(_maxmin_per_row(columns, rhs)) == repr(reference)
        assert repr(max(_maxmin_per_row(columns, rhs, cut=True))) == repr(max(reference))

    @pytest.mark.parametrize("cut", [False, True])
    def test_consistent_columns_give_zero(self, cut):
        rhs = (0.5, 1, 0.0, 0.25)
        columns = [(1.0, 0, 0.5, 0.0), rhs, (0.0, 1.0, 0, 1)]
        assert repr(max(_maxmin_per_row(columns, rhs, cut=cut))) == "0.0"

    @pytest.mark.parametrize("cut", [False, True])
    def test_queue_state_is_kept_between_visits(self, cut):
        # every row visits the one column, whose queue is popped row by row;
        # a state read afresh at each visit would take about N²/2 steps
        n_rows = 200
        rhs = tuple(k / n_rows for k in range(n_rows))
        column = tuple(CountingFloat(b) for b in rhs)
        CountingFloat.steps = 0
        assert max(_maxmin_per_row([column], rhs, cut=cut)) == 0.0
        assert CountingFloat.steps <= 2 * n_rows


class TestBoundVectors:
    def test_zero_distance_keeps_rhs(self):
        rhs = (0.2, 0.3, 0.4)
        assert relaxed_rhs(rhs, 0.0, SystemKind.MAX_MIN) == rhs
        assert relaxed_rhs(rhs, 0.0, SystemKind.MIN_MAX) == rhs

    def test_clamping(self):
        assert relaxed_rhs((0.9,), 0.3, SystemKind.MAX_MIN) == (1.0,)
        assert relaxed_rhs((0.1,), 0.3, SystemKind.MIN_MAX) == (0.0,)

    def test_plain_shift(self):
        assert relaxed_rhs((0.2, 0.5), 0.1, SystemKind.MAX_MIN) == (
            pytest.approx(0.3, abs=1e-12),
            pytest.approx(0.6, abs=1e-12),
        )
        assert relaxed_rhs((0.5, 0.8), 0.2, SystemKind.MIN_MAX) == (
            pytest.approx(0.3, abs=1e-12),
            pytest.approx(0.6, abs=1e-12),
        )


class TestApproxSolutions:
    def test_consistent_system_recovers_exact_solution(self):
        ts = reference_training_set()
        sys_ = build_system(ts, SystemKind.MAX_MIN)
        assert approx_solution(sys_) == potential_solution(sys_)
        dual = build_system(ts, SystemKind.MIN_MAX)
        assert approx_solution(dual) == potential_solution(dual)

    def test_single_cell_examples(self):
        sys_ = one_row(SystemKind.MAX_MIN, [0.5], 0.8)
        assert approx_solution(sys_) == (1.0,)
        dual = one_row(SystemKind.MIN_MAX, [0.5], 0.2)
        assert approx_solution(dual) == (0.0,)

    def test_residual_norm_equals_distance(self):
        # the defining quality of the Chebyshev approximation
        rng = random.Random(43)
        for _ in range(150):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 4), rng.randint(1, 5), CHAIN21.levels)
            report = chebyshev_distance(sys_)
            sol = approx_solution(sys_, report.distance)
            out = apply_system(sys_, sol)
            residual = max(abs(a - b) for a, b in zip(out, sys_.rhs))
            assert residual == pytest.approx(report.distance, abs=1e-9)

    def test_relaxed_system_is_consistent_by_construction(self):
        rng = random.Random(44)
        for _ in range(60):
            sys_ = random_system(rng, SystemKind.MAX_MIN, 3, 4, CHAIN21.levels)
            eta = approx_solution(sys_)
            reached = apply_system(sys_, eta)
            again = RelationalSystem(
                SystemKind.MAX_MIN, sys_.matrix, reached, sys_.column_labels, UNIT
            )
            assert is_consistent(again)
