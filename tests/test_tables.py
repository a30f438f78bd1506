"""Table-driven learning against the test-only references in helpers.py.

System builds, the q-maxitive / q-minitive extension sweeps, reduced
residuals and whole learn reports are compared by ``repr``, so the sign of
every zero must agree too.  Value pools are small and include -0.0, so ties
between 0.0 and -0.0 are frequent; the chain pool adds exact level values.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplearn import (
    Capacity,
    DomainError,
    LearnMode,
    RelationalSystem,
    Scale,
    SystemKind,
    TrainingDatum,
    TrainingSet,
    build_system,
    learn,
)
from caplearn.capacity import extend_layer
from caplearn.subsets import masks_of_sizes, subset_label
from caplearn.sugeno import sugeno_qmin_unchecked

from helpers import (
    CHAIN21,
    build_system_reference,
    extend_layer_reference,
    reference_learning,
)

UNIT = Scale.unit_interval()
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
signed_zeros = st.sampled_from([-0.0, 0.0])

# (scale, pool) pairs; pools hold a few values so that ties are frequent
pools = st.one_of(
    st.tuples(st.just(UNIT), st.lists(signed_zeros | unit_floats, min_size=1, max_size=4)),
    st.tuples(st.just(UNIT), st.just((-0.0, 0.0, 0.5, 1.0))),
    st.tuples(st.just(CHAIN21), st.just(CHAIN21.levels + (-0.0,))),
)


@st.composite
def training_sets(draw, max_n=5):
    scale, pool = draw(pools)
    value = st.sampled_from(pool)
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.tuples(*[value] * n), value), min_size=1, max_size=8))
    return TrainingSet.from_pairs(n, scale, pairs)


@st.composite
def training_sets_with_q(draw):
    ts = draw(training_sets())
    return ts, draw(st.integers(1, ts.n))


@st.composite
def tables(draw):
    _, pool = draw(pools)
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from(pool), min_size=1 << n, max_size=1 << n))
    return values, n, draw(st.integers(1, n))


def ts_of(n, pairs, scale=UNIT):
    return TrainingSet.from_pairs(n, scale, pairs)


# n = 1, N = 1, q = 1 and q = n, with signed zeros in objects and targets
EDGE_CASES = [
    (ts_of(1, [((0.5,), 0.5)]), 1),
    (ts_of(1, [((-0.0,), 0.0)]), 1),
    (ts_of(3, [((0.0, -0.0, 0.5), -0.0)]), 1),
    (ts_of(3, [((0.0, -0.0, 0.5), -0.0)]), 3),
    (ts_of(3, [((-0.0, 0.0, 1.0), 0.0), ((1.0, 0.5, -0.0), 0.5)]), 2),
    (ts_of(4, [((0.0, -0.0, 0.0, -0.0), -0.0), ((1.0, 1.0, 0.0, 0.5), 0.5)]), 4),
]


class TestSystemsMatchReference:
    @staticmethod
    def check(ts, q):
        for kind in SystemKind:
            assert repr(build_system(ts, kind, q)) == repr(build_system_reference(ts, kind, q))
            assert repr(build_system(ts, kind)) == repr(build_system_reference(ts, kind))

    @given(training_sets_with_q())
    def test_random_training_sets(self, ts_q):
        self.check(*ts_q)

    @pytest.mark.parametrize("ts, q", EDGE_CASES)
    def test_edge_shapes(self, ts, q):
        self.check(ts, q)


class TestExtensionMatchesReference:
    @given(tables())
    @example(([0.0, -0.0, 0.0, 0.0], 2, 1))
    @example(([-0.0, 0.0, -0.0, 0.0, 0.0, 1.0, -0.0, 0.0], 3, 1))
    def test_sweeps_match_covering_recursions(self, case):
        values, n, q = case
        for kind in SystemKind:
            assert repr(extend_layer(values, n, q, kind)) == repr(
                extend_layer_reference(values, n, q, kind)
            )

    def test_small_layers_are_found_without_a_scan(self):
        assert masks_of_sizes(4, (2,)) == [3, 5, 6, 9, 10, 12]
        assert masks_of_sizes(3, range(0, 4)) == list(range(8))
        assert masks_of_sizes(3, ()) == []


class TestLearnReportsMatchReference:
    """All six modes, with reduced residuals and table builds, end to end."""

    @staticmethod
    def check(ts, q):
        for mode in LearnMode:
            mode_q = None if mode in (LearnMode.GREATEST, LearnMode.LOWEST) else q
            fast = learn(ts, mode, mode_q)
            with reference_learning():
                slow = learn(ts, mode, mode_q)
            assert repr(fast) == repr(slow)

    # twelve learn calls per example: no per-example deadline on a busy host
    @settings(deadline=None)
    @given(training_sets_with_q())
    def test_random_training_sets(self, ts_q):
        self.check(*ts_q)

    @pytest.mark.parametrize("ts, q", EDGE_CASES)
    def test_edge_shapes(self, ts, q):
        self.check(ts, q)

    def test_reduced_residual_keeps_the_sign_of_zero(self):
        # the reduced min-max form's term is the coordinate -0.0 here; like
        # the full max-min integral, it reports mu's 0.0 on the empty set
        ts = ts_of(1, [((-0.0,), 0.0)])
        for mode in (LearnMode.QMIN, LearnMode.QMIN_APPROX):
            report = learn(ts, mode, 1)
            assert repr(sugeno_qmin_unchecked(report.capacity, (-0.0,), 1)) == "0.0"
            assert repr(report.residuals) == "(0.0,)"
        self.check(ts, 1)


# off-scale values: outside [0, 1], NaN, and between levels of CHAIN21
OFF_SCALE = {UNIT: (1.5, -0.25, math.nan), CHAIN21: (1.5, -0.25, math.nan, 0.33)}


def first_error(checks):
    """Message of the first failing (value, what) pair, as Scale.require words it."""
    for scale, value, what in checks:
        try:
            scale.require(value, what)
        except DomainError as exc:
            return str(exc)
    return None


@st.composite
def off_scale_positions(draw, size, scale=CHAIN21):
    """A few distinct positions in range(size), each with an off-scale value."""
    positions = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
    return {p: draw(st.sampled_from(OFF_SCALE[scale])) for p in positions}


class TestValidationMessages:
    """With several off-scale entries, the message names the first one in
    entry order, wherever the bulk membership test stopped."""

    @given(st.integers(1, 4), st.sampled_from([UNIT, CHAIN21]), st.data())
    def test_capacity(self, n, scale, data):
        bad = data.draw(off_scale_positions(1 << n, scale))
        values = tuple(bad.get(mask, 0.5) for mask in range(1 << n))
        expected = first_error(
            (scale, v, f"value of {subset_label(mask)}") for mask, v in enumerate(values)
        )
        with pytest.raises(DomainError) as info:
            Capacity(n, scale, values)
        assert str(info.value) == expected

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_relational_system(self, n_rows, n_cols, data):
        cells = n_rows * n_cols + n_rows
        bad = data.draw(off_scale_positions(cells))
        flat = [bad.get(p, 0.25) for p in range(cells)]
        matrix = tuple(
            tuple(flat[k * n_cols:(k + 1) * n_cols]) for k in range(n_rows)
        )
        rhs = tuple(flat[n_rows * n_cols:])
        expected = first_error(
            [
                (CHAIN21, v, f"matrix entry ({k}, {j})")
                for k, row in enumerate(matrix)
                for j, v in enumerate(row)
            ]
            + [(CHAIN21, v, f"right-hand side entry {k}") for k, v in enumerate(rhs)]
        )
        for kind in SystemKind:
            with pytest.raises(DomainError) as info:
                RelationalSystem(kind, matrix, rhs, tuple(range(n_cols)), CHAIN21)
            assert str(info.value) == expected

    def test_relational_system_short_row_before_later_value(self):
        with pytest.raises(DomainError, match=r"^row 0 has 1 entries, expected 2$"):
            RelationalSystem(
                SystemKind.MAX_MIN, ((0.5,), (0.5, 1.5)), (0.5, 0.5), (0, 1), UNIT
            )
        with pytest.raises(DomainError, match=r"matrix entry \(0, 1\) 1.5"):
            RelationalSystem(
                SystemKind.MAX_MIN, ((0.5, 1.5), (0.5,)), (0.5, 0.5), (0, 1), UNIT
            )

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_training_set(self, n, size, data):
        cells = size * (n + 1)
        bad = data.draw(off_scale_positions(cells))
        flat = [bad.get(p, 0.5) for p in range(cells)]
        items = tuple(
            TrainingDatum(tuple(flat[k * (n + 1):k * (n + 1) + n]), flat[k * (n + 1) + n])
            for k in range(size)
        )
        expected = first_error(
            (CHAIN21, v, what)
            for k, item in enumerate(items)
            for v, what in [
                (x, f"item {k}, coordinate x{i + 1}") for i, x in enumerate(item.x)
            ]
            + [(item.alpha, f"item {k}, target")]
        )
        with pytest.raises(DomainError) as info:
            TrainingSet(n, CHAIN21, items)
        assert str(info.value) == expected

    def test_training_set_wrong_length_before_later_value(self):
        items = (TrainingDatum((0.5,), 0.5), TrainingDatum((0.5, 1.5), 0.5))
        with pytest.raises(DomainError, match=r"^item 0: object has 1 coordinates, expected 2$"):
            TrainingSet(2, UNIT, items)
        items = (TrainingDatum((0.5, 1.5), 0.5), TrainingDatum((0.5,), 0.5))
        with pytest.raises(DomainError, match=r"item 0, coordinate x2 1.5"):
            TrainingSet(2, UNIT, items)
