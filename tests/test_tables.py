"""Table-driven learning against the test-only references in helpers.py.

System builds, the q-maxitive / q-minitive extension sweeps, reduced
residuals and whole learn reports are compared by ``repr``, so the sign of
every zero must agree too.  Value pools are small and include -0.0, so ties
between 0.0 and -0.0 are frequent; the chain pool adds exact level values.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caplearn.capacity
import caplearn.learning
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
    relaxed_rhs,
)
from caplearn.capacity import _codes, extend_layer
from caplearn.subsets import masks_of_sizes, subset_label
from caplearn.sugeno import sugeno_qmin_unchecked

from helpers import (
    CHAIN21,
    FloatSub,
    IntSub,
    build_system_reference,
    extend_layer_float_reference,
    extend_layer_reference,
    extend_layer_sweep_reference,
    reference_learning,
    system_values_reference,
    training_set_items_reference,
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


@st.composite
def wide_tables(draw):
    """(n, values): n up to 10, values from a small pool with ±0.0, drawn by
    a seeded generator so that a 2^10 table costs one draw."""
    _, pool = draw(pools)
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return n, [rng.choice(pool) for _ in range(1 << n)]


class TestLayerRecursionMatchesSweep:
    """``extend_layer`` ranks layer q into integer codes, packs them as the
    fields of one int and splits on the highest criterion while 3q <= m
    bits remain, sweeping below that; the whole-table float sweep and the
    float recursion on the lowest criterion are its references."""

    # (n, q, table, (m, q) of the first nodes in the order visited, number
    # of nodes, field width): the top node sweeps; at q = 1 the high half is
    # the constant of its field 0, so only low halves recurse, down to the
    # (2, 1) node that sweeps; at q = 2 both halves recurse and merge; an
    # int above 16 KB splits in halves though 3q > m, down to 2^13 fields
    # of 16 bits or 2^12 of 32; more than 127 codes (C(10, 4) = 210
    # distinct values, or the zeros of n = 15, one code per zero) take
    # 16-bit fields and more than 32,767 (C(18, 9) = 48,620) take 32-bit
    # fields
    BRANCHES = [
        (5, 2, "zeros", [(5, 2)], 1, 8),
        (3, 1, "zeros", [(3, 1), (2, 1)], 2, 8),
        (6, 2, "zeros", [(6, 2), (5, 2), (5, 1), (4, 1), (3, 1), (2, 1)], 6, 8),
        (15, 7, "zeros", [(15, 7), (14, 7), (13, 7), (13, 6), (14, 6), (13, 6), (13, 5)], 7, 16),
        (10, 4, "distinct", [(10, 4)], 1, 16),
        (18, 9, "distinct", [(18, 9), (17, 9), (16, 9), (15, 9), (14, 9), (13, 9), (12, 9), (12, 8)], 781, 32),
    ]

    @settings(deadline=None)
    @given(wide_tables())
    @example((3, [-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0]))
    @example((6, [(-0.0, 0.0, 0.5)[m % 3] for m in range(64)]))
    @example((10, [(0.0, -0.0)[m.bit_count() % 2] for m in range(1024)]))
    def test_every_q_and_order(self, case):
        n, values = case
        for q in range(1, n + 1):
            for kind in SystemKind:
                assert repr(extend_layer(values, n, q, kind)) == repr(
                    extend_layer_sweep_reference(values, n, q, kind)
                )

    @pytest.mark.parametrize("n, q, table, nodes, count, width", BRANCHES)
    def test_branches_and_widths(self, monkeypatch, n, q, table, nodes, count, width):
        calls = []
        real = caplearn.capacity._layer_max

        def counted(t, m, q, w):
            calls.append((m, q, w))
            return real(t, m, q, w)

        monkeypatch.setattr(caplearn.capacity, "_layer_max", counted)
        if table == "zeros":
            # both signs of zero in every layer, ties broken by the order
            values = [(0.0, -0.0, 0.5)[m.bit_length() % 3] for m in range(1 << n)]
            masks = masks_of_sizes(n, (q,))
            _, levels = _codes([values[m] for m in masks], masks, n)
            assert {repr(v) for v in levels} >= {"0.0", "-0.0"}
        else:
            values = [m / (1 << n) for m in range(1 << n)]
        for kind in SystemKind:
            calls.clear()
            got = repr(extend_layer(values, n, q, kind))
            assert calls[: len(nodes)] == [(m, node_q, width) for m, node_q in nodes]
            assert len(calls) == count and {call[2] for call in calls} == {width}
            assert got == repr(extend_layer_sweep_reference(values, n, q, kind))
            assert got == repr(extend_layer_float_reference(values, n, q, kind))


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


SKEWED = Scale.finite_chain((0.0, 0.1, 0.25, 0.7, 1.0))


@st.composite
def part_training_sets(draw):
    """Training sets on CHAIN21, a skewed chain and [0, 1], from pools with
    ±0.0, n = 1 and N = 1 among them."""
    scale = draw(st.sampled_from([CHAIN21, SKEWED, UNIT]))
    if scale is UNIT:
        pool = draw(st.lists(signed_zeros | unit_floats, min_size=1, max_size=4))
    else:
        pool = draw(st.lists(st.sampled_from(scale.levels + (-0.0,)), min_size=1, max_size=4))
    value = st.sampled_from(pool + [-0.0, 0.0])
    n = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.tuples(*[value] * n), value), min_size=1, max_size=8))
    return TrainingSet.from_pairs(n, scale, pairs)


class TestLearnedCapacityIsMadeOfItsParts:
    """``learn`` checks its capacity on the order's top and bottom and the
    rhs it solved against; the full check of the same table agrees, and
    every entry is one of those values."""

    @staticmethod
    def check(ts):
        for mode, (kind, approx, _) in caplearn.learning._MODES.items():
            whole = mode in (LearnMode.GREATEST, LearnMode.LOWEST)
            for q in [None] if whole else range(1, ts.n + 1):
                report = learn(ts, mode, q)
                mu = report.capacity
                if mu is None:
                    continue
                full = Capacity(ts.n, mu.scale, list(mu.values))
                assert repr(mu) == repr(full) and mu == full
                assert mu.scale == (UNIT if approx else ts.scale)
                rhs = ts.targets()
                if report.distance:
                    rhs = relaxed_rhs(rhs, report.distance, kind)
                parts = {repr(v) for v in (kind.order.top, kind.order.bottom, *rhs)}
                assert all(type(v) is float for v in mu.values)
                assert {repr(v) for v in mu.values} <= parts

    # up to 22 learn calls per example: no per-example deadline on a busy host
    @settings(deadline=None)
    @given(part_training_sets())
    @example(ts_of(1, [((-0.0,), 0.0)]))
    @example(ts_of(1, [((0.5,), 0.5)], Scale.finite_chain((0.0, 0.5, 1.0))))
    @example(ts_of(3, [((0.7, 0.1, -0.0), 0.1), ((0.25, 0.7, 1.0), 0.7)], SKEWED))
    def test_random_training_sets(self, ts):
        self.check(ts)

    @pytest.mark.parametrize("ts, q", EDGE_CASES)
    def test_edge_shapes(self, ts, q):
        self.check(ts)

    def test_off_scale_part_is_refused(self):
        with pytest.raises(DomainError, match=r"^part 2 0\.33 is not a member of the 21-level chain$"):
            Capacity._of_parts(1, CHAIN21, [0.0, 1.0], (1.0, 0.0, 0.33))
        with pytest.raises(DomainError, match=r"^part 0 1\.5 is not a member of the unit"):
            Capacity._of_parts(1, UNIT, [0.0, 1.0], (1.5, 0.0))

    def test_shape_is_still_checked(self):
        with pytest.raises(DomainError, match=r"^capacity on 2 criteria needs 4 values, got 2$"):
            Capacity._of_parts(2, UNIT, [0.0, 1.0], (1.0, 0.0))


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


def resized_row(rows):
    """None, or a row index and -1 to shorten that row or +1 to lengthen it."""
    return st.none() | st.tuples(st.integers(0, rows - 1), st.sampled_from([-1, 1]))


class TestValidationMessages:
    """With several off-scale entries, the message names the first one in
    entry order, wherever the bulk membership test stopped.  A row of the
    wrong length is named after the values of the rows before it, and
    before its own."""

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
        matrix = [flat[k * n_cols:(k + 1) * n_cols] for k in range(n_rows)]
        rhs = tuple(flat[n_rows * n_cols:])
        resized = data.draw(resized_row(n_rows))
        if resized is not None:
            k, delta = resized
            matrix[k] = matrix[k][:-1] if delta < 0 else matrix[k] + [0.25]
        matrix = tuple(map(tuple, matrix))
        short = n_rows if resized is None else resized[0]
        checks = [
            (CHAIN21, v, f"matrix entry ({k}, {j})")
            for k, row in enumerate(matrix[:short])
            for j, v in enumerate(row)
        ]
        if resized is None:
            checks += [(CHAIN21, v, f"right-hand side entry {k}") for k, v in enumerate(rhs)]
        expected = first_error(checks)
        if expected is None:
            expected = f"row {short} has {len(matrix[short])} entries, expected {n_cols}"
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
        rows = [flat[k * (n + 1):(k + 1) * (n + 1)] for k in range(size)]
        resized = data.draw(resized_row(size))
        if resized is not None:
            k, delta = resized
            rows[k] = rows[k][:-2] + rows[k][-1:] if delta < 0 else [0.5] + rows[k]
        items = tuple(TrainingDatum(tuple(row[:-1]), row[-1]) for row in rows)
        short = size if resized is None else resized[0]
        expected = first_error(
            (CHAIN21, v, what)
            for k, item in enumerate(items[:short])
            for v, what in [
                (x, f"item {k}, coordinate x{i + 1}") for i, x in enumerate(item.x)
            ]
            + [(item.alpha, f"item {k}, target")]
        )
        if expected is None:
            expected = f"item {short}: object has {len(items[short].x)} coordinates, expected {n}"
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


# members of both scales as plain floats, then as ints and subclasses; then
# values neither scale holds: off-scale numbers, non-numbers and bools
FLOAT_MEMBERS = (0.0, -0.0, 0.25, 0.5, 1.0)
MEMBERS = FLOAT_MEMBERS + (0, 1, IntSub(0), IntSub(1), FloatSub(0.5), FloatSub(-0.0))
NON_MEMBERS = (1.5, -0.25, math.nan, 0.33, "0.5", None, [0.5], True, False)


@st.composite
def value_rows(draw, count, width, resize=True):
    """``count`` rows of ``width`` values, each a list or a tuple; a row
    holds a non-member now and then and, if ``resize``, is one value short
    or long now and then."""
    member = st.sampled_from(draw(st.sampled_from([FLOAT_MEMBERS, MEMBERS])))
    rows = []
    for _ in range(count):
        size = width + (draw(st.sampled_from([0] * 6 + [-1, 1])) if resize else 0)
        row = draw(st.lists(member, min_size=size, max_size=size))
        if size and draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NON_MEMBERS))
        rows.append(draw(st.sampled_from([tuple, tuple, list]))(row))
    return draw(st.sampled_from([tuple, tuple, list]))(rows)


def outcome(build):
    """What ``build`` returns, or the text of the DomainError it raises."""
    try:
        return build()
    except DomainError as exc:
        return str(exc)


def typed(value):
    """``value`` with the type of every part: an int, a FloatSub or a list
    then differs from the float or the tuple that prints alike."""
    if isinstance(value, TrainingDatum):
        return type(value), typed(value.x), typed(value.alpha)
    if type(value) in (tuple, list):
        return type(value), [typed(v) for v in value]
    return type(value), repr(value)


class TestValueChecksMatchReference:
    """One Scale.require_floats call per value list against the bulk check
    and row walk in helpers.py: the same message, the same floats and
    sequence types, and no copy where the reference made none."""

    @given(st.sampled_from([UNIT, CHAIN21]), st.integers(1, 3), st.integers(1, 4), st.data())
    def test_training_set(self, scale, n, size, data):
        rows = data.draw(value_rows(size, n + 1))
        items = type(rows)(TrainingDatum(type(row)(row[:-1]), row[-1]) for row in rows)
        expected = outcome(lambda: training_set_items_reference(n, scale, items))
        got = outcome(lambda: TrainingSet(n, scale, items).items)
        assert typed(got) == typed(expected)
        assert got is items or expected is not items

    @given(st.sampled_from([UNIT, CHAIN21]), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_relational_system(self, scale, n_rows, n_cols, data):
        matrix = data.draw(value_rows(n_rows, n_cols))
        rhs = data.draw(value_rows(1, n_rows, resize=False))[0]
        expected = outcome(lambda: system_values_reference(matrix, rhs, n_cols, scale))

        def stored(kind):
            sys_ = RelationalSystem(kind, matrix, rhs, tuple(range(n_cols)), scale)
            return sys_.matrix, sys_.rhs

        for kind in SystemKind:
            got = outcome(lambda: stored(kind))
            assert typed(got) == typed(expected)
            if type(expected) is tuple:
                assert got[0] is matrix or expected[0] is not matrix
                assert got[1] is rhs or expected[1] is not rhs
