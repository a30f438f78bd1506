import math
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from caplearn import Capacity, DomainError, Scale, ScaleKind, TrainingSet
from caplearn.io import scale_to_json
from caplearn.subsets import subset_label

from helpers import CHAIN21, FloatSub, IntSub


class TestConstruction:
    def test_unit_interval(self):
        sc = Scale.unit_interval()
        assert sc.kind is ScaleKind.UNIT_INTERVAL
        assert sc.levels is None
        assert not hasattr(sc, "tol")  # the tolerance is learn's

    def test_chain_keeps_levels(self):
        sc = Scale.finite_chain([0.0, 0.2, 0.7, 1.0])
        assert sc.levels == (0.0, 0.2, 0.7, 1.0)

    def test_uniform_chain_needs_a_step(self):
        with pytest.raises(DomainError, match="^uniform chain needs at least one step$"):
            Scale.uniform_chain(0)

    @pytest.mark.parametrize("steps", [True, 2.5, 2.0, "4", None])
    def test_uniform_chain_steps_must_be_an_int(self, steps):
        with pytest.raises(
            DomainError, match=rf"^uniform chain steps must be an integer, got {steps!r}$"
        ):
            Scale.uniform_chain(steps)

    def test_uniform_chain_matches_literals(self):
        # i/20 must round to the same double as the parsed decimal
        assert CHAIN21.levels[3] == 0.15
        assert CHAIN21.levels[4] == 0.2
        assert CHAIN21.levels[14] == 0.7

    @pytest.mark.parametrize(
        "levels",
        [
            [0.0],
            [0.1, 1.0],
            [0.0, 0.9],
            [0.0, 0.5, 0.5, 1.0],
            [0.0, 0.7, 0.4, 1.0],
            [0.0, math.nan, 1.0],
            [0.0, math.inf, 1.0],
            [0, 10**400, 1],
        ],
    )
    def test_bad_chain_rejected(self, levels):
        with pytest.raises(DomainError):
            Scale.finite_chain(levels)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Scale.finite_chain(["0", "0.5", "1"]),
            lambda: Scale.finite_chain([False, True]),
            lambda: Scale(ScaleKind.FINITE_CHAIN, ("0", "1")),
        ],
        ids=["strings", "bools", "constructor-strings"],
    )
    def test_levels_that_are_no_numbers_are_refused(self, make):
        with pytest.raises(DomainError, match="is not a number"):
            make()

    @pytest.mark.parametrize(
        "levels",
        [(0, 0.5, 1), (FloatSub(0.0), 0.5, IntSub(1)), (IntSub(0), FloatSub(0.5), 1.0)],
        ids=["ints", "subclasses", "mixed"],
    )
    def test_int_levels_are_kept_as_floats(self, levels):
        sc = Scale(ScaleKind.FINITE_CHAIN, levels)
        assert repr(sc.levels) == "(0.0, 0.5, 1.0)"
        assert sc == Scale.finite_chain([0.0, 0.5, 1.0])
        assert repr(scale_to_json(sc)["levels"]) == "[0.0, 0.5, 1.0]"

    def test_unit_interval_takes_no_levels(self):
        with pytest.raises(DomainError):
            Scale(ScaleKind.UNIT_INTERVAL, (0.0, 1.0))


class TestMembership:
    def test_chain_membership_is_exact(self):
        assert CHAIN21.contains(0.15)
        assert not CHAIN21.contains(0.151)
        assert not CHAIN21.contains(0.15 + 1e-12)

    def test_unit_interval_membership(self):
        sc = Scale.unit_interval()
        assert sc.contains(0.0) and sc.contains(1.0) and sc.contains(0.3333)
        assert not sc.contains(-0.1) and not sc.contains(1.0001)

    @given(
        st.sampled_from([CHAIN21, Scale.unit_interval()]),
        st.lists(
            st.sampled_from(
                CHAIN21.levels
                + (-0.0, 0, 1, 2, -1, 0.151, 1.5, -0.1, float("nan"), True, False)
                + ("0.5", "1", None)
                + (FloatSub(0.5), FloatSub(-0.0), IntSub(1))
                + (FloatSub(1.5), IntSub(2), FloatSub(float("nan")))
            )
            | st.floats()
            | st.integers(),
            max_size=6,
        ),
    )
    def test_floats_is_contains_on_every_value(self, sc, values):
        floats = sc.floats(values)
        if all(map(sc.contains, values)):
            assert repr(floats) == repr(tuple(map(float, values)))
        else:
            assert floats is None
        assert repr(sc.floats(iter(values))) == repr(floats)

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_bools_and_non_numbers_are_not_members(self, sc):
        for value in (True, False, "0.5", "1", None, [0.5]):
            assert not sc.contains(value)
            assert sc.floats([0.0, value, 1.0]) is None
        assert sc.contains(0) and sc.contains(1)
        assert repr(sc.floats([0, 1.0, 1])) == "(0.0, 1.0, 1.0)"

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_a_tuple_of_floats_is_returned_as_given(self, sc):
        values = (0.0, -0.0, 1.0)
        assert sc.floats(values) is values
        assert sc.floats(()) == ()

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_subclass_values_are_checked_in_bulk(self, sc):
        # no value is walked one by one: a valid set never reaches contains
        # or require, though each value is a FloatSub
        rng = random.Random(5)
        pairs = [([FloatSub(rng.choice(CHAIN21.levels)) for _ in range(3)],
                  FloatSub(rng.choice(CHAIN21.levels))) for _ in range(50)]
        refuse = mock.Mock(side_effect=AssertionError("walked one value"))
        with mock.patch.object(Scale, "require", refuse), \
                mock.patch.object(Scale, "contains", refuse):
            ts = TrainingSet.from_pairs(3, sc, pairs)
        expected = TrainingSet.from_pairs(3, sc, [(map(float, x), float(a)) for x, a in pairs])
        assert {type(v) for item in ts.items for v in (*item.x, item.alpha)} == {float}
        assert ts == expected

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_training_set_rejects_a_bool(self, sc):
        with pytest.raises(DomainError, match="item 0, coordinate x1"):
            TrainingSet.from_pairs(2, sc, [((True, 0.5), 0.5)])
        with pytest.raises(DomainError, match="item 0, target"):
            TrainingSet.from_pairs(2, sc, [((1.0, 0.5), False)])

    def test_require_raises_with_context(self):
        with pytest.raises(DomainError, match="coordinate"):
            CHAIN21.require(0.21, "coordinate x1")

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_an_integer_past_the_digit_limit_is_named_by_its_size(self, sc):
        # repr refuses an int of more decimal digits than the interpreter allows
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no limit on int-to-str digits")
        huge = 10 ** (limit + 700)
        tail = re.escape(f" <an integer of {limit + 701} digits> is not a member of {sc.describe()}") + "$"
        for value in (huge, -huge):
            with pytest.raises(DomainError, match="^value" + tail):
                sc.require(value)
        with pytest.raises(DomainError, match=r"^value of \{1\}" + tail):
            Capacity(1, sc, [0, huge])
        with pytest.raises(DomainError, match="^item 1, coordinate x2" + tail):
            TrainingSet.from_pairs(2, sc, [((0, 1), 1), ((0.0, huge), 0.5)])
        # below the limit, the value is named by its repr
        with pytest.raises(DomainError, match=f"^value {10**400} is not a member"):
            sc.require(10**400)

    def test_numpy_values_are_scale_members(self):
        numpy = pytest.importorskip("numpy")
        assert Scale.finite_chain(numpy.linspace(0, 1, 5)) == Scale.uniform_chain(4)
        rows = numpy.array([[0.25, 0.5], [1.0, 0.0]])
        ts = TrainingSet.from_pairs(2, Scale.unit_interval(), zip(rows, rows[:, 1]))
        assert {type(v) for item in ts.items for v in (*item.x, item.alpha)} == {float}
        assert ts == TrainingSet.from_pairs(2, Scale.unit_interval(),
                                            [((0.25, 0.5), 0.5), ((1.0, 0.0), 0.0)])

    def test_numpy_integers_are_scale_members(self):
        numpy = pytest.importorskip("numpy")
        assert Scale.finite_chain(numpy.array([0, 1])) == Scale.uniform_chain(1)
        assert Scale.finite_chain(numpy.array([0, 1], dtype=numpy.uint8)).levels == (0.0, 1.0)
        for sc in (CHAIN21, UNIT):
            assert repr(sc.floats([numpy.int64(1), numpy.int32(0), 0.5])) == "(1.0, 0.0, 0.5)"
            ts = TrainingSet.from_pairs(2, sc, [((numpy.int64(1), 0.5), numpy.int64(1))])
            assert ts == TrainingSet.from_pairs(2, sc, [((1.0, 0.5), 1.0)])
            assert {type(v) for v in (*ts.items[0].x, ts.items[0].alpha)} == {float}
        # an integer off the scale is named as given
        with pytest.raises(DomainError, match=r"^target np\.int64\(2\) is not a member"):
            UNIT.require(numpy.int64(2), "target")

    @pytest.mark.parametrize("sc", [CHAIN21, Scale.unit_interval()], ids=["chain", "unit"])
    def test_numpy_bools_are_not_members(self, sc):
        numpy = pytest.importorskip("numpy")
        for value in (numpy.bool_(True), numpy.bool_(False)):
            assert not sc.contains(value)
            assert sc.floats([0.0, value]) is None
        with pytest.raises(DomainError, match="chain level np.False_ is not a number"):
            Scale.finite_chain(numpy.array([False, True]))
        with pytest.raises(DomainError, match="item 0, coordinate x1"):
            TrainingSet.from_pairs(2, sc, [((numpy.bool_(True), 0.5), 0.5)])


UNIT = Scale.unit_interval()
# members of each scale, ints included, and values that are not: a bool, a
# string, None, a list and NaN are on neither scale
MEMBERS = {
    UNIT: st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
    CHAIN21: st.sampled_from(CHAIN21.levels + (0, 1)),
}
NOT_NUMBERS = (True, False, "0.5", None, [0.5], math.nan)
OFF_NUMBERS = {
    UNIT: (1.5, -0.25, -5e-324, 1.0000000000000002, math.inf),
    CHAIN21: (0.33, 0.151, 1.5, -0.25, math.inf),
}


class TestRequireFloats:
    @given(st.sampled_from([UNIT, CHAIN21]), st.data())
    def test_names_the_first_failure_in_index_order(self, sc, data):
        off = st.sampled_from(NOT_NUMBERS + OFF_NUMBERS[sc])
        values = data.draw(st.lists(MEMBERS[sc], max_size=12))
        for _ in range(data.draw(st.integers(1, 3))):
            values.insert(data.draw(st.integers(0, len(values))), data.draw(off))
        expected = None
        for i, v in enumerate(values):
            try:
                sc.require(v, f"entry {i}")
            except DomainError as exc:
                expected = str(exc)
                break
        assert expected is not None
        with pytest.raises(DomainError) as info:
            sc.require_floats(values, "entry {}".format)
        assert str(info.value) == expected

    @given(st.sampled_from([UNIT, CHAIN21]), st.data())
    def test_members_raise_nothing(self, sc, data):
        values = data.draw(st.lists(MEMBERS[sc], max_size=12))
        assert sc.require_floats(values, "entry {}".format) == tuple(map(float, values))


# values on no scale that a table may hold, bools after a 1.0 among them
ODD_VALUES = NOT_NUMBERS + (math.inf, -math.inf, 10**400, -(10**400), 2, 1.5, -0.25, 0.151)


@st.composite
def tables(draw):
    """(scale, n, values): a table of members with up to two entries
    replaced by odd values or zeros."""
    sc = draw(st.sampled_from([UNIT, CHAIN21]))
    n = draw(st.integers(1, 3))
    values = draw(st.lists(MEMBERS[sc], min_size=1 << n, max_size=1 << n))
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(values) - 1))
        values[index] = draw(st.sampled_from(ODD_VALUES + (-0.0, 0.0, 1.0)))
    return sc, n, values


class TestCapacityTables:
    """``Capacity`` accepts exactly the tables that a per-value ``contains``
    loop accepts, names the first value it refuses, and stores each value as
    a float of the same ``repr``."""

    @given(tables())
    @example((CHAIN21, 1, [1.0, True]))
    @example((UNIT, 2, [0.0, 1.0, True, 1]))
    @example((UNIT, 2, [0.0, 0.5, math.nan, 1.0]))
    @example((CHAIN21, 2, [0, -0.0, 10**400, 1.0]))
    def test_accepts_what_contains_accepts(self, case):
        sc, n, values = case
        refused = next((mask for mask, v in enumerate(values) if not sc.contains(v)), None)
        if refused is not None:
            with pytest.raises(DomainError) as info:
                Capacity(n, sc, values)
            assert str(info.value) == (
                f"value of {subset_label(refused)} {values[refused]!r}"
                f" is not a member of {sc.describe()}"
            )
            return
        mu = Capacity(n, sc, values)
        assert [repr(v) for v in mu.values] == [repr(float(v)) for v in values]
        assert all(type(v) is float for v in mu.values)

    def test_a_tuple_of_floats_is_kept_as_given(self):
        for sc in (UNIT, CHAIN21):
            values = (0.0, -0.0, 0.5, 1.0)
            assert Capacity(2, sc, values).values is values
            assert Capacity(2, sc, list(values)).values == values
