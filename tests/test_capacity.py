import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caplearn.capacity
from caplearn import (
    Capacity,
    DomainError,
    LearnMode,
    Scale,
    capacity_violations,
    is_q_maxitive,
    is_q_minitive,
    learn,
    SystemKind,
    sugeno_qmax,
    sugeno_qmin,
)
from caplearn.capacity import _is_monotone
from caplearn.sugeno import sugeno_qmax_unchecked

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    MU_E_VALUES,
    brute_force_conjugate,
    brute_q_maxitive,
    brute_q_minitive,
    capacity_violations_reference,
    exhaustive_capacity_check,
    is_monotone_reference,
    random_capacity,
    random_object,
    random_training_set,
    subset_max_sweep,
)

UNIT = Scale.unit_interval()
NAN = float("nan")


class TestConstruction:
    def test_wrong_table_size(self):
        with pytest.raises(DomainError):
            Capacity(2, UNIT, (0.0, 0.5, 1.0))

    def test_off_scale_value_rejected(self):
        with pytest.raises(DomainError):
            Capacity(2, CHAIN21, (0.0, 0.21, 0.5, 1.0))

    @pytest.mark.parametrize("scale", [UNIT, CHAIN21], ids=["unit", "chain"])
    @pytest.mark.parametrize("bad", [True, False, "0.5", "1", None])
    def test_non_number_rejected_naming_the_subset(self, scale, bad):
        with pytest.raises(DomainError, match=r"value of \{1\} "):
            Capacity(1, scale, (0.0, bad))
        with pytest.raises(DomainError, match=r"value of \{\} "):
            Capacity(1, scale, (bad, 1.0))

    def test_ints_become_floats(self):
        for scale in (UNIT, CHAIN21):
            mu = Capacity(2, scale, [0, 0.5, 0, 1])
            assert mu.values == (0.0, 0.5, 0.0, 1.0)
            assert all(type(v) is float for v in mu.values)

    def test_getitem_by_mask(self, mu_e):
        assert mu_e[0b011] == 1.0
        assert mu_e[0b100] == 0.2


class TestIsCapacity:
    def test_monotone_table_accepted(self):
        assert not capacity_violations((0.0, 0.3, 0.4, 1.0), 2)

    def test_boundary_violation(self):
        msgs = capacity_violations((0.1, 0.3, 0.4, 1.0), 2)
        assert any("empty set" in m for m in msgs)

    def test_monotonicity_violation_names_the_pair(self):
        values = (0.0, 0.5, 0.2, 0.3, 0.1, 1.0, 1.0, 1.0)
        msgs = capacity_violations(values, 3)
        assert any("{1}" in m and "{1,2}" in m for m in msgs)

    def test_all_violations_reported(self):
        values = (0.2, 0.5, 0.0, 0.3, 0.0, 0.1, 0.0, 0.9)
        msgs = capacity_violations(values, 3)
        assert len(msgs) >= 4  # both boundaries plus several pairs

    def test_matches_full_pairwise_check(self):
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(1, 4)
            values = tuple(rng.choice(FIVE_LEVELS) for _ in range(1 << n))
            assert (not capacity_violations(values, n)) == exhaustive_capacity_check(values, n)


TABLE_POOL = (0.0, -0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 0.21, 1.5, -0.1, float("nan"))


@st.composite
def candidate_tables(draw):
    """(n, table): random tables with ties, -0.0, NaN and off-scale
    values, half of them closed under max over one-smaller subsets first,
    then perhaps changed at one subset, so that clean tables and tables
    with a single violation come up as well."""
    n = draw(st.integers(1, 6))
    size = 1 << n
    values = draw(st.lists(st.sampled_from(TABLE_POOL), min_size=size, max_size=size))
    if draw(st.booleans()):
        for mask in range(1, size):
            below = [values[mask ^ (1 << i)] for i in range(n) if mask >> i & 1]
            values[mask] = max([values[mask]] + below)
        values[0] = draw(st.sampled_from((0.0, -0.0, 0.25)))
        values[-1] = draw(st.sampled_from((1.0, 1.0, 0.75)))
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(TABLE_POOL))
    return n, tuple(values) if draw(st.booleans()) else values


class TestViolationsMatchTheScan:
    @given(candidate_tables())
    def test_random_tables(self, case):
        n, values = case
        assert capacity_violations(values, n) == capacity_violations_reference(values, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_violation_on_each_bit(self, n):
        # off-scale values with no scale given: only the pair across `bit`
        # breaks monotonicity
        for bit in range(n):
            for mask, value in ((1 << bit, -0.5), (((1 << n) - 1) ^ (1 << bit), 1.5)):
                values = [m.bit_count() / n for m in range(1 << n)]
                values[mask] = value
                found = capacity_violations(values, n)
                assert found == capacity_violations_reference(values, n)
                assert any(m.startswith("monotonicity") for m in found)

    def test_wrong_length(self):
        assert capacity_violations((0.0, 1.0, 1.0), 2) == capacity_violations_reference(
            (0.0, 1.0, 1.0), 2
        )


@st.composite
def monotonicity_tables(draw):
    """(n, table, planted) for n = 1..10: tables drawn from a few levels,
    with ties and both zeros side by side, or, from n = 8, from at least
    128 distinct values, so that the codes take 16 bits; half of them made
    monotone (a max over subsets, or for the distinct values a sort: mask
    order extends the subset order), and of those half given one
    decreasing covering pair, the smaller set's value one float above the
    larger's.  ``planted`` is None, "monotone" or "decreasing"."""
    n = draw(st.integers(1, 10))
    size = 1 << n
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    wide = n >= 8 and draw(st.booleans())
    if wide:
        values = [rng.random() for _ in range(size)]
    else:
        values = [rng.choice((0.0, -0.0, 0.0, -0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(size)]
    planted = None
    if draw(st.booleans()):
        if wide:
            values.sort()
        else:
            subset_max_sweep(values, n)
        planted = "monotone"
    if wide:
        # the sets inside {1,2,3}, closed under subsets, at the bottom
        values[:8] = [rng.choice((0.0, -0.0)) for _ in range(8)]
    if planted and draw(st.booleans()):
        bigger = rng.randrange(1, size)
        bit = rng.choice([1 << i for i in range(n) if bigger >> i & 1])
        values[bigger] = math.nextafter(values[bigger ^ bit], -math.inf)
        planted = "decreasing"
    return n, values, planted


class TestMonotoneMatchesTheBitSlices:
    """``capacity._is_monotone``, one :func:`_layer_max` pass over packed
    level codes, against the comparison maps per bit slice in helpers.py."""

    @settings(deadline=None)
    @given(monotonicity_tables())
    @example((2, [0.0, -0.0, -0.0, 0.0], None))
    @example((3, [-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0], None))
    @example((8, [m / 256 for m in range(256)], "monotone"))
    @example((8, [(m ^ 1) / 256 for m in range(256)], None))
    def test_random_tables(self, case):
        n, values, planted = case
        got = _is_monotone(values, n)
        assert got == is_monotone_reference(values, n)
        if planted is not None:
            assert got is (planted == "monotone")

    @pytest.mark.parametrize("distinct, width", [(127, 8), (128, 16), (1 << 15, 32)])
    def test_code_widths(self, monkeypatch, distinct, width):
        # a rising table over n = 16 with ``distinct`` levels, then the same
        # with one covering pair swapped
        widths = []
        real = caplearn.capacity._layer_max

        def recorded(t, m, q, w):
            widths.append(w)
            return real(t, m, q, w)

        monkeypatch.setattr(caplearn.capacity, "_layer_max", recorded)
        n = 16
        # a subset's mask is never above its superset's
        values = [float(min(m, distinct - 1)) for m in range(1 << n)]
        assert len(set(values)) == distinct
        assert _is_monotone(values, n) and widths[0] == width
        values[1], values[3] = values[3], values[1]
        assert _is_monotone(values, n) is is_monotone_reference(values, n) is False

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, NAN, 0.5, 1.0],
            [0.5, 0.2, NAN, 1.0],
            [NAN, NAN, NAN, 0.5],
            [0.0, 0.5, 0.25, NAN],
        ],
    )
    def test_nan_is_never_proved_monotone(self, values):
        # a NaN makes the covering-pair comparisons no order; the bulk check
        # refuses rather than guesses, and capacity_violations scans
        assert not _is_monotone(values, 2)
        assert capacity_violations(values, 2) == capacity_violations_reference(values, 2)


class TestQCheckMemo:
    """Each capacity is classified for the q-checks once per q and order."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        real = caplearn.capacity._classify

        def counted(values, n, q, kind):
            calls.append((q, kind))
            return real(values, n, q, kind)

        monkeypatch.setattr(caplearn.capacity, "_classify", counted)
        return calls

    def test_six_scores_sweep_once(self, sweeps):
        mu = Capacity(3, CHAIN21, MU_E_VALUES)
        objects = [(0.15, 0.2, 0.3), (0.5, 0.25, 0.3), (0.4, 0.7, 0.35)] * 2
        values = [sugeno_qmax(mu, x, 2) for x in objects]
        assert sweeps == [(2, SystemKind.MAX_MIN)]
        assert values == [sugeno_qmax_unchecked(mu, x, 2) for x in objects]

    def test_learned_capacities_score_without_a_sweep(self, sweeps):
        # learn returns an extension, which is its own extension, and says so
        rng = random.Random(20)
        learned = []
        for _ in range(100):
            n = rng.randint(2, 4)
            q = rng.randint(1, n - 1)
            ts = random_training_set(rng, n, rng.randint(1, 4), FIVE_LEVELS)
            for mode, score in ((LearnMode.QMAX, sugeno_qmax), (LearnMode.QMIN, sugeno_qmin),
                                (LearnMode.QMAX_APPROX, sugeno_qmax),
                                (LearnMode.QMIN_APPROX, sugeno_qmin)):
                mu = learn(ts, mode, q).capacity
                if mu is not None:
                    learned.append((mu, q, score))
        assert len(learned) >= 100
        objects = [random_object(rng, mu.n, FIVE_LEVELS) for mu, _, _ in learned]
        scores = [score(mu, x, q) for (mu, q, score), x in zip(learned, objects)]
        assert sweeps == []
        # the seeded answer is the sweep's: a fresh copy passes and agrees
        fresh = [score(Capacity(mu.n, mu.scale, mu.values), x, q)
                 for (mu, q, score), x in zip(learned, objects)]
        assert fresh == scores and len(sweeps) == len(learned)

    def test_each_order_sweeps_once(self, sweeps, mu_e):
        for _ in range(3):
            is_q_maxitive(mu_e, 2)
            is_q_minitive(mu_e, 2)
        assert len(sweeps) == 2
        is_q_maxitive(mu_e, 1)
        assert len(sweeps) == 3

    def test_q_equal_n_needs_no_sweep(self, sweeps, monkeypatch):
        # every table is n-maxitive and n-minitive, a capacity or not, with
        # no classification; a score at q = n reads the monotonicity check
        # alone, with no layer-seeded pass
        def no_layer_pass(*args):
            raise AssertionError("a layer-seeded pass at q = n")

        monkeypatch.setattr(caplearn.capacity, "_subset_max", no_layer_pass)
        for values in (MU_E_VALUES, (0.0, 0.5, 0.0, 0.25, 1.0, 0.0, 0.5, 1.0)):
            mu = Capacity(3, UNIT, values)
            assert is_q_maxitive(mu, 3) and is_q_minitive(mu, 3)
            assert sweeps == []
            assert sugeno_qmax(mu, (0.5, 0.25, 0.3), 3) == sugeno_qmax_unchecked(
                mu, (0.5, 0.25, 0.3), 3
            )
            assert sweeps == [(3, SystemKind.MAX_MIN)]
            sweeps.clear()

    def test_orders_answer_apart(self):
        # {1,2} is the max of its singletons, but the empty set is not the
        # min of them: 1-maxitive, not 1-minitive, asked in either order
        values = (0.0, 1.0, 0.5, 1.0)
        mu = Capacity(2, UNIT, values)
        assert is_q_maxitive(mu, 1) and not is_q_minitive(mu, 1)
        mu = Capacity(2, UNIT, values)
        assert not is_q_minitive(mu, 1) and is_q_maxitive(mu, 1)

    def test_memo_agrees_with_fresh_capacities(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(1, 4)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            calls = [(rng.choice((is_q_maxitive, is_q_minitive)), rng.randint(1, n))
                     for _ in range(6)]
            for check, q in calls:
                assert check(mu, q) == check(Capacity(n, mu.scale, mu.values), q)

    def test_failed_check_raises_every_time(self, mu_e):
        x = (0.5, 0.25, 0.3)
        for _ in range(3):
            with pytest.raises(DomainError, match="not 1-maxitive"):
                sugeno_qmax(mu_e, x, 1)
            with pytest.raises(DomainError, match="not 1-minitive"):
                sugeno_qmin(mu_e, x, 1)

    def test_q_still_checked_after_a_valid_call(self, mu_e):
        sugeno_qmax(mu_e, (0.5, 0.25, 0.3), 2)
        for q in (0, 4):
            with pytest.raises(DomainError, match="q must be"):
                is_q_maxitive(mu_e, q)
            with pytest.raises(DomainError, match="q must be"):
                sugeno_qmax(mu_e, (0.5, 0.25, 0.3), q)

    def test_memo_is_not_part_of_the_value(self, mu_e):
        checked = Capacity(3, CHAIN21, MU_E_VALUES)
        is_q_maxitive(checked, 2)
        is_q_minitive(checked, 1)
        assert checked == mu_e
        assert hash(checked) == hash(mu_e)
        assert repr(checked) == repr(mu_e)

    def test_replace_starts_a_fresh_memo(self):
        maxitive = (0.0, 0.5, 0.0, 0.5)
        other = (0.0, 0.5, 0.0, 1.0)
        mu = Capacity(2, UNIT, maxitive)
        assert is_q_maxitive(mu, 1)
        changed = dataclasses.replace(mu, values=other)
        assert not is_q_maxitive(changed, 1)
        assert is_q_maxitive(dataclasses.replace(changed, values=maxitive), 1)


class TestQMaxitive:
    def test_every_capacity_is_n_maxitive(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(1, 4)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            assert is_q_maxitive(mu, n)
            assert is_q_minitive(mu, n)

    def test_reference_greatest_capacity_is_2_maxitive(self, mu_e):
        assert is_q_maxitive(mu_e, 2)
        assert not is_q_maxitive(mu_e, 1)

    def test_pair_above_singletons_is_not_1_maxitive(self):
        values = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        mu = Capacity(3, UNIT, values)
        assert not is_q_maxitive(mu, 1)
        assert is_q_maxitive(mu, 2)

    def test_reference_lowest_capacity_is_2_minitive(self, mu_f):
        assert is_q_minitive(mu_f, 2)

    def test_q_out_of_range(self, mu_e):
        for q in (0, 4, -1):
            with pytest.raises(DomainError):
                is_q_maxitive(mu_e, q)
            with pytest.raises(DomainError):
                is_q_minitive(mu_e, q)

    def test_matches_literal_definition(self):
        rng = random.Random(16)
        for _ in range(100):
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            assert is_q_maxitive(mu, q) == brute_q_maxitive(mu, q)
            assert is_q_minitive(mu, q) == brute_q_minitive(mu, q)

    def test_duality_with_conjugate(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            q = rng.randint(1, n)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            assert is_q_maxitive(mu, q) == is_q_minitive(brute_force_conjugate(mu), q)
            assert is_q_minitive(mu, q) == is_q_maxitive(brute_force_conjugate(mu), q)

    def test_maxitivity_is_monotone_in_q(self):
        rng = random.Random(18)
        for _ in range(100):
            n = rng.randint(2, 5)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            held = False
            for q in range(1, n + 1):
                now = is_q_maxitive(mu, q)
                assert now or not held  # once true, stays true
                held = held or now
