import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import caplearn.capacity
import caplearn.sugeno
from caplearn import (
    Capacity,
    DomainError,
    LearnMode,
    Scale,
    SystemKind,
    TrainingSet,
    integrals,
    is_q_maxitive,
    is_q_minitive,
    learn,
    sugeno_maxmin,
    sugeno_minmax,
    sugeno_qmax,
    sugeno_qmin,
)
from caplearn.capacity import _q_holds, extend_layer
from caplearn.cli import main
from caplearn.io import save_capacity
from caplearn.subsets import drop_one_bit, masks_of_sizes
from caplearn.sugeno import _chain, _ranking, sugeno_qmax_unchecked, sugeno_qmin_unchecked

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    FloatSub,
    IntSub,
    brute_force_conjugate,
    brute_q_maxitive,
    brute_q_minitive,
    brute_sugeno_maxmin,
    chain_reference,
    random_capacity,
    random_object,
    random_training_set,
    sugeno_table_reference,
)

UNIT = Scale.unit_interval()

# (scale, pool) pairs; the pools hold -0.0 beside 0.0 so zeros tie often
POOLS = st.one_of(
    st.tuples(st.just(CHAIN21), st.just(CHAIN21.levels + (-0.0,))),
    st.tuples(st.just(UNIT), st.just(FIVE_LEVELS + (-0.0,))),
    st.tuples(
        st.just(UNIT),
        st.lists(
            st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=4,
        ).map(tuple),
    ),
)


@st.composite
def monotone_capacities(draw, pools=POOLS):
    """(mu, pool): a monotone, normalised capacity (each value raised to the
    max of its covered ones) on a drawn scale, and that scale's pool."""
    scale, pool = draw(pools)
    n = draw(st.integers(1, 6))
    size = 1 << n
    values = [draw(st.sampled_from([0.0, -0.0]))] + [0.0] * (size - 1)
    for mask in range(1, size - 1):
        raw = draw(st.sampled_from(pool))
        values[mask] = max([raw] + [values[sub] for sub in drop_one_bit(mask)])
    values[-1] = 1.0
    return Capacity(n, scale, tuple(values)), pool


@st.composite
def capacities_and_objects(draw):
    """A capacity from :func:`monotone_capacities` and a tie-heavy object."""
    mu, pool = draw(monotone_capacities())
    return mu, draw(tie_heavy_objects(pool, mu.n))


def tie_heavy_objects(pool, n):
    """Objects whose coordinates come from at most three pool values."""
    return st.lists(st.sampled_from(pool), min_size=1, max_size=3).flatmap(
        lambda coords: st.tuples(*[st.sampled_from(coords)] * n)
    )


@st.composite
def tables(draw, extended=st.booleans()):
    """(mu, q, kind, x): a table with values from a pool holding both zeros,
    raised to monotone or left as drawn, then extended from its layer q in
    the order of ``kind`` (so its own extension) when ``extended`` draws
    True."""
    scale, pool = draw(POOLS)
    n = draw(st.integers(1, 5))
    q = draw(st.integers(1, n))
    kind = draw(st.sampled_from(SystemKind))
    values = [draw(st.sampled_from(pool)) for _ in range(1 << n)]
    if draw(st.booleans()):
        # each value raised to the max of its covered ones: the table and
        # its extension in either order are monotone
        for mask in range(1, 1 << n):
            values[mask] = max([values[mask]] + [values[sub] for sub in drop_one_bit(mask)])
    if draw(extended):
        values = extend_layer(values, n, q, kind)
    return Capacity(n, scale, tuple(values)), q, kind, draw(tie_heavy_objects(pool, n))


# the skewed chain of the golden corpus's mu_skewed.json
SKEWED = Scale.finite_chain((0.0, 0.1, 0.25, 0.7, 1.0))


@st.composite
def capacities_and_object_lists(draw):
    """(mu, objects): a capacity from :func:`monotone_capacities`, on the
    skewed chain too, and one to five tie-heavy objects."""
    skewed = st.tuples(st.just(SKEWED), st.just(SKEWED.levels + (-0.0,)))
    mu, pool = draw(monotone_capacities(POOLS | skewed))
    return mu, draw(st.lists(tie_heavy_objects(pool, mu.n), min_size=1, max_size=5))


def q_extensions():
    return tables(extended=st.just(True))


SCORES = {
    SystemKind.MAX_MIN: (sugeno_qmax, sugeno_qmax_unchecked),
    SystemKind.MIN_MAX: (sugeno_qmin, sugeno_qmin_unchecked),
}
DUAL = {SystemKind.MAX_MIN: SystemKind.MIN_MAX, SystemKind.MIN_MAX: SystemKind.MAX_MIN}


def assert_checked_is_reduced(mu, q, kind, x):
    """The checked form of ``kind`` equals the reduced form by ``repr``, on
    mu and on its conjugate, whichever route the checked form takes."""
    for table, order in ((mu, kind), (brute_force_conjugate(mu), DUAL[kind])):
        checked, reduced = SCORES[order]
        assert repr(checked(table, x, q)) == repr(reduced(table, x, q))


def all_pairs_monotone(mu):
    """values[A] <= values[B] for every A inside B: 4^n pairs."""
    size = 1 << mu.n
    return all(
        mu.values[a] <= mu.values[b] for a in range(size) for b in range(size) if a & b == a
    )


def brute_scoring(mu, q, kind):
    """The q-check by brute force: a monotone table whose values beyond
    layer q are those of the definition of q-maxitive (q-minitive)."""
    brute = brute_q_maxitive if kind is SystemKind.MAX_MIN else brute_q_minitive
    return all_pairs_monotone(mu) and brute(mu, q)


def assert_q_forms_agree(mu, q, x):
    """Wherever the q-check of an order holds, its checked form equals the
    full form and the reduced form by ``repr``; returns how many held."""
    held = 0
    for holds, checked, full, reduced in (
        (is_q_maxitive, sugeno_qmax, sugeno_maxmin, sugeno_qmax_unchecked),
        (is_q_minitive, sugeno_qmin, sugeno_minmax, sugeno_qmin_unchecked),
    ):
        if holds(mu, q):
            assert repr(checked(mu, x, q)) == repr(full(mu, x)) == repr(reduced(mu, x, q))
            held += 1
    return held


@st.composite
def q_capacities(draw):
    """(mu, q, x): a capacity and object from :func:`capacities_and_objects`
    and a q, the capacity extended from its layer q in a drawn order when a
    boolean says so.  One boundary set of that layer first takes the top
    (max-min) or a zero (min-max), so the extension stays normalised; it
    stays monotone, since no other kept set lies beyond it."""
    mu, x = draw(capacities_and_objects())
    n = mu.n
    q = draw(st.integers(1, n))
    if q < n and draw(st.booleans()):
        kind = draw(st.sampled_from(SystemKind))
        dual = kind is SystemKind.MIN_MAX
        values = list(mu.values)
        boundary = draw(st.sampled_from(masks_of_sizes(n, (n - q if dual else q,))))
        values[boundary] = draw(st.sampled_from([0.0, -0.0])) if dual else 1.0
        mu = Capacity(n, mu.scale, tuple(extend_layer(values, n, q, kind)))
    return mu, q, x


def not_monotone():
    """(mu, q, kind, x), mu fresh: its own extension from layer 2 but not
    monotone, {1} holding 0.5 and {1,2} 0, so not 2-maxitive.  The chain of
    x reads {2}, {1,2} and {1,2,3}, so the chain form misses {1} and gives
    0, where the reduced form gives 0.5."""
    mu = Capacity(3, UNIT, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    return mu, 2, SystemKind.MAX_MIN, (0.5, 1.0, -0.0)


def _in_order(values, q, kind):
    """(mu, q, kind, x) for a max-min table: as it is, or for min-max its
    conjugate 1 - values[complement], which min-max reads as the max-min
    table shifted down by 1, so the classification carries over."""
    n = (len(values) - 1).bit_length()
    if kind is SystemKind.MIN_MAX:
        values = [1.0 - v for v in reversed(values)]
    return Capacity(n, UNIT, tuple(values)), q, kind, (0.5,) * n


def decreasing_below_layer_q(n, q, kind):
    """A q-extension whose one decreasing covering pair is (C - {1}, C),
    C the first q criteria: layers up to q hold |X| / 8, but C - {1} holds
    1/16 more than C, and the other size-q sets around it 1/8 more."""
    values = [0.0] * (1 << n)
    for mask in masks_of_sizes(n, range(q + 1)):
        values[mask] = mask.bit_count() / 8
    top = (1 << q) - 1
    values[top ^ 1] = q / 8 + 1 / 16
    for bit in range(q, n):
        values[top ^ 1 | 1 << bit] = (q + 1) / 8
    return _in_order(extend_layer(values, n, q, SystemKind.MAX_MIN), q, kind)


def off_extension_above_q(n, q, kind):
    """A monotone table that differs from its extension from layer q at the
    full set alone, which holds 1 instead of the max q / 8 of layer q."""
    values = [mask.bit_count() / 8 for mask in range(1 << n)]
    values = extend_layer(values, n, q, SystemKind.MAX_MIN)
    values[-1] = 1.0
    return _in_order(values, q, kind)


class TestReferenceValues:
    def test_greatest_capacity_reproduces_targets(self, mu_e):
        assert sugeno_maxmin(mu_e, (0.15, 0.2, 0.3)) == 0.2
        assert sugeno_maxmin(mu_e, (0.5, 0.25, 0.3)) == 0.3
        assert sugeno_minmax(mu_e, (0.4, 0.7, 0.35)) == 0.4

    def test_lowest_capacity_reproduces_targets(self, mu_f):
        assert sugeno_maxmin(mu_f, (0.5, 0.25, 0.3)) == 0.3
        assert sugeno_minmax(mu_f, (0.15, 0.2, 0.3)) == 0.2

    def test_reduced_forms_on_reference_capacities(self, mu_e, mu_f):
        assert sugeno_qmax(mu_e, (0.5, 0.25, 0.3), 2) == 0.3
        assert sugeno_qmin(mu_f, (0.15, 0.2, 0.3), 2) == 0.2


class TestBasicProperties:
    def test_constant_object_returns_the_constant(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 5)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            c = rng.choice(FIVE_LEVELS)
            assert sugeno_maxmin(mu, (c,) * n) == c
            assert sugeno_minmax(mu, (c,) * n) == c

    def test_formulas_agree_exactly(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 5)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            x = random_object(rng, n, FIVE_LEVELS)
            assert sugeno_maxmin(mu, x) == sugeno_minmax(mu, x)

    def test_matches_term_by_term_evaluation(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            x = random_object(rng, n, FIVE_LEVELS)
            assert sugeno_maxmin(mu, x) == brute_sugeno_maxmin(mu, x)

    def test_internality(self):
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randint(1, 5)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            x = random_object(rng, n, FIVE_LEVELS)
            assert min(x) <= sugeno_maxmin(mu, x) <= max(x)

    def test_monotone_in_the_object(self):
        rng = random.Random(25)
        for _ in range(100):
            n = rng.randint(1, 4)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            x = random_object(rng, n, FIVE_LEVELS)
            y = tuple(min(v + rng.choice((0.0, 0.25)), 1.0) for v in x)
            assert sugeno_maxmin(mu, x) <= sugeno_maxmin(mu, y)


class TestSortedFormMatchesDefinition:
    """The sorted (chain) forms equal the 2^n-subset definition by ``repr``
    on capacities, signed zeros included."""

    @given(capacities_and_objects())
    @example((Capacity(3, UNIT, (-0.0, 0.25, 0.5, 0.5, 0.0, 0.5, 0.75, 1.0)), (0.5,) * 3))
    @example((Capacity(3, UNIT, (-0.0, 0.25, 0.5, 0.5, 0.0, 0.5, 0.75, 1.0)), (0.0, -0.0, 0.0)))
    @example((Capacity(2, CHAIN21, (0.0, -0.0, 0.0, 1.0)), (-0.0, -0.0)))
    def test_forms_equal_the_table_reference(self, case):
        mu, x = case
        assert repr(sugeno_maxmin(mu, x)) == repr(
            sugeno_table_reference(mu, x, SystemKind.MAX_MIN)
        )
        assert repr(sugeno_minmax(mu, x)) == repr(
            sugeno_table_reference(mu, x, SystemKind.MIN_MAX)
        )


class TestBulkScoring:
    """``integrals`` gives each object's two integrals as the one-object
    forms do, by ``repr``, and as the definition over all 2^n subsets does,
    by value; its ``_chain`` kernel equals the builtin-meet reference."""

    @given(capacities_and_object_lists())
    # n = 1; a zero result reports the empty set's -0.0
    @example((Capacity(1, UNIT, (-0.0, 1.0)), [(0.0,), (-0.0,), (0.5,)]))
    # N = 1, on the skewed chain, two coordinates tied
    @example((Capacity(3, SKEWED, (0.0, 0.1, 0.1, 0.25, 0.0, 0.7, 0.25, 1.0)),
              [(0.7, -0.0, 0.7)]))
    @example((Capacity(3, UNIT, (-0.0, 0.25, 0.5, 0.5, 0.0, 0.5, 0.75, 1.0)),
              [(0.5,) * 3, (0.0, -0.0, 0.0), (-0.0, 0.75, 0.75), (1.0, 0.0, 1.0)]))
    @example((Capacity(2, CHAIN21, (0.0, -0.0, 0.0, 1.0)), [(-0.0, -0.0), (0.05, 0.05)]))
    def test_equals_the_one_object_forms_and_the_definition(self, case):
        mu, objects = case
        scores = integrals(mu, objects)
        assert len(scores) == len(objects)
        for x, (lo, hi) in zip(objects, scores):
            assert repr((lo, hi)) == repr((sugeno_maxmin(mu, x), sugeno_minmax(mu, x)))
            assert lo == hi == sugeno_table_reference(mu, x, SystemKind.MAX_MIN)
            for kind in SystemKind:
                order = kind.order
                got = _chain(mu.values, x, _ranking(x), order)
                assert got == chain_reference(mu.values, x, order)

    def test_numpy_rows(self):
        numpy = pytest.importorskip("numpy")
        mu = Capacity(3, CHAIN21, (0.0, 0.3, 0.4, 1.0, 0.2, 1.0, 1.0, 1.0))
        rows = numpy.array([[0.5, 0.25, 0.3], [0, 1, 1], [0.15, 0.2, 0.3]])
        objects = [(0.5, 0.25, 0.3), (0.0, 1.0, 1.0), (0.15, 0.2, 0.3)]
        assert integrals(mu, rows) == integrals(mu, objects) == [
            (sugeno_maxmin(mu, x), sugeno_minmax(mu, x)) for x in objects
        ]
        scores = integrals(mu, numpy.array([[0, 1, 1], [1, 0, 0]]))
        assert scores == [(1.0, 1.0), (0.3, 0.3)]
        assert {type(v) for pair in scores for v in pair} == {float}
        with pytest.raises(DomainError, match=r"^item 0: coordinate x1 np\.True_ is not a member"):
            integrals(mu, numpy.array([[True, False, True]]))

    def test_no_objects(self, mu_e):
        assert integrals(mu_e, []) == []

    @pytest.mark.parametrize(
        "objects",
        [
            [(0.5, 0.25), (0.5, 0.21, 0.3)],
            [(0.5, 0.25, 0.3), (0.5, 0.21, 0.3), (0.5, 0.25)],
            [(0.5, 0.25, 0.3), (0.5, 0.25, 0.3, 0.0)],
            [(0.5, 0.25, 0.3), (0.5, 0.25, 0.3), (0.2, 0.25, 1.5)],
            [(0.5, 0.25, 0.3), (float("nan"), 0.25, 0.3), (0.21, 0.25, 0.3)],
            [(0.5, True, 0.3)],
            [(0.5, 0.25, 0.3), (0.5, 0.25, "0.3")],
            [(0.5, 0.25, 0.3), (0.0, 0.25, None), (0.5, 0.25)],
        ],
    )
    def test_names_the_first_bad_item_as_the_one_object_forms(self, mu_e, objects):
        for form in (sugeno_maxmin, sugeno_minmax):
            for k, x in enumerate(objects):
                try:
                    form(mu_e, x)
                except DomainError as exc:
                    expected = f"item {k}: {exc}"
                    break
            with pytest.raises(DomainError) as err:
                integrals(mu_e, iter(objects))
            assert str(err.value) == expected


class TestSignedZero:
    """Every form reports a zero result as mu's value on the empty set,
    whichever zero the object's coordinates hold."""

    @pytest.mark.parametrize("empty", [0.0, -0.0])
    def test_forms_agree_by_repr(self, empty):
        mu = Capacity(1, UNIT, (empty, 1.0))
        x = (-0.0,)
        forms = [
            sugeno_maxmin(mu, x),
            sugeno_minmax(mu, x),
            sugeno_qmax(mu, x, 1),
            sugeno_qmin(mu, x, 1),
            sugeno_qmax_unchecked(mu, x, 1),
            sugeno_qmin_unchecked(mu, x, 1),
        ]
        assert [repr(v) for v in forms] == [repr(empty)] * len(forms)

    @pytest.mark.parametrize("empty", [0.0, -0.0])
    def test_eval_prints_one_zero(self, empty, tmp_path, capsys):
        path = tmp_path / "mu.json"
        save_capacity(Capacity(1, UNIT, (empty, 1.0)), path)
        assert main(["eval", "--capacity", str(path), "--object=-0.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [repr(payload[k]) for k in ("maxmin", "minmax", "value")] == [repr(empty)] * 3


class TestReducedForms:
    def test_q_equal_n_is_the_full_formula(self):
        rng = random.Random(26)
        for _ in range(50):
            n = rng.randint(1, 4)
            mu = random_capacity(rng, n, FIVE_LEVELS)
            x = random_object(rng, n, FIVE_LEVELS)
            assert sugeno_qmax_unchecked(mu, x, n) == sugeno_maxmin(mu, x)
            assert sugeno_qmin_unchecked(mu, x, n) == sugeno_minmax(mu, x)

    def test_reduction_sound_on_learned_capacities(self):
        # capacities produced by the cardinality-bounded learners are
        # q-maxitive / q-minitive by construction
        rng = random.Random(27)
        done = 0
        for _ in range(2000):
            if done >= 40:
                break
            n = rng.randint(2, 4)
            q = rng.randint(1, n)
            ts = random_training_set(rng, n, rng.randint(1, 4), FIVE_LEVELS)
            report = learn(ts, LearnMode.QMAX, q)
            if report.capacity is None:
                continue
            mu = report.capacity
            for _ in range(5):
                x = random_object(rng, n, FIVE_LEVELS)
                assert sugeno_qmax(mu, x, q) == sugeno_maxmin(mu, x)
            dual = learn(ts, LearnMode.QMIN, q)
            if dual.capacity is not None:
                for _ in range(5):
                    x = random_object(rng, n, FIVE_LEVELS)
                    assert sugeno_qmin(dual.capacity, x, q) == sugeno_minmax(dual.capacity, x)
            done += 1

    def test_checked_form_rejects_wrong_capacity(self, mu_e):
        assert not is_q_maxitive(mu_e, 1)
        with pytest.raises(DomainError):
            sugeno_qmax(mu_e, (0.5, 0.25, 0.3), 1)
        # unchecked variant stays total
        sugeno_qmax_unchecked(mu_e, (0.5, 0.25, 0.3), 1)

    def test_checked_qmin_rejects_wrong_capacity(self, mu_e):
        assert not is_q_minitive(mu_e, 1)
        with pytest.raises(DomainError):
            sugeno_qmin(mu_e, (0.5, 0.25, 0.3), 1)
        sugeno_qmin_unchecked(mu_e, (0.5, 0.25, 0.3), 1)


class TestCheckedFormsMatchTheReducedForms:
    """``sugeno_qmax``/``sugeno_qmin`` read the chain form of a monotone
    q-extension, which equals the full form and the ``_unchecked`` reduced
    form by ``repr``, signed zeros included, and refuse a q-extension that
    is not monotone."""

    @given(q_extensions())
    @example(not_monotone())
    @example((Capacity(2, UNIT, (-0.0, 0.0, -0.0, 0.0)), 1, SystemKind.MAX_MIN, (-0.0, 0.0)))
    def test_q_extensions_and_their_conjugates(self, case):
        mu, q, kind, x = case
        if all_pairs_monotone(mu):
            assert _q_holds(mu, q, kind) is True
            assert_checked_is_reduced(mu, q, kind, x)
        else:
            assert _q_holds(mu, q, kind) is False
            with pytest.raises(DomainError):
                SCORES[kind][0](mu, x, q)

    @given(POOLS, st.integers(1, 4), st.data())
    def test_learned_capacities_and_their_conjugates(self, scale_pool, n, data):
        scale, pool = scale_pool
        q = data.draw(st.integers(1, n))
        pairs = data.draw(
            st.lists(st.tuples(tie_heavy_objects(pool, n), st.sampled_from(pool)),
                     min_size=1, max_size=4)
        )
        ts = TrainingSet.from_pairs(n, scale, pairs)
        for mode, kind in ((LearnMode.QMAX, SystemKind.MAX_MIN),
                           (LearnMode.QMIN, SystemKind.MIN_MAX),
                           (LearnMode.QMAX_APPROX, SystemKind.MAX_MIN),
                           (LearnMode.QMIN_APPROX, SystemKind.MIN_MAX)):
            mu = learn(ts, mode, q).capacity
            if mu is not None:
                assert_checked_is_reduced(mu, q, kind, data.draw(tie_heavy_objects(pool, n)))

    @given(q_capacities())
    @example((Capacity(1, UNIT, (-0.0, 1.0)), 1, (-0.0,)))
    @example((Capacity(1, CHAIN21, (0.0, 1.0)), 1, (-0.0,)))
    @example((Capacity(2, UNIT, (-0.0, -0.0, 0.0, 1.0)), 1, (0.0, -0.0)))
    @example((Capacity(2, UNIT, (0.0, 1.0, -0.0, 1.0)), 1, (-0.0, 0.5)))
    def test_capacities_where_the_check_holds(self, case):
        mu, q, x = case
        held = assert_q_forms_agree(mu, q, x)
        # at q = n every capacity passes both checks
        assert held == 2 or q < mu.n


class TestCheckedRoute:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = caplearn.capacity._classify

        def counted(values, n, q, kind):
            calls.append((q, kind))
            return real(values, n, q, kind)

        monkeypatch.setattr(caplearn.capacity, "_classify", counted)
        return calls

    def test_one_pass_per_q_and_order(self, passes, mu_e, mu_f):
        x = (0.5, 0.25, 0.3)
        for _ in range(3):
            assert sugeno_qmax(mu_e, x, 2) == sugeno_qmax(mu_e, x, 3) == 0.3
            assert sugeno_qmin(mu_f, x, 2) == 0.3
            with pytest.raises(DomainError):  # the refusal is classified once too
                sugeno_qmax(mu_e, x, 1)
        assert passes == [(2, SystemKind.MAX_MIN), (3, SystemKind.MAX_MIN),
                          (2, SystemKind.MIN_MAX), (1, SystemKind.MAX_MIN)]

    def test_a_table_that_is_not_monotone_is_refused(self, passes):
        mu, q, kind, x = not_monotone()
        assert is_q_maxitive(mu, q) is False
        for _ in range(2):
            with pytest.raises(DomainError, match="not 2-maxitive"):
                sugeno_qmax(mu, x, q)
        # the forms the check would choose between disagree on it
        assert sugeno_maxmin(mu, x) == 0.0
        assert sugeno_qmax_unchecked(mu, x, q) == 0.5
        assert passes == [(q, kind)]

    def test_refuses_through_the_q_check_names_it_reads_at_call_time(self, monkeypatch, mu_e, mu_f):
        # the names perfbench/tracing.py wraps in caplearn.sugeno
        seen = []
        for name in ("is_q_maxitive", "is_q_minitive"):
            monkeypatch.setattr(caplearn.sugeno, name,
                                lambda mu, q, name=name: seen.append(name) or False)
        x = (0.5, 0.25, 0.3)
        with pytest.raises(DomainError, match="not 2-maxitive"):
            sugeno_qmax(mu_e, x, 2)
        with pytest.raises(DomainError, match="not 2-minitive"):
            sugeno_qmin(mu_f, x, 2)
        assert seen == ["is_q_maxitive", "is_q_minitive"]

    def test_a_classifier_that_always_says_chain_fails_the_comparison(self, monkeypatch):
        monkeypatch.setattr(caplearn.capacity, "_classify", lambda values, n, q, kind: True)
        mu, q, kind, x = not_monotone()
        with pytest.raises(AssertionError):
            assert_checked_is_reduced(mu, q, kind, x)


class TestClassification:
    @given(tables())
    @example(not_monotone())
    @example((Capacity(2, UNIT, (0.0, 0.5, 0.0, 0.25)), 2, SystemKind.MAX_MIN, (0.5, 0.5)))
    @example((Capacity(2, UNIT, (0.0, 0.5, 0.0, 0.25)), 1, SystemKind.MIN_MAX, (0.5, 0.5)))
    @example((Capacity(2, UNIT, (-0.0, 0.0, 0.0, -0.0)), 1, SystemKind.MAX_MIN, (0.0, 0.0)))
    # tables the pass over layers 0..q refuses, each in both orders, at
    # n = 4, q = 2 and at n = 8, q = 1 (the kernel's constant high half):
    # a q-extension that is not monotone, and a monotone table off its
    # extension from layer q
    @example(decreasing_below_layer_q(4, 2, SystemKind.MAX_MIN))
    @example(decreasing_below_layer_q(4, 2, SystemKind.MIN_MAX))
    @example(decreasing_below_layer_q(8, 1, SystemKind.MAX_MIN))
    @example(decreasing_below_layer_q(8, 1, SystemKind.MIN_MAX))
    @example(off_extension_above_q(4, 2, SystemKind.MAX_MIN))
    @example(off_extension_above_q(4, 2, SystemKind.MIN_MAX))
    @example(off_extension_above_q(8, 1, SystemKind.MAX_MIN))
    @example(off_extension_above_q(8, 1, SystemKind.MIN_MAX))
    def test_matches_brute_force(self, case):
        mu, q, kind, _ = case
        assert _q_holds(mu, q, kind) is brute_scoring(mu, q, kind)

    @given(POOLS, st.integers(1, 4), st.data())
    def test_a_fresh_copy_of_a_learned_capacity_is_chain_form(self, scale_pool, n, data):
        # learn records the chain form on what it returns; a fresh copy of
        # it must earn that by the pass, ints and -0.0 in the data included
        scale, pool = scale_pool
        pool = pool + (0, 1)
        q = data.draw(st.integers(1, n))
        pairs = data.draw(
            st.lists(st.tuples(tie_heavy_objects(pool, n), st.sampled_from(pool)),
                     min_size=1, max_size=4)
        )
        ts = TrainingSet.from_pairs(n, scale, pairs)
        for mode in LearnMode:
            whole = mode in (LearnMode.GREATEST, LearnMode.LOWEST)
            mu = learn(ts, mode, None if whole else q).capacity
            if mu is None:
                continue
            fresh = Capacity(mu.n, mu.scale, mu.values)
            assert mu._scoring and all(held is True for held in mu._scoring.values())
            # with no answer recorded, the copy's checked forms run the
            # checks and equal the full and reduced forms
            assert not fresh._scoring
            x = data.draw(tie_heavy_objects(pool, n))
            assert assert_q_forms_agree(fresh, n if whole else q, x) >= 1
            for q_seeded, kind in mu._scoring:
                assert _q_holds(fresh, q_seeded, kind) is True


class TestValidation:
    def test_dimension_mismatch(self, mu_e):
        with pytest.raises(DomainError):
            sugeno_maxmin(mu_e, (0.5, 0.25))

    def test_off_scale_coordinate(self, mu_e):
        assert mu_e.scale is CHAIN21 or mu_e.scale.levels is not None
        with pytest.raises(DomainError):
            sugeno_maxmin(mu_e, (0.21, 0.25, 0.3))

    @pytest.mark.parametrize(
        "scale, x, named",
        [
            (CHAIN21, (0.2, 0.25, 0.21), "coordinate x3 0.21"),
            (UNIT, (0.2, 1.5, 0.3), "coordinate x2 1.5"),
            (CHAIN21, (0.25, True, 0.3), "coordinate x2 True"),
            (UNIT, (0.25, True, 0.3), "coordinate x2 True"),
            (CHAIN21, (float("nan"), 0.25, 0.3), "coordinate x1 nan"),
            (UNIT, (float("nan"), 0.25, 0.3), "coordinate x1 nan"),
        ],
    )
    def test_first_bad_coordinate_is_named(self, mu_e, scale, x, named):
        mu = Capacity(3, scale, mu_e.values)
        for form in (sugeno_maxmin, sugeno_minmax):
            with pytest.raises(DomainError) as err:
                form(mu, x)
            assert str(err.value) == f"{named} is not a member of {scale.describe()}"

    @pytest.mark.parametrize("sub", [FloatSub, IntSub])
    def test_number_subclass_coordinates_integrate_to_floats(self, sub):
        mu = Capacity(2, UNIT, (0.0, 1.0, 1.0, 1.0))
        for value in (sugeno_maxmin(mu, (sub(1), 0.2)), sugeno_minmax(mu, (sub(1), 0.2)),
                      sugeno_qmax_unchecked(mu, (sub(1), 0.2), 1)):
            assert (type(value), value) == (float, 1.0)

    def test_q_out_of_range(self, mu_e):
        with pytest.raises(DomainError):
            sugeno_qmax_unchecked(mu_e, (0.15, 0.2, 0.3), 0)
