import json
import random

import pytest

from caplearn import (
    Capacity,
    DomainError,
    LearnMode,
    Scale,
    is_q_maxitive,
    is_q_minitive,
    learn,
    sugeno_maxmin,
    sugeno_minmax,
    sugeno_qmax,
    sugeno_qmin,
)
from caplearn.cli import main
from caplearn.io import save_capacity
from caplearn.sugeno import sugeno_qmax_unchecked, sugeno_qmin_unchecked

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    brute_sugeno_maxmin,
    random_capacity,
    random_object,
    random_training_set,
)

UNIT = Scale.unit_interval()


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


class TestValidation:
    def test_dimension_mismatch(self, mu_e):
        with pytest.raises(DomainError):
            sugeno_maxmin(mu_e, (0.5, 0.25))

    def test_off_scale_coordinate(self, mu_e):
        assert mu_e.scale is CHAIN21 or mu_e.scale.levels is not None
        with pytest.raises(DomainError):
            sugeno_maxmin(mu_e, (0.21, 0.25, 0.3))

    def test_q_out_of_range(self, mu_e):
        with pytest.raises(DomainError):
            sugeno_qmax_unchecked(mu_e, (0.15, 0.2, 0.3), 0)
