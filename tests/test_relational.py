import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caplearn import (
    DomainError,
    RelationalSystem,
    Scale,
    SystemKind,
    apply_system,
    build_system,
    is_consistent,
    potential_solution,
)
from caplearn.relational import eps_prod, godel_imp

from helpers import FIVE_LEVELS, by_cardinality, random_system, reference_training_set

UNIT = Scale.unit_interval()

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def one_row(kind, entries, b):
    return RelationalSystem(kind, (tuple(entries),), (b,), tuple(range(len(entries))), UNIT)


class TestConnectives:
    def test_godel_branches(self):
        assert godel_imp(0.3, 0.7) == 1.0
        assert godel_imp(0.7, 0.3) == 0.3
        assert godel_imp(0.5, 0.5) == 1.0  # boundary counts as x <= y

    def test_eps_branches(self):
        assert eps_prod(0.3, 0.7) == 0.7
        assert eps_prod(0.7, 0.3) == 0.0
        assert eps_prod(0.5, 0.5) == 0.0  # boundary counts as x >= y

    @given(unit_floats, unit_floats)
    def test_godel_value_set(self, x, y):
        assert godel_imp(x, y) == (1.0 if x <= y else y)

    @given(unit_floats, unit_floats, unit_floats)
    def test_godel_antitone_in_first_argument(self, x, xp, y):
        if x <= xp:
            assert godel_imp(xp, y) <= godel_imp(x, y)

    @given(unit_floats, unit_floats, unit_floats)
    def test_eps_antitone_in_first_argument(self, x, xp, y):
        if x <= xp:
            assert eps_prod(xp, y) <= eps_prod(x, y)


class TestApply:
    def test_maxmin_identity_column(self):
        sys_ = one_row(SystemKind.MAX_MIN, [1.0], 0.4)
        assert apply_system(sys_, (0.4,)) == (0.4,)

    def test_minmax_identity_column(self):
        sys_ = one_row(SystemKind.MIN_MAX, [0.0], 0.4)
        assert apply_system(sys_, (0.4,)) == (0.4,)

    def test_reference_system_maps_solution_to_targets(self):
        ts = reference_training_set()
        sys_ = build_system(ts, SystemKind.MAX_MIN)
        e = potential_solution(sys_)
        assert apply_system(sys_, e.values) == (0.2, 0.3, 0.4)
        dual = build_system(ts, SystemKind.MIN_MAX)
        f = potential_solution(dual)
        assert apply_system(dual, f.values) == (0.2, 0.3, 0.4)

    def test_absorbing_vectors(self):
        rng = random.Random(31)
        for _ in range(30):
            sys_ = random_system(rng, SystemKind.MAX_MIN, 3, 4, FIVE_LEVELS)
            assert apply_system(sys_, (0.0,) * 4) == (0.0,) * 3
            dual = random_system(rng, SystemKind.MIN_MAX, 3, 4, FIVE_LEVELS)
            assert apply_system(dual, (1.0,) * 4) == (1.0,) * 3

    def test_kind_and_dimension_checked(self):
        sys_ = one_row(SystemKind.MAX_MIN, [0.5, 0.5], 0.4)
        with pytest.raises(DomainError):
            apply_system(sys_, (0.1,))


class TestPotentialVectors:
    def test_reference_greatest_solution(self):
        ts = reference_training_set()
        e = potential_solution(build_system(ts, SystemKind.MAX_MIN))
        ordered = [e.value_of(m) for m in by_cardinality(e.labels)]
        assert ordered == [0.3, 0.4, 0.2, 1.0, 1.0, 1.0, 1.0]

    def test_reference_lowest_solution(self):
        ts = reference_training_set()
        f = potential_solution(build_system(ts, SystemKind.MIN_MAX))
        ordered = [f.value_of(m) for m in by_cardinality(f.labels)]
        assert ordered == [0.0, 0.0, 0.0, 0.0, 0.4, 0.3, 0.2]

    def test_single_equation_branches(self):
        assert potential_solution(one_row(SystemKind.MAX_MIN, [0.3], 0.7)).values == (1.0,)
        assert potential_solution(
            one_row(SystemKind.MAX_MIN, [0.9, 0.4], 0.5)
        ).values == (0.5, 1.0)
        assert potential_solution(one_row(SystemKind.MIN_MAX, [0.7], 0.3)).values == (0.0,)
        assert potential_solution(
            one_row(SystemKind.MIN_MAX, [0.2, 0.9], 0.5)
        ).values == (0.5, 0.0)

    def test_matrix_growth_never_raises_greatest_solution(self):
        # the solved vector depends antitonely on matrix entries
        rng = random.Random(32)
        for _ in range(50):
            sys_ = random_system(rng, SystemKind.MAX_MIN, 3, 4, FIVE_LEVELS)
            e = potential_solution(sys_).values
            k = rng.randrange(3)
            j = rng.randrange(4)
            bumped = [list(row) for row in sys_.matrix]
            bumped[k][j] = min(bumped[k][j] + 0.25, 1.0)
            sys_up = RelationalSystem(
                sys_.kind,
                tuple(tuple(r) for r in bumped),
                sys_.rhs,
                sys_.column_labels,
                sys_.scale,
            )
            e_up = potential_solution(sys_up).values
            assert all(b <= a for a, b in zip(e, e_up))

    def test_matrix_growth_never_raises_lowest_solution(self):
        rng = random.Random(33)
        for _ in range(50):
            sys_ = random_system(rng, SystemKind.MIN_MAX, 3, 4, FIVE_LEVELS)
            f = potential_solution(sys_).values
            k = rng.randrange(3)
            j = rng.randrange(4)
            bumped = [list(row) for row in sys_.matrix]
            bumped[k][j] = min(bumped[k][j] + 0.25, 1.0)
            sys_up = RelationalSystem(
                sys_.kind,
                tuple(tuple(r) for r in bumped),
                sys_.rhs,
                sys_.column_labels,
                sys_.scale,
            )
            f_up = potential_solution(sys_up).values
            assert all(b <= a for a, b in zip(f, f_up))


class TestConsistency:
    def test_reference_system_is_consistent(self):
        ts = reference_training_set()
        assert is_consistent(build_system(ts, SystemKind.MAX_MIN))
        assert is_consistent(build_system(ts, SystemKind.MIN_MAX))

    def test_unreachable_target(self):
        assert not is_consistent(one_row(SystemKind.MAX_MIN, [0.5], 0.8))
        assert not is_consistent(one_row(SystemKind.MIN_MAX, [0.5], 0.2))

    def test_constructed_rhs_is_always_consistent(self):
        rng = random.Random(34)
        for _ in range(60):
            kind = rng.choice([SystemKind.MAX_MIN, SystemKind.MIN_MAX])
            sys_ = random_system(rng, kind, rng.randint(1, 3), rng.randint(1, 4), FIVE_LEVELS)
            v = tuple(rng.choice(FIVE_LEVELS) for _ in range(sys_.n_cols))
            produced = apply_system(sys_, v)
            consistent_sys = RelationalSystem(
                kind, sys_.matrix, produced, sys_.column_labels, sys_.scale
            )
            assert is_consistent(consistent_sys)
            # and the extremal vector reproduces the rhs exactly
            e = potential_solution(consistent_sys)
            assert apply_system(consistent_sys, e.values) == produced


class TestConstruction:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            RelationalSystem(
                SystemKind.MAX_MIN, ((0.5, 0.5),), (0.5,), (1, 1), UNIT
            )

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DomainError):
            RelationalSystem(
                SystemKind.MAX_MIN, ((0.5, 0.5), (0.5,)), (0.5, 0.5), (0, 1), UNIT
            )

    def test_rhs_length_checked(self):
        with pytest.raises(DomainError):
            RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.5, 0.4), (0,), UNIT)

    def test_off_scale_entry_rejected(self):
        chain = Scale.finite_chain([0.0, 0.5, 1.0])
        with pytest.raises(DomainError):
            RelationalSystem(SystemKind.MAX_MIN, ((0.4,),), (0.5,), (0,), chain)
