import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdesign import (
    DomainError,
    HypothesisError,
    PreconditionError,
    elementary_symmetric,
    extend_odd_power_sums,
    newton_e_from_p,
    newton_p_from_e,
    odd_equivalence_check,
    power_sums,
)

rationals = st.fractions(min_value=-1, max_value=1, max_denominator=16)


class TestPowerSums:
    def test_antipodal_pair_odd_sums_vanish(self):
        assert power_sums([1, -1], 3).entries == (0, 2, 0)

    def test_direct_summation_integers(self):
        # oracle: 1+2+3, 1+4+9, 1+8+27
        assert power_sums([1, 2, 3], 3).entries == (6, 14, 36)

    def test_direct_summation_rationals(self):
        # oracle: 1/2 - 1/2 + 1, 1/4 + 1/4 + 1
        p = power_sums([F(1, 2), F(-1, 2), F(1)], 2)
        assert p.entries == (1, F(3, 2))
        assert p.exact

    def test_empty_multiset_rejected(self):
        with pytest.raises(DomainError):
            power_sums([], 2)

    def test_float_inputs_flagged_approximate(self):
        assert not power_sums([0.5, -0.5], 2).exact


class TestElementarySymmetric:
    def test_expand_cubic(self):
        # oracle: (T-1)(T-2)(T-3) = T^3 - 6T^2 + 11T - 6
        assert elementary_symmetric([1, 2, 3], 3).entries == (1, 6, 11, 6)

    def test_symmetric_pair(self):
        assert elementary_symmetric([F(1, 2), F(-1, 2)], 2).entries == (1, 0, F(-1, 4))

    def test_zeros(self):
        assert elementary_symmetric([0, 0], 2).entries == (1, 0, 0)

    def test_entries_above_multiset_size_vanish(self):
        e = elementary_symmetric([F(1, 3), F(2, 3)], 6)
        assert all(e.e(j) == 0 for j in range(3, 7))


class TestNewtonEFromP:
    def test_cross_check_against_elementary_symmetric(self):
        e = newton_e_from_p(power_sums([1, 2, 3], 3), 3)
        assert e.entries == elementary_symmetric([1, 2, 3], 3).entries

    def test_symmetric_multiset_gives_zero_odd_entries(self):
        x = [F(1, 2), F(-1, 2), F(3, 4), F(-3, 4)]
        e = newton_e_from_p(power_sums(x, 4), 4)
        assert e.e(1) == 0 and e.e(3) == 0

    def test_base_case(self):
        assert newton_e_from_p(power_sums([F(5, 7)], 1), 1).e(1) == F(5, 7)

    def test_requires_enough_power_sums(self):
        with pytest.raises(DomainError):
            newton_e_from_p(power_sums([1, 2], 2), 3)


class TestNewtonPFromE:
    def test_inverse_of_e_from_p(self):
        p = newton_p_from_e(elementary_symmetric([1, 2, 3], 3), 3, 3)
        assert p.entries == (6, 14, 36)

    def test_powers_of_plus_minus_one(self):
        p = newton_p_from_e(elementary_symmetric([1, -1], 2), 2, 5)
        assert p.entries == (0, 2, 0, 2, 0)

    def test_beyond_multiset_size(self):
        # oracle: p_k of {1/2, -1/2}: 0, 1/2, 0, 1/8
        p = newton_p_from_e(elementary_symmetric([F(1, 2), F(-1, 2)], 2), 2, 4)
        assert p.entries == (0, F(1, 2), 0, F(1, 8))

    def test_inconsistent_length_rejected(self):
        e = elementary_symmetric([1, 2, 3], 2)
        with pytest.raises(DomainError):
            newton_p_from_e(e, 3, 3)


class TestOddEquivalence:
    def test_symmetric_set(self):
        r = odd_equivalence_check([1, -1, 0], 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (True, True)

    def test_plainly_asymmetric(self):
        r = odd_equivalence_check([1, 2, 3], 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (False, False)

    def test_first_sum_zero_but_third_not(self):
        # p_1 = 0 yet p_3 = 1 + 1 - 8 = -6 and e_3 = -2
        r = odd_equivalence_check([1, 1, -2], 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (False, False)

    def test_precondition_names_inequality(self):
        with pytest.raises(PreconditionError, match="2m-1 <= n"):
            odd_equivalence_check([1, -1], 2)

    def test_equivalence_on_random_multisets(self):
        rng = random.Random(20240601)
        for _ in range(1000):
            m = rng.randint(1, 5)
            n = rng.randint(max(2 * m - 1, 1), 10)
            vals = [F(rng.randint(-16, 16), 16) for _ in range(n)]
            r = odd_equivalence_check(vals, m)
            assert r.odd_p_all_zero == r.odd_e_all_zero


class TestExtendOddPowerSums:
    def test_antipodal_pair(self):
        assert extend_odd_power_sums([1, -1], 1, 5) == (0, 0, 0, 0, 0)

    def test_symmetric_quadruple(self):
        out = extend_odd_power_sums([F(1, 2), F(-1, 2), F(3, 4), F(-3, 4)], 2, 6)
        assert out == (0,) * 6

    def test_violated_hypothesis_reports_index(self):
        with pytest.raises(HypothesisError) as exc:
            extend_odd_power_sums([1, 2], 1, 2)
        assert exc.value.failing_index == 1

    def test_tolerance_none_tests_exactly(self):
        vals = [F(1, 2), F(-1, 2) + F(1, 10**12)]
        with pytest.raises(HypothesisError):
            extend_odd_power_sums(vals, 1, 2, tol=None)
        # a float tolerance is scale-aware, whatever the arithmetic of the values
        assert extend_odd_power_sums(vals, 1, 1, tol=1e-9) == (F(1, 10**12),)

    def test_too_many_points_rejected(self):
        with pytest.raises(PreconditionError):
            extend_odd_power_sums([F(1, 2), F(-1, 2), 0], 1, 3)

    def test_agrees_with_direct_power_sums(self):
        rng = random.Random(99)
        for _ in range(50):
            m = rng.randint(1, 4)
            pairs = rng.randint(1, m)
            vals = []
            for _ in range(pairs):
                a = F(rng.randint(1, 16), 16)
                vals += [a, -a]
            rng.shuffle(vals)
            K = rng.randint(1, 8)
            out = extend_odd_power_sums(vals, m, K)
            direct = power_sums(vals, 2 * K - 1)
            assert out == tuple(direct.p(2 * k - 1) for k in range(1, K + 1))


@given(st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_round_trip_p_to_e(xs):
    n = len(xs)
    e = newton_e_from_p(power_sums(xs, n), n)
    assert e.entries == elementary_symmetric(xs, n).entries


@given(st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_round_trip_e_to_p(xs):
    n = len(xs)
    p = newton_p_from_e(elementary_symmetric(xs, n), n, 2 * n)
    assert p.entries == power_sums(xs, 2 * n).entries
