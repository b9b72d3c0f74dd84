import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdesign import (
    Configuration,
    DesignError,
    DesignReport,
    DomainError,
    ElemSymVector,
    HypothesisError,
    InternalDefectError,
    PowerSumVector,
    PreconditionError,
    WeightedConfiguration,
    certify_symmetry,
    certify_weighted_symmetry,
    elementary_symmetric,
    extend_odd_power_sums,
    interval_design,
    newton_e_from_p,
    newton_p_from_e,
    odd_equivalence_check,
    power_sums,
    symfun,
    verify_interval_design,
    verify_weighted_design,
)
from tmdesign.scalars import all_exact, clear_denominators, is_exact, near
from tmdesign.symfun import power_scale

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


class TestNewtonExactness:
    """Exactness comes from the values, whatever the vector's flag says."""

    def test_float_power_sums(self):
        e = newton_e_from_p(PowerSumVector((0.5, 0.25)), 2)
        assert e.entries == (1, 0.5, 0.0) and not e.exact

    def test_float_elementary_values(self):
        p = newton_p_from_e(ElemSymVector((1, 0.5, 0.25)), 2, 3)
        assert p.entries == (0.5, -0.25, -0.25) and not p.exact

    def test_exact_values_under_a_false_flag(self):
        e = newton_e_from_p(PowerSumVector((F(1, 2), F(1, 4))), 2)
        assert e.entries == (1, F(1, 2), 0) and e.exact
        p = newton_p_from_e(ElemSymVector((1, F(1, 2))), 1, 2)
        assert p.entries == (F(1, 2), F(1, 4)) and p.exact


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

    @pytest.mark.parametrize(
        "vals, zero",
        [
            ([0.5, -0.5, 0.25, -0.25], True),
            ([0.5 + 1e-13, -0.5, 0.25, -0.25], True),
            ([0.5, -0.5, 0.25, -0.2], False),
        ],
    )
    def test_float_values_at_the_tolerance(self, vals, zero):
        r = odd_equivalence_check(vals, 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (zero, zero)

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

    def test_antipodal_floats_under_none_raise_no_defect(self):
        # Exactly antipodal float sets whose odd sums round to 0 while their
        # odd e's do not: under None the sums are tested for exact zeros,
        # and the rounded e's are not checked.
        rounded = 0
        for seed in range(1, 21):
            rng = random.Random(seed)
            for _ in range(5):
                h = [rng.uniform(-1, 1) for _ in range(3)]
                pts = h + [-a for a in h]
                for K in (1, 3, 5):
                    try:
                        out = extend_odd_power_sums(pts, 3, K, tol=None)
                    except HypothesisError:
                        continue
                    assert len(out) == K and all(isinstance(x, float) for x in out)
                    rounded += any(symfun._elem_nums(pts, 6)[1::2])
        assert rounded > 0

    def test_exact_values_under_none_check_the_odd_e(self, monkeypatch):
        elem_nums = symfun._elem_nums

        def broken(nums, K):
            e = elem_nums(nums, K)
            e[1] += 1
            return e

        monkeypatch.setattr(symfun, "_elem_nums", broken)
        pts = [F(1, 2), F(-1, 2)]
        with pytest.raises(InternalDefectError, match="e_1 nonzero"):
            extend_odd_power_sums(pts, 1, 1, tol=None)
        # float values, and a tolerance, skip the check
        assert extend_odd_power_sums([0.5, -0.5], 1, 3, tol=None)[0] == 0.0
        assert extend_odd_power_sums(pts, 1, 3, tol=1e-9)[0] == 0

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


# ---------------------------------------------------------------------------
# Pinned: the cleared-integer kernels against the per-point Fraction loops
# ---------------------------------------------------------------------------


def ref_power_sums(vals, K):
    entries = []
    powers = list(vals)
    for k in range(1, K + 1):
        if k > 1:
            powers = [pw * v for pw, v in zip(powers, vals)]
        entries.append(sum(powers))
    return tuple(entries)


def ref_elementary_symmetric(vals, K):
    e = [1] + [0] * K
    for v in vals:
        for j in range(K, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return tuple(e)


def ref_extend_odd_power_sums(values, m, K, tol=1e-10):
    vals = tuple(values)
    n = len(vals)
    if n > 2 * m:
        raise PreconditionError(f"requires |values| <= 2m; got n={n} > 2m={2 * m}")
    exact = tol is None
    direct = ref_power_sums(vals, max(2 * K - 2, 2 * m - 1, 1))
    for k in range(1, m + 1):
        idx = 2 * k - 1
        if not near(direct[idx - 1], 0, tol, power_scale(vals, idx)):
            raise HypothesisError(
                f"odd power sum p_{idx} = {direct[idx - 1]} is nonzero",
                failing_index=idx,
            )
    e = ref_elementary_symmetric(vals, n)
    if exact:
        for j in range(1, n + 1, 2):
            if e[j] != 0:
                raise InternalDefectError(
                    f"e_{j} nonzero although all odd power sums through "
                    f"{2 * m - 1} vanish"
                )

    def e_at(j):
        return e[j] if j <= n else 0

    out = [direct[2 * k - 2] for k in range(1, min(m, K) + 1)]
    for k in range(m + 1, K + 1):
        acc = 0
        for i in range(1, m + 1):
            acc = acc + e_at(2 * i - 1) * direct[2 * (k - i) - 1]
            acc = acc - e_at(2 * i) * out[k - i - 1]
        out.append(acc)
        if exact and acc != 0:
            raise InternalDefectError(f"extended odd power sum p_{2 * k - 1} nonzero")
    return tuple(out)


def ref_verify_interval_design(config, m):
    pts = config.points
    p = ref_power_sums(pts, 2 * m - 1)
    index_set = tuple(range(1, 2 * m, 2))
    residuals = tuple(p[k - 1] for k in index_set)
    failing = next(
        (
            k
            for k, r in zip(index_set, residuals)
            if not near(r, 0, config.near_tol, power_scale(pts, k))
        ),
        None,
    )
    return DesignReport(index_set, residuals, failing is None, config.near_tol, failing)


def ref_verify_weighted_design(wconfig, m):
    xs, ws = wconfig.support, wconfig.weights
    index_set = tuple(range(1, 2 * m, 2))
    residuals = []
    scales = []
    powers = list(xs)
    for k in range(1, 2 * m):
        if k > 1:
            powers = [pw * x for pw, x in zip(powers, xs)]
        if k % 2 == 1:
            residuals.append(sum(pw * w for pw, w in zip(powers, ws)))
            scales.append(power_scale(xs, k, ws))
    failing = next(
        (
            k
            for k, r, s in zip(index_set, residuals, scales)
            if not near(r, 0, wconfig.near_tol, s)
        ),
        None,
    )
    return DesignReport(
        index_set, tuple(residuals), failing is None, wconfig.near_tol, failing
    )


def same_values(a, b):
    """Equal tuples of values; floats equal bit for bit, and exact stays exact."""
    return len(a) == len(b) and all(
        (repr(x) == repr(y) and type(x) is type(y))
        if isinstance(x, float) or isinstance(y, float)
        else x == y and is_exact(x) and is_exact(y)
        for x, y in zip(a, b)
    )


def outcome(f, *args):
    """A result's JSON (or the value itself), or the raised library error."""
    try:
        r = f(*args)
    except DesignError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "failing_index", None))
    return r.to_json() if hasattr(r, "to_json") else r


_HUGE = 10**400


def _ratio(rng, q):
    return F(rng.randint(1, q), q)


#: Magnitudes in (0, 1] of each input family; "approx" is rational data in
#: approximate mode.
_MAGNITUDES = {
    "int": lambda rng: 1,
    "fraction": lambda rng: _ratio(rng, rng.randint(2, 64)),
    "mixed": lambda rng: rng.choice((1, _ratio(rng, 9))),
    "repeated": lambda rng: rng.choice((F(1, 2), F(2, 3), 1)),
    "huge": lambda rng: _ratio(rng, _HUGE + rng.randint(1, 10**6)),
    "approx": lambda rng: _ratio(rng, 40),
    "float": lambda rng: rng.uniform(0.05, 1.0),
}


def _zero(kind):
    return {"float": 0.0, "int": 0, "mixed": 0}.get(kind, F(0))


def pinned_multisets():
    """(kind, points, m, mode): symmetric sets with zeros and repeats, and
    broken ones (one point halved, or shrunk by 10^-12 when rational)."""
    rng = random.Random(2024)
    for kind, magnitude in _MAGNITUDES.items():
        for n in (1, 2, 3, 5, 6, 8):
            pos = [magnitude(rng) for _ in range(n // 2)]
            pts = pos + [-v for v in pos] + [_zero(kind)] * (n % 2)
            mode = "approximate" if kind in ("approx", "float") else "exact"
            variants = [list(pts)]
            if pos:
                half = {"int": 0, "float": pts[0] / 2}.get(kind, F(pts[0]) / 2)
                variants.append([half] + pts[1:])
                if kind != "float":
                    variants.append([pts[0] * (1 - F(1, 10**12))] + pts[1:])
            for pts in variants:
                rng.shuffle(pts)
                yield kind, tuple(pts), (n + 1) // 2, mode


def pinned_weighted():
    """(kind, support, weights, m, mode): even weight functions and ones with
    a single weight raised by half."""
    rng = random.Random(1935)
    for kind, magnitude in _MAGNITUDES.items():
        if kind == "repeated":
            continue
        for n in (2, 3, 4, 7):
            if kind == "huge" and n > 6:
                # the residuals of 7 such points have more than 4300 digits,
                # which format_scalar cannot print (str() of a large int)
                continue
            pos = []
            while len(pos) < n // 2:
                # "int" weights: distinct support points cannot all be ints
                v = magnitude(rng) if kind != "int" else F(rng.randint(1, 9), 9)
                if v not in pos:
                    pos.append(v)
            if kind == "float":
                ws = [rng.uniform(0.5, 5.0) for _ in pos]
            elif kind == "huge":
                ws = [F(rng.randint(1, _HUGE), rng.randint(1, _HUGE)) for _ in pos]
            elif kind == "int":
                ws = [rng.randint(1, 9) for _ in pos]
            else:
                ws = [F(rng.randint(1, 50), rng.randint(1, 9)) for _ in pos]
            support = pos + [-v for v in pos] + [_zero(kind)] * (n % 2)
            weights = ws + ws + ws[:1] * (n % 2)
            mode = "approximate" if kind in ("approx", "float") else "exact"
            broken = list(weights)
            broken[len(pos)] = broken[len(pos)] * (1.5 if kind == "float" else F(3, 2))
            for wts in (weights, broken):
                yield kind, tuple(support), tuple(wts), n - n % 2, mode


def _ids(case):
    return f"{case[0]}-n{len(case[1])}"


class TestIntervalKernelPinned:
    """Cleared-integer kernels give the values, reports, certificates and
    errors of the per-point Fraction loops, and float input runs those loops
    bit for bit."""

    @pytest.mark.parametrize("case", list(pinned_multisets()), ids=_ids)
    def test_power_and_elementary_sums(self, case):
        _, pts, m, _ = case
        for K in (1, 2 * m - 1, 2 * m + 3):
            p = power_sums(pts, K)
            assert same_values(p.entries, ref_power_sums(pts, K))
            assert p.exact == all_exact(pts)
            e = elementary_symmetric(pts, K)
            assert same_values(e.entries, ref_elementary_symmetric(pts, K))
            assert e.exact == all_exact(pts)

    @pytest.mark.parametrize("case", list(pinned_multisets()), ids=_ids)
    def test_extension_under_every_tolerance(self, case):
        _, pts, m, _ = case
        for tol in (None, 1e-9):
            # under None, float values test their sums for exact zeros but
            # check no identity: the reference does that at tolerance 0
            ref_tol = 0.0 if tol is None and not all_exact(pts) else tol
            for K in (1, len(pts), len(pts) + 4):
                new = outcome(extend_odd_power_sums, pts, m, K, tol)
                ref = outcome(ref_extend_odd_power_sums, pts, m, K, ref_tol)
                if new and new[0] == "raised":
                    assert new == ref
                else:
                    assert same_values(new, ref)

    @pytest.mark.parametrize("case", list(pinned_multisets()), ids=_ids)
    def test_reports_and_certificates(self, case, monkeypatch):
        _, pts, m, mode = case
        config = Configuration(pts, tolerance=1e-9, mode=mode)
        for mm in (m, m + 1):
            assert outcome(verify_interval_design, config, mm) == outcome(
                ref_verify_interval_design, config, mm
            )
        new = outcome(certify_symmetry, config, m)
        monkeypatch.setattr(
            interval_design, "extend_odd_power_sums", ref_extend_odd_power_sums
        )
        assert new == outcome(certify_symmetry, config, m)

    @pytest.mark.parametrize("case", list(pinned_weighted()), ids=_ids)
    def test_weighted_reports_and_certificates(self, case, monkeypatch):
        _, support, weights, m, mode = case
        w = WeightedConfiguration(support, weights, tolerance=1e-9, mode=mode)
        for mm in (1, m, m + 1):
            new = verify_weighted_design(w, mm)
            ref = ref_verify_weighted_design(w, mm)
            assert same_values(new.residuals, ref.residuals)
            assert new.to_json() == ref.to_json()
        new = outcome(certify_weighted_symmetry, w, m)
        monkeypatch.setattr(
            interval_design, "verify_weighted_design", ref_verify_weighted_design
        )
        assert new == outcome(certify_weighted_symmetry, w, m)

    def test_exact_values_are_cleared_in_either_mode(self, monkeypatch):
        # the arithmetic of the values picks the kernel, not the mode
        calls = []

        def spy(values):
            calls.append(1)
            return clear_denominators(values)

        monkeypatch.setattr(symfun, "clear_denominators", spy)
        monkeypatch.setattr(interval_design, "clear_denominators", spy)
        pts = (F(1, 3), F(-1, 3), F(1, 7))
        config = Configuration(pts, tolerance=1e-9, mode="approximate")
        verify_interval_design(config, 2)
        assert len(calls) == 2  # the points and their unit weights
        extend_odd_power_sums(pts[:2], 1, 3, tol=1e-9)
        assert len(calls) == 5  # the same two, then the points for K > m
        w = WeightedConfiguration(
            pts, (1, F(1, 2), 3), tolerance=1e-9, mode="approximate"
        )
        verify_weighted_design(w, 2)
        assert len(calls) == 7  # support and weights apart
        verify_interval_design(Configuration((0.5, -0.5, F(1, 3))), 1)
        power_sums((F(1, 2), 1, 0.25), 3)
        assert len(calls) == 7


def per_index_scale(values, k, weights=None):
    """The zero-test scale as first written, converting every value per k."""
    if weights is None:
        return 1.0 + sum(abs(float(x)) ** k for x in values)
    return 1.0 + sum(abs(float(x)) ** k * abs(float(w)) for x, w in zip(values, weights))


def scale_corpus():
    """(family, values, weights): floats, subnormals, ints and Fractions
    with 400-digit denominators, alone and mixed."""
    rng = random.Random(4001)
    draws = {
        "float": lambda: rng.uniform(-1.0, 1.0),
        "subnormal": lambda: rng.choice((-1, 1)) * rng.randint(1, 2**52) * 5e-324,
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: F(rng.randint(-_HUGE, _HUGE), _HUGE + rng.randint(1, 10**6)),
        "tiny": lambda: F(rng.randint(1, 10**6), _HUGE),
    }
    for family, draw in draws.items():
        for n in (1, 4, 9):
            yield family, [draw() for _ in range(n)], [draw() for _ in range(n)]
    for n in (5, 12):
        mixed = [rng.choice(list(draws.values()))() for _ in range(2 * n)]
        yield "mixed", mixed[:n], mixed[n:]


class CountingFloat(float):
    """A float that counts its conversions by ``float()``."""

    calls = 0

    def __float__(self):
        CountingFloat.calls += 1
        return super().__float__()


class CountingFraction(F):
    """A Fraction that counts its conversions by ``float()``."""

    calls = 0

    def __float__(self):
        CountingFraction.calls += 1
        return super().__float__()


class TestPowerScales:
    """The approximate zero tests convert each value and weight once per
    call, and their scales are the floats of the per-index formula."""

    @pytest.mark.parametrize("case", list(scale_corpus()), ids=lambda c: f"{c[0]}-{len(c[1])}")
    def test_the_floats_of_the_per_index_formula(self, case):
        _, values, weights = case
        unweighted, weighted = symfun.power_scales(values), symfun.power_scales(values, weights)
        for k in range(1, 40):
            assert unweighted(k) == per_index_scale(values, k) == power_scale(values, k)
            expected = per_index_scale(values, k, weights)
            assert weighted(k) == expected == power_scale(values, k, weights)

    @staticmethod
    def _conversions(kind, f):
        kind.calls = 0
        f()
        return kind.calls

    def test_weighted_check_converts_once_per_call(self):
        # rational points forced into approximate mode: the perturbed
        # construction's self-check reads such points
        support = tuple(CountingFraction(k, 12) for k in (-5, -3, -1, 1, 3, 5))
        weights = tuple(CountingFraction(1) for _ in support)
        w = WeightedConfiguration(support, weights, tolerance=1e-9, mode="approximate")
        counts = {
            m: self._conversions(CountingFraction, lambda: verify_weighted_design(w, m))
            for m in (1, 3, 6)
        }
        assert counts[1] == counts[3] == counts[6] == 12

    def test_interval_checks_convert_once_per_call(self):
        pts = tuple(CountingFloat(x) for x in (0.5, -0.5, 0.25, -0.25, 0.125, -0.125))
        config = Configuration(pts, tolerance=1e-9)
        for f, ms in (
            (lambda m: verify_interval_design(config, m), (1, 4)),
            (lambda m: extend_odd_power_sums(pts, m, m, tol=1e-9), (3, 5)),
            (lambda m: odd_equivalence_check(pts, m), (2, 3)),
        ):
            counts = [self._conversions(CountingFloat, lambda: f(m)) for m in ms]
            assert counts[0] == counts[1], f


# ---------------------------------------------------------------------------
# Pinned: the integer Newton recursions against the Fraction loops
# ---------------------------------------------------------------------------


def ref_newton_e_from_p(p, K, exact):
    """e_0 .. e_K by the per-entry loop on the values (reference copy)."""
    e = [1]
    for k in range(1, K + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * p[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        e.append(F(acc, k) if exact else acc / k)
    return tuple(e)


def ref_newton_p_from_e(e, n, K):
    """p_1 .. p_K by the per-entry loop on the values (reference copy)."""

    def e_at(j):
        return e[j] if j <= min(len(e) - 1, n) else 0

    p = [n]
    for k in range(1, K + 1):
        if k <= n:
            acc = 0
            for i in range(1, k):
                term = e_at(k - i) * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            rhs = k * e_at(k) - acc
            p.append(rhs if k % 2 == 1 else -rhs)
        else:
            acc = 0
            for i in range(k - n, k):
                term = e_at(k - i) * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            p.append(-acc if k % 2 == 1 else acc)
    return tuple(p[1:])


def _newton_cases():
    """(kind, p or e values, n): multisets, and vectors of no multiset."""
    rng = random.Random(1707)
    for kind, pts, _, _ in pinned_multisets():
        yield kind, pts
    for n in range(1, 11):
        # random rationals, not the power sums or elementary values of any
        # multiset: k e_k and p_k need not be integral over the points' L
        yield "free", tuple(F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n))
        yield "free-int", tuple(rng.randint(-99, 99) for _ in range(n))
        yield "free-float", tuple(rng.uniform(-2.0, 2.0) for _ in range(n))


class TestNewtonPinned:
    """The integer recursions give the values of the per-entry Fraction
    loops, and float input runs those loops bit for bit."""

    @pytest.mark.parametrize("case", list(_newton_cases()), ids=_ids)
    def test_e_from_p(self, case):
        kind, vals = case
        n = len(vals)
        exact = all_exact(vals)
        if kind.startswith("free"):
            p = vals
        else:
            p = power_sums(vals, n).entries
        for K in range(1, n + 1):
            e = newton_e_from_p(PowerSumVector(p), K)
            assert same_values(e.entries, ref_newton_e_from_p(p, K, exact))
            assert e.exact == exact

    @pytest.mark.parametrize("case", list(_newton_cases()), ids=_ids)
    def test_p_from_e(self, case):
        kind, vals = case
        n = len(vals)
        exact = all_exact(vals)
        e = (1,) + vals if kind.startswith("free") else elementary_symmetric(vals, n).entries
        for K in (1, n, n + 1, 2 * n + 3):  # K > n runs the second recursion
            p = newton_p_from_e(ElemSymVector(e), n, K)
            assert same_values(p.entries, ref_newton_p_from_e(e, n, K))
            assert p.exact == exact

    def test_integer_input(self):
        # L = 1: oracle (T-1)(T-2)(T-3)(T+4) and the powers of 2 and -3
        e = newton_e_from_p(power_sums([1, 2, 3, -4], 4), 4)
        assert e.entries == (1, 2, -13, -38, -24)
        p = newton_p_from_e(elementary_symmetric([2, -3], 2), 2, 5)
        assert p.entries == (-1, 13, -19, 97, -211)

    def test_entries_past_n_are_not_consulted(self):
        # e_3 of a 2-point multiset would be 0; a stored value there, even a
        # float, changes neither the values nor their exactness
        e = ElemSymVector((1, F(1, 2), F(-3, 4), 0.5))
        p = newton_p_from_e(e, 2, 6)
        assert p.entries == ref_newton_p_from_e(e.entries[:3], 2, 6) and p.exact
