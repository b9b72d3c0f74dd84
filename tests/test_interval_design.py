import random
from fractions import Fraction as F

import pytest

from tmdesign import (
    Configuration,
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
    SymmetryCertificate,
    ToleranceError,
    WeightedConfiguration,
    certify_symmetry,
    certify_weighted_symmetry,
    interval_design,
    is_symmetric,
    symfun,
    verify_interval_design,
    verify_weighted_design,
)
from tmdesign.scalars import near
from tmdesign.symfun import power_scale


def random_symmetric_points(rng, m):
    """A symmetric multiset of size n <= 2m: antipodal pairs plus zeros."""
    pairs = rng.randint(0, m)
    zeros = rng.randint(0 if pairs else 1, 2 * (m - pairs))
    pts = []
    for _ in range(pairs):
        a = F(rng.randint(1, 32), 32)
        pts += [a, -a]
    pts += [F(0)] * zeros
    rng.shuffle(pts)
    return pts[: 2 * m] if len(pts) > 2 * m else pts


def random_asymmetric_points(rng, m):
    while True:
        n = rng.randint(1, 2 * m)
        pts = [F(rng.randint(-32, 32), 32) for _ in range(n)]
        if not is_symmetric(Configuration(tuple(pts)))[0]:
            return pts


class TestConfiguration:
    def test_point_outside_interval_rejected(self):
        with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
            Configuration((F(1), F(2, 3), F(3, 2)))

    def test_approximate_point_outside_rejected(self):
        with pytest.raises(DomainError):
            Configuration((0.5, 1.1), tolerance=1e-9)

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(DomainError):
            Configuration((0.5, -0.5), mode="exact")

    def test_json_round_trip(self):
        config = Configuration((F(-3, 4), F(-1, 4), F(1)))
        doc = config.to_json()
        assert doc == {"points": ["-3/4", "-1/4", "1"], "mode": "exact"}
        assert Configuration.from_json(doc).points == config.points


class TestVerifyIntervalDesign:
    def test_antipodal_pair_all_indices(self):
        report = verify_interval_design(Configuration((F(1), F(-1))), 3)
        assert report.residuals == (0, 0, 0)
        assert report.verdict
        assert report.tolerance is None

    def test_asymmetric_three_point_design(self):
        # the m=1 perturbed construction instance: -3/4 - 1/4 + 1 = 0
        report = verify_interval_design(Configuration((F(-3, 4), F(-1, 4), F(1))), 1)
        assert report.residuals == (0,)
        assert report.verdict

    def test_failing_report_carries_residual(self):
        report = verify_interval_design(Configuration((F(1), F(2, 3))), 1)
        assert not report.verdict
        assert report.residuals == (F(5, 3),)

    def test_empty_configuration_rejected(self):
        with pytest.raises(DomainError):
            verify_interval_design(Configuration(()), 1)


def distinct_point_sets():
    """(points, mode) for distinct points as exact rationals, as floats and as
    rationals forced into approximate mode.  The sets are symmetric (T_m for
    every m), balanced (p_1 = 0, up to rounding for floats, but not
    symmetric) or random, so their first failing index varies."""
    rng = random.Random(1717)
    for kind, mode in (("exact", "exact"), ("float", "auto"), ("rational", "approximate")):
        for shape in ("symmetric", "balanced", "random"):
            for _ in range(8):
                while True:
                    n = rng.randint(2, 7)
                    pts = [F(rng.randint(-40, 40), 41) for _ in range(n)]
                    if shape == "symmetric":
                        half = pts[: n // 2]
                        pts = half + [-x for x in half] + [F(0)] * (n % 2)
                    elif shape == "balanced":
                        pts[-1] = -sum(pts[:-1])
                    if len(set(pts)) == n and all(abs(x) <= 1 for x in pts):
                        break
                rng.shuffle(pts)
                if kind == "float":
                    pts = [float(x) for x in pts]
                yield tuple(pts), mode


def first_failing(report, points, weights):
    """The first index of a report whose residual fails its zero test."""
    return next(
        (
            k
            for k, r in zip(report.index_set, report.residuals)
            if not near(r, 0, report.tolerance, power_scale(points, k, weights))
        ),
        None,
    )


class TestUnitWeights:
    """A multiset is the weighted design with unit weights."""

    def test_interval_report_is_the_unit_weight_report(self):
        seen = set()
        for pts, mode in distinct_point_sets():
            config = Configuration(pts, tolerance=1e-9, mode=mode)
            ones = (1,) * len(pts)
            w = WeightedConfiguration(pts, ones, tolerance=1e-9, mode=mode)
            for m in range(5):
                multiset, weighted = verify_interval_design(config, m), verify_weighted_design(w, m)
                assert multiset.to_json() == weighted.to_json()
                assert multiset.failing_index == weighted.failing_index
                seen.add(multiset.failing_index)
        assert {None, 1, 3} <= seen

    def test_check_multiset_is_check_weighted_at_unit_weights(self):
        verdicts = set()
        for pts, mode in distinct_point_sets():
            config = Configuration(pts, tolerance=1e-9, mode=mode)
            ok, cert = is_symmetric(config)
            if not ok:
                continue
            pairs, fixed = cert.pairs, cert.fixed
            certs = [(cert, True)]
            if pairs:  # one pair left out, or its nonzero points called fixed
                certs.append((SymmetryCertificate(pairs[1:], fixed), False))
                fixed_too = tuple(sorted(fixed + pairs[0]))
                certs.append((SymmetryCertificate(pairs[1:], fixed_too), False))
            if len(pairs) > 1:  # two pairs crossed
                (i, j), (k, l) = pairs[:2]
                crossed = ((i, k), (j, l)) + pairs[2:]
                certs.append((SymmetryCertificate(crossed, fixed), False))
            for c, valid in certs:
                got = c.check_multiset(pts, config.near_tol)
                assert got == c.check_weighted(pts, (1,) * len(pts), config.near_tol)
                assert got == valid
                verdicts.add(got)
        assert verdicts == {True, False}


class TestFailingIndex:
    """Each interval report names its first failing index, None exactly when
    the verdict holds, and keeps it out of the JSON."""

    def test_interval_and_weighted_reports(self):
        rng = random.Random(1718)
        keys = {"index_set", "residuals", "verdict", "tolerance"}
        seen = set()
        for pts, mode in distinct_point_sets():
            config = Configuration(pts, tolerance=1e-9, mode=mode)
            ws = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in pts)
            w = WeightedConfiguration(pts, ws, tolerance=1e-9, mode=mode)
            for m in range(5):
                for report, weights in (
                    (verify_interval_design(config, m), None),
                    (verify_weighted_design(w, m), ws),
                ):
                    assert report.failing_index == first_failing(report, pts, weights)
                    assert report.verdict == (report.failing_index is None)
                    assert set(report.to_json()) == keys
                    seen.add(report.failing_index)
        assert {None, 1, 3} <= seen


class TestCertifySymmetry:
    def test_two_pairs(self):
        config = Configuration((F(1, 2), F(-1, 2), F(3, 4), F(-3, 4)))
        cert = certify_symmetry(config, 2)
        assert cert.pairs == ((0, 1), (2, 3))
        assert cert.fixed == ()
        assert cert.check_multiset(config.points)

    def test_single_zero(self):
        cert = certify_symmetry(Configuration((F(0),)), 1)
        assert cert.pairs == ()
        assert cert.fixed == (0,)

    def test_hypothesis_failure_names_index(self):
        with pytest.raises(HypothesisError) as exc:
            certify_symmetry(Configuration((F(1), F(2, 3), F(-3, 4))), 2)
        assert exc.value.failing_index == 1

    def test_size_precondition(self):
        config = Configuration((F(1, 2), F(-1, 2), F(0)))
        with pytest.raises(PreconditionError, match="n <= 2m"):
            certify_symmetry(config, 1)

    def test_repeated_values(self):
        config = Configuration((F(1, 2), F(1, 2), F(-1, 2), F(-1, 2)))
        cert = certify_symmetry(config, 2)
        assert cert.check_multiset(config.points)

    def test_approximate_mode(self):
        pts = (0.5, -0.5 + 1e-13, 0.75, -0.75 - 1e-13)
        config = Configuration(pts, tolerance=1e-10)
        cert = certify_symmetry(config, 2)
        assert cert.check_multiset(pts, tol=1e-10)

    def test_approximate_failure_reasons(self):
        # {a, a, -a+d, -a-d} keeps p_1 = 0 and p_3 = -6*a*d^2 below the
        # scale-aware threshold while no pairing beats gap d.
        def skewed(d):
            return Configuration((0.5, 0.5, -0.5 + d, -0.5 - d), tolerance=1e-10)

        with pytest.raises(ToleranceError) as exc:
            certify_symmetry(skewed(1e-6), 2)
        assert exc.value.reason == "hypothesis approximately violated"
        with pytest.raises(ToleranceError) as exc:
            certify_symmetry(skewed(2e-10), 2)
        assert exc.value.reason == "pairing ambiguous"

    def test_forced_approximate_rationals_use_the_tolerance(self):
        # the mode, not the arithmetic of the values, decides exactness
        pts = (F(1, 2), F(-1, 2) + F(1, 10**12))
        config = Configuration(pts, mode="approximate", tolerance=1e-9)
        assert verify_interval_design(config, 1).verdict
        assert certify_symmetry(config, 1).pairs == ((0, 1),)
        with pytest.raises(HypothesisError, match="p_1"):
            certify_symmetry(Configuration(pts), 1)

    @pytest.mark.parametrize("mode, K", [("exact", 4), ("approximate", 3)])
    def test_extension_runs_where_it_is_checked(self, monkeypatch, mode, K):
        # exact mode extends to K = n and certifies every forced odd sum;
        # approximate mode has no test for them and stops at the hypothesis
        seen = []

        def spy(values, m, K, tol):
            sums = extend(values, m, K, tol)
            seen.append(sums)
            return sums

        extend = symfun.extend_odd_power_sums
        monkeypatch.setattr(interval_design, "extend_odd_power_sums", spy)
        pts = (F(1, 2), F(-1, 2), F(3, 4), F(-3, 4))
        cert = certify_symmetry(Configuration(pts, mode=mode, tolerance=1e-9), 3)
        assert seen == [(0,) * K]
        assert cert.pairs == ((0, 1), (2, 3))

    def test_exact_mode_keeps_the_defect_guards(self, monkeypatch):
        # a nonzero odd e under vanishing odd power sums is a defect that
        # only exact mode can see; approximate mode builds no e's at all
        built = []

        def broken(nums, K):
            built.append(K)
            return [1] + [1] * K

        monkeypatch.setattr(symfun, "_elem_nums", broken)
        pts = (F(1, 2), F(-1, 2))
        with pytest.raises(InternalDefectError, match="e_1 nonzero"):
            certify_symmetry(Configuration(pts), 1)
        assert built == [2]
        config = Configuration(pts, mode="approximate", tolerance=1e-9)
        assert certify_symmetry(config, 1).pairs == ((0, 1),)
        assert built == [2]

    def test_float_failure_reads_the_same_at_every_K(self):
        pts = (0.5, -0.5, 0.75, -0.7)
        errors = []
        for K in (2, 4):
            with pytest.raises(HypothesisError) as exc:
                symfun.extend_odd_power_sums(pts, 2, K, tol=1e-9)
            errors.append((str(exc.value), exc.value.failing_index))
        assert errors[0] == errors[1]
        assert errors[0][1] == 1

    def test_soundness_on_random_symmetric_multisets(self):
        rng = random.Random(4242)
        for _ in range(200):
            m = rng.randint(1, 6)
            pts = random_symmetric_points(rng, m)
            config = Configuration(tuple(pts))
            cert = certify_symmetry(config, m)
            assert cert.check_multiset(config.points)
            assert is_symmetric(config)[0]

    def test_contrapositive_on_random_asymmetric_multisets(self):
        rng = random.Random(915)
        for _ in range(200):
            m = rng.randint(1, 6)
            pts = random_asymmetric_points(rng, m)
            assert not verify_interval_design(Configuration(tuple(pts)), m).verdict


class TestWeightedConfiguration:
    def test_duplicate_support_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            WeightedConfiguration((F(1, 2), F(1, 2)), (1, 2))

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_duplicate_named_by_first_repeated_position(self, mode):
        a, b = F(1, 3), F(-2, 5)
        with pytest.raises(DomainError, match="duplicate support point 1/3$"):
            WeightedConfiguration((a, b, b, a), (1, 2, 2, 1), mode=mode)

    def test_exact_duplicate_count_matches_equal_values(self):
        # int and Fraction spellings of one value are one support point
        with pytest.raises(DomainError, match="duplicate support point -1$"):
            WeightedConfiguration((F(1, 2), -1, F(-1)), (1, 1, 1))
        assert len(WeightedConfiguration((F(1, 2), F(-1, 2), 0), (1, 1, 1))) == 3

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError, match="nonzero"):
            WeightedConfiguration((F(1, 2), F(-1, 2)), (1, 0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            WeightedConfiguration((0.5, -0.5), (bad, 1.0), tolerance=1e-9)

    def test_huge_rational_weight_accepted(self):
        config = WeightedConfiguration((F(1, 2), F(-1, 2)), (F(10**400), 1))
        assert config.is_exact

    def test_huge_rational_weight_verified_exactly(self):
        # exact tests read no float scale, so no weight is converted
        w = WeightedConfiguration((F(1, 2), F(-1, 2)), (F(10**400), F(10**400)))
        report = verify_weighted_design(w, 1)
        assert report.verdict and report.residuals == (0,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            WeightedConfiguration((F(1, 2),), (1, 2))


class TestVerifyWeightedDesign:
    def test_even_function(self):
        w = WeightedConfiguration((F(1, 2), F(-1, 2)), (3, 3))
        report = verify_weighted_design(w, 2)
        assert report.residuals == (0, 0)
        assert report.verdict

    def test_two_point_design_passes_first_index(self):
        # weights 2 at 2/3 and 4 at -1/3: p_1 residual 4/3 - 4/3 = 0
        w = WeightedConfiguration((F(2, 3), F(-1, 3)), (2, 4))
        assert verify_weighted_design(w, 1).verdict

    def test_two_point_design_fails_second_index(self):
        w = WeightedConfiguration((F(2, 3), F(-1, 3)), (2, 4))
        report = verify_weighted_design(w, 2)
        assert not report.verdict
        assert report.residuals[1] == F(12, 27)


class TestCertifyWeightedSymmetry:
    def test_even_pair(self):
        w = WeightedConfiguration((F(1, 2), F(-1, 2)), (3, 3))
        cert = certify_weighted_symmetry(w, 2)
        assert cert.pairs == ((0, 1),)
        assert cert.check_weighted(w.support, w.weights)

    def test_hypothesis_error_on_sharp_example(self):
        w = WeightedConfiguration((F(2, 3), F(-1, 3)), (2, 4))
        with pytest.raises(HypothesisError) as exc:
            certify_weighted_symmetry(w, 2)
        assert exc.value.failing_index == 3

    def test_zero_point_unconstrained(self):
        w = WeightedConfiguration((F(0), F(1, 3), F(-1, 3)), (5, 7, 7))
        cert = certify_weighted_symmetry(w, 2)
        assert cert.pairs == ((1, 2),)
        assert cert.fixed == (0,)

    @pytest.mark.parametrize(
        "d, reason",
        [(2e-10, "pairing ambiguous"), (1e-6, "hypothesis approximately violated")],
    )
    def test_approximate_support_gap_reasons(self, d, reason):
        # {a, -a+d, -a-d} with weights {2, 1, 1} keeps the odd moments
        # within the scale while a's best partner is d away.
        w = WeightedConfiguration((0.5, -0.5 + d, -0.5 - d), (2, 1, 1), tolerance=1e-10)
        assert verify_weighted_design(w, 3).verdict
        with pytest.raises(ToleranceError, match="no partner for") as exc:
            certify_weighted_symmetry(w, 3)
        assert exc.value.reason == reason

    def test_approximate_unequal_weights(self):
        # near 0 the weight gap barely moves a moment, but the pair check
        # compares the weights themselves
        w = WeightedConfiguration((0.01, -0.01), (1.0, 1.0 + 5e-9), tolerance=1e-9)
        assert verify_weighted_design(w, 2).verdict
        with pytest.raises(ToleranceError, match="weights at") as exc:
            certify_weighted_symmetry(w, 2)
        assert exc.value.reason == "hypothesis approximately violated"

    def test_support_size_precondition(self):
        w = WeightedConfiguration((F(1, 2), F(-1, 2), F(1, 4), F(-1, 4)), (1, 1, 2, 2))
        with pytest.raises(PreconditionError):
            certify_weighted_symmetry(w, 3)

    def test_soundness_on_random_even_functions(self):
        rng = random.Random(321)
        for _ in range(150):
            m = rng.randint(2, 6)
            npairs = rng.randint(1, m // 2)
            support, weights = [], []
            mags = rng.sample(range(1, 33), npairs)
            for mag in mags:
                a = F(mag, 32)
                wgt = F(rng.randint(1, 9), rng.randint(1, 3))
                support += [a, -a]
                weights += [wgt, wgt]
            if rng.random() < 0.3:
                support.append(F(0))
                weights.append(F(rng.randint(1, 5)))
            w = WeightedConfiguration(tuple(support), tuple(weights))
            cert = certify_weighted_symmetry(w, m)
            assert cert.check_weighted(w.support, w.weights)

    def test_contrapositive_on_random_uneven_functions(self):
        rng = random.Random(555)
        checked = 0
        while checked < 150:
            m = rng.randint(1, 6)
            n = rng.randint(1, m)
            support = rng.sample([F(k, 16) for k in range(-16, 17)], n)
            weights = [F(rng.randint(-9, 9)) or F(1) for _ in range(n)]
            w = WeightedConfiguration(tuple(support), tuple(weights))
            if is_symmetric(w)[0]:
                continue
            assert not verify_weighted_design(w, m).verdict
            checked += 1


class TestIsSymmetric:
    def test_multiset_with_zero(self):
        ok, cert = is_symmetric(Configuration((F(1, 2), F(-1, 2), F(0))))
        assert ok and cert.check_multiset((F(1, 2), F(-1, 2), F(0)))

    def test_asymmetric_multiset(self):
        ok, cert = is_symmetric(Configuration((F(-3, 4), F(-1, 4), F(1))))
        assert not ok and cert is None

    def test_unequal_weights(self):
        ok, _ = is_symmetric(WeightedConfiguration((F(1, 2), F(-1, 2)), (2, 3)))
        assert not ok

    def test_certificate_covers_all_positions(self):
        cert = SymmetryCertificate(((0, 1),), (2,))
        assert cert.covers(3)
        assert not cert.covers(4)
