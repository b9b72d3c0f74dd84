import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from tmdesign import (
    DomainError,
    PreconditionError,
    SphericalConfig,
    certify_antipodal,
    embed,
    escalation_diagnostic,
    gegenbauer_value,
    harmonic_index_residual,
    is_antipodal,
    pad_with_antipodal_pairs_spherical,
    polygon_on_circle,
    project_to_line,
    six_point_search,
    verify_spherical_Tm,
    verify_spherical_t_design_full,
)

CROSS = SphericalConfig(
    ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)))
)


def random_rotation(rng, d):
    gauss = np.array([[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)])
    q, r = np.linalg.qr(gauss)
    return q @ np.diag(np.sign(np.diag(r)))


def random_antipodal_config(rng, d, npairs):
    """Exactly antipodal float configuration in random order and rotation."""
    rot = random_rotation(rng, d)
    pts = []
    for _ in range(npairs):
        v = np.array([rng.gauss(0, 1) for _ in range(d)])
        v /= np.linalg.norm(v)
        w = rot @ v
        pts.append(tuple(float(c) for c in w))
        pts.append(tuple(-float(c) for c in w))
    rng.shuffle(pts)
    return SphericalConfig(tuple(pts))


class TestGegenbauer:
    def test_degree_two_circle(self):
        # second cosine polynomial: 2s^2 - 1
        assert gegenbauer_value(2, 2, F(1, 2)) == F(-1, 2)

    def test_degree_one_any_dimension(self):
        for d in (2, 3, 5, 9):
            assert gegenbauer_value(d, 1, F(3, 7)) == F(3, 7)
            assert abs(gegenbauer_value(d, 1, 0.37) - 0.37) < 1e-15

    def test_degree_two_three_dimensions(self):
        # (3s^2 - 1)/2 at 1/2
        assert gegenbauer_value(3, 2, F(1, 2)) == F(-1, 8)

    def test_normalized_at_one(self):
        for d in (2, 3, 4, 7):
            for t in range(7):
                assert gegenbauer_value(d, t, F(1)) == 1

    def test_odd_degree_odd_function(self):
        for d in (2, 3, 4):
            for t in (1, 3, 5):
                s = F(2, 7)
                assert gegenbauer_value(d, t, s) == -gegenbauer_value(d, t, -s)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            gegenbauer_value(3, 2, 1.5)


class TestHarmonicIndexResidual:
    def test_triangle_first_index(self):
        triangle = polygon_on_circle(1)
        assert abs(harmonic_index_residual(triangle, 1)) <= 1e-12

    def test_antipodal_pair_odd_parity(self):
        pair = SphericalConfig(((F(3, 5), F(4, 5)), (F(-3, 5), F(-4, 5))))
        for t in (1, 3, 5, 7):
            assert harmonic_index_residual(pair, t) == 0

    def test_pentagon_third_index(self):
        assert abs(harmonic_index_residual(polygon_on_circle(2), 3)) <= 1e-12


class TestVerifySphericalTm:
    def test_exact_cross(self):
        report = verify_spherical_Tm(CROSS, 2)
        assert report.verdict
        assert report.tolerance is None
        assert all(c.gegenbauer_residual == 0 for c in report.checks)
        assert all(c.moment_residual == 0 for c in report.checks)

    def test_pentagon_t2_true(self):
        assert verify_spherical_Tm(polygon_on_circle(2), 2).verdict

    def test_pentagon_t3_false(self):
        report = verify_spherical_Tm(polygon_on_circle(2), 3)
        assert not report.verdict
        bad = [c for c in report.checks if c.t == 5][0]
        # the t=5 pair sum is 25, i.e. exactly 1 after dividing by n^2
        assert abs(float(bad.gegenbauer_residual) - 1.0) < 1e-12
        assert not bad.gegenbauer_ok and not bad.moment_ok

    def test_rotation_invariance(self):
        for rot in (0.0, 0.31, 1.7, 2.9):
            report = verify_spherical_Tm(polygon_on_circle(2, rotation=rot), 2)
            assert report.verdict
            assert all(abs(float(c.gegenbauer_residual)) <= 1e-10 for c in report.checks)

    def test_route_verdicts_agree_on_random_configs(self):
        rng = random.Random(77)
        for trial in range(60):
            d = rng.randint(2, 4)
            n = rng.randint(1, 8)
            m = rng.randint(1, 3)
            if trial % 3 == 0 and n % 2 == 0:
                config = random_antipodal_config(rng, d, n // 2 or 1)
            else:
                pts = []
                for _ in range(n):
                    v = np.array([rng.gauss(0, 1) for _ in range(d)])
                    v /= np.linalg.norm(v)
                    pts.append(tuple(float(c) for c in v))
                config = SphericalConfig(tuple(pts))
            report = verify_spherical_Tm(config, m, tol=1e-9)
            assert report.gegenbauer_verdict == report.moment_verdict
            for c in report.checks:
                # a passing moment dominates the same-degree pair sum
                assert c.gegenbauer_ok or not c.moment_ok

    def test_per_index_routes_may_differ_off_design(self):
        # the triangle has a vanishing degree-5 component but its degree-5
        # moment keeps the surviving degree-3 part
        report = verify_spherical_Tm(polygon_on_circle(1), 3)
        by_t = {c.t: c for c in report.checks}
        assert by_t[5].gegenbauer_ok and not by_t[5].moment_ok
        assert not by_t[3].gegenbauer_ok
        assert report.gegenbauer_verdict == report.moment_verdict == False  # noqa: E712


class TestFullDesignCheck:
    def test_pentagon_degree_four(self):
        assert verify_spherical_t_design_full(polygon_on_circle(2), 4).verdict

    def test_antipodal_pair_degree_one(self):
        pair = SphericalConfig(((F(1), F(0)), (F(-1), F(0))))
        assert verify_spherical_t_design_full(pair, 1).verdict

    def test_single_point_fails(self):
        single = SphericalConfig(((F(1), F(0)),))
        assert not verify_spherical_t_design_full(single, 1).verdict


class TestProjectToLine:
    def test_orthogonal_points_project_to_zero(self):
        config = SphericalConfig(((F(0), F(1)), (F(0), F(-1))))
        proj = project_to_line(config, (F(1), F(0)))
        assert proj.points == (0, 0)

    def test_pentagon_projection(self):
        pent = polygon_on_circle(2)
        proj = project_to_line(pent, (1.0, 0.0))
        expected = [math.cos(2 * math.pi * j / 5) for j in range(5)]
        assert all(abs(a - b) < 1e-12 for a, b in zip(proj.points, expected))

    def test_projection_onto_member_contains_one(self):
        proj = project_to_line(CROSS, CROSS.points[0])
        assert 1 in proj.points


class TestCertifyAntipodal:
    def test_exact_cross(self):
        cert = certify_antipodal(CROSS, 2)
        assert cert.pairs == ((0, 1), (2, 3))
        assert cert.check(CROSS)

    def test_pentagon_size_gate(self):
        with pytest.raises(PreconditionError, match="n=5 > 2m=4"):
            certify_antipodal(polygon_on_circle(2), 2)

    def test_rotated_pairs_in_three_dimensions(self):
        rng = random.Random(123)
        config = random_antipodal_config(rng, 3, 3)
        cert = certify_antipodal(config, 3, tol=1e-9)
        assert cert.check(config, tol=1e-9)

    def test_random_suite(self):
        rng = random.Random(2718)
        for _ in range(40):
            d = rng.randint(2, 4)
            m = rng.randint(1, 4)
            npairs = rng.randint(1, m)
            config = random_antipodal_config(rng, d, npairs)
            cert = certify_antipodal(config, m)
            assert cert.check(config)

    def test_direct_negation_oracle_agrees(self):
        rng = random.Random(31415)
        for _ in range(20):
            config = random_antipodal_config(rng, rng.randint(2, 4), rng.randint(1, 3))
            ok, direct = is_antipodal(config)
            assert ok
            assert direct.check(config)


class TestPolygonOnCircle:
    def test_triangle(self):
        tri = polygon_on_circle(1)
        assert len(tri) == 3
        assert verify_spherical_Tm(tri, 1).verdict

    def test_pentagon_not_antipodal(self):
        assert not is_antipodal(polygon_on_circle(2))[0]

    def test_rotation_preserves_verdicts(self):
        for rot in (0.0, 0.5, 2.2):
            assert verify_spherical_Tm(polygon_on_circle(2, rot), 2).verdict


class TestEmbed:
    def test_pentagon_to_higher_dimensions(self):
        pent = polygon_on_circle(2)
        for d in (3, 4, 5):
            lifted = embed(pent, d)
            assert lifted.dim == d
            assert verify_spherical_Tm(lifted, 2).verdict

    def test_exact_cross_to_five_dimensions(self):
        lifted = embed(CROSS, 5)
        report = verify_spherical_Tm(lifted, 3)
        assert report.verdict and report.tolerance is None

    def test_moment_residuals_identical(self):
        pent = polygon_on_circle(2)
        before = verify_spherical_Tm(pent, 2)
        after = verify_spherical_Tm(embed(pent, 3), 2)
        for b, a in zip(before.checks, after.checks):
            assert float(b.moment_residual) == float(a.moment_residual)

    def test_must_increase_dimension(self):
        with pytest.raises(DomainError):
            embed(CROSS, 2)


class TestPadSpherical:
    def test_pentagon_plus_pair(self):
        pent = polygon_on_circle(2)
        padded = pad_with_antipodal_pairs_spherical(
            pent, [(math.cos(0.4), math.sin(0.4))]
        )
        assert len(padded) == 7
        assert verify_spherical_Tm(padded, 2).verdict
        assert not is_antipodal(padded)[0]

    def test_triangle_plus_two_pairs(self):
        tri = polygon_on_circle(1)
        padded = pad_with_antipodal_pairs_spherical(
            tri, [(math.cos(a), math.sin(a)) for a in (0.9, 1.9)]
        )
        assert len(padded) == 7
        assert verify_spherical_Tm(padded, 1).verdict

    def test_duplicate_rejected(self):
        pent = polygon_on_circle(2)
        with pytest.raises(DomainError, match="duplicate"):
            pad_with_antipodal_pairs_spherical(pent, [pent.points[0]])

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            pad_with_antipodal_pairs_spherical(CROSS, [(0.5, 0.5)])


class TestEscalationDiagnostic:
    def test_pentagon_converges_to_one(self):
        pent = polygon_on_circle(2)
        seq = escalation_diagnostic(pent, pent.points[0], 50)
        assert abs(seq[-1] - 1.0) <= 1e-6
        assert abs(seq[0]) <= 1e-12  # first entry is the t=1 moment, zero here

    def test_antipode_present_rejected(self):
        pair = SphericalConfig(((F(1), F(0)), (F(-1), F(0))))
        with pytest.raises(PreconditionError, match="not applicable"):
            escalation_diagnostic(pair, pair.points[0], 5)

    def test_orthogonal_pair_constant_one(self):
        config = SphericalConfig(((F(1), F(0)), (F(0), F(1))))
        seq = escalation_diagnostic(config, (F(1), F(0)), 10)
        assert all(s == 1.0 for s in seq)

    def test_membership_required(self):
        with pytest.raises(DomainError):
            escalation_diagnostic(CROSS, (F(3, 5), F(4, 5)), 3)


class TestSixPointSearch:
    def test_margin_zero_reaches_zero_residual(self):
        report = six_point_search(trials=8, seed=7, margin=0.0)
        assert report.best.residual < 1e-9
        assert report.found_below_tolerance
        assert report.best.defect < 1e-4

    def test_margin_excludes_zero_residual(self):
        report = six_point_search(trials=10, seed=7, margin=0.1)
        assert report.best.residual > 1e-9
        assert not report.found_below_tolerance
        assert report.best.min_pair_distance >= 0.1 - 1e-9

    def test_nan_margin_rejected(self):
        with pytest.raises(DomainError, match="margin"):
            six_point_search(trials=1, seed=7, margin=float("nan"))

    def test_determinism(self):
        a = six_point_search(trials=4, seed=11, margin=0.1)
        b = six_point_search(trials=4, seed=11, margin=0.1)
        assert a == b

    def test_report_orders_lowest_first(self):
        report = six_point_search(trials=6, seed=3, margin=0.1)
        residuals = [t.residual for t in report.lowest]
        assert residuals == sorted(residuals)
        assert report.best.residual == residuals[0]
