import math
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmdesign import (
    AntipodalCertificate,
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
    SphericalConfig,
    ToleranceError,
    certify_antipodal,
    certify_symmetry,
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
from tmdesign import spherical
from tmdesign.scalars import near
from tmdesign.spherical import _gram_power_sums, _project_margin, antipodal_defect

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


def unit_exact(rng, d):
    """Inverse stereographic projection of a seeded rational point."""
    u = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d - 1)]
    s = sum(c * c for c in u)
    return tuple(2 * c / (s + 1) for c in u) + ((s - 1) / (s + 1),)


def unit_float(rng, d):
    v = [rng.gauss(0, 1) for _ in range(d)]
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


def reference_q(d, t, s):
    """Q_{d,t}(s): the recurrence with Fraction lambda, one run per argument."""
    lam = F(d - 2, 2)

    def raw(s):
        if d == 2:
            prev, cur = 1, s
            for _ in range(t - 1):
                prev, cur = cur, 2 * s * cur - prev
            return cur
        prev, cur = 1, 2 * lam * s
        for j in range(2, t + 1):
            prev, cur = cur, (2 * (j + lam - 1) * s * cur - (j + 2 * lam - 2) * prev) / j
        return cur

    if t == 0:
        return 1 if isinstance(s, (int, F)) else 1.0
    r, nrm = raw(s), F(raw(F(1)))
    return r / nrm if isinstance(r, (int, F)) else r / float(nrm)


def reference_pair_sum(X, t):
    """Per-t pair sum: Fraction lambda, one recurrence per ordered pair."""
    acc = 0
    for x in X.points:
        for y in X.points:
            acc = acc + reference_q(X.dim, t, sum(a * b for a, b in zip(x, y)))
    return acc


def reference_moment_residual(X, t):
    """Per-t moment check: worst normalized probe entry, then tensor entry."""
    d = X.dim
    probes = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    raws = [
        sum(sum(a * b for a, b in zip(x, p)) ** t for x in X.points)
        for p in probes + list(product((1, -1), repeat=d))
    ]
    for alpha in combinations_with_replacement(range(d), t) if d <= 4 else ():
        raw = 0
        for x in X.points:
            term = 1
            for i in alpha:
                term = term * x[i]
            raw = raw + term
        raws.append(raw)
    worst = 0
    for raw in raws:
        scaled = raw if X.is_exact else raw / float(len(X))
        if abs(scaled) > abs(worst):
            worst = scaled
    return worst


def same(a, b):
    """Equal values, and floats equal bit for bit."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and repr(a) == repr(b)
    return a == b


def pinned_configs():
    rng = random.Random(1977)
    for d in (2, 3, 5, 8):
        for unit in (unit_float, unit_exact):
            n = rng.randint(4, 10)
            half = [unit(rng, d) for _ in range(n // 2)]
            anti = half + [tuple(-c for c in p) for p in half]
            rng.shuffle(anti)
            yield SphericalConfig(tuple(anti))
            yield SphericalConfig(tuple(unit(rng, d) for _ in range(n)))
    loose = tuple(unit_exact(rng, 3) for _ in range(5))
    yield SphericalConfig(loose, mode="approximate")  # rationals, float tests
    yield polygon_on_circle(2, rotation=0.4)
    yield embed(polygon_on_circle(3), 4)
    yield embed(SphericalConfig(((F(3, 5), F(4, 5)), (F(0), F(-1)))), 3)


def float_set(rng, d, n, antipodal):
    if not antipodal:
        return SphericalConfig(tuple(unit_float(rng, d) for _ in range(n)))
    half = [unit_float(rng, d) for _ in range(n // 2)]
    pts = half + [tuple(-c for c in p) for p in half]
    rng.shuffle(pts)
    return SphericalConfig(tuple(pts))


def exact_antipodal_design(rng, d, k):
    """k distinct rational antipodal pairs in seeded order, as the
    ``sphere`` benchmark draws them."""
    half = []
    while len(half) < k:
        p = unit_exact(rng, d)
        if p not in half and tuple(-c for c in p) not in half:
            half.append(p)
    pts = half + [tuple(-c for c in p) for p in half]
    rng.shuffle(pts)
    return tuple(pts)


def benchmark_sized_configs():
    """(X, m) beyond ``pinned_configs``: the float d = 8, n = 40 and exact
    n = 12, m = 6 sets of the ``sphere`` benchmark, signed zeros, integer
    poles among floats, points mixing floats with rationals, float designs
    in d <= 4 (where a tensor entry can be the worst), n = 1, m = 0; then
    subnormal coordinates that make the worst t = 1 entry, d = 2
    sets at n = 40 (recurrence step 1 is 1.0 * s) and a forced approximate
    n = 20 set with one rational point (its Gram entry with itself is
    evaluated exactly)."""
    rng = random.Random(1983)
    for antipodal in (True, False):
        yield float_set(rng, 8, 40, antipodal), 3
    for d in (4, 6):
        yield SphericalConfig(exact_antipodal_design(rng, d, 6)), 6
    for d in (3, 4, 5):
        for antipodal in (True, False):
            X = float_set(rng, d, 12, antipodal)
            signed = [(0.0,) * (d - 1) + (1.0,), (-0.0,) * (d - 1) + (-1.0,)]
            signed.append((-0.0, 0.6) + (0.0,) * (d - 3) + (-0.8,))
            poles = [tuple(s * (i == j) for j in range(d)) for i in (0, d - 1) for s in (1, -1)]
            pts = list(X.points) + signed + poles
            rng.shuffle(pts)
            yield SphericalConfig(tuple(pts)), 4
    mixed = ((F(3, 5), 0.8, 0), (0, -0.6, F(-4, 5)), (1, 0, 0.0), (-1.0, 0, 0))
    yield SphericalConfig(mixed + tuple(unit_float(rng, 3) for _ in range(6))), 3
    for k in range(12):  # float designs: each moment entry is rounding noise
        m = 2 + k % 4
        X = polygon_on_circle(m, rotation=rng.random())
        yield (embed(X, 2 + k % 3) if k % 3 else X), m
    yield SphericalConfig(((F(3, 5), F(4, 5)),)), 2
    yield SphericalConfig(((0.6, -0.8),)), 2
    yield polygon_on_circle(3, rotation=0.1), 0
    # d = 5 has no tensor, so the worst t = 1 entry is the e_2 probe's subnormal sum
    tiny = ((1.0, 5e-324, 0.0), (-1.0, 0.0, 0.0), (0.0, 1e-310, 1.0), (0.0, 0.0, -1.0))
    yield SphericalConfig(tuple(p + (0.0, 0.0) for p in tiny)), 2
    for antipodal in (True, False):
        yield float_set(rng, 2, 40, antipodal), 3
    pts = [unit_float(rng, 3) for _ in range(19)] + [(F(2, 3), F(-1, 3), F(2, 3))]
    rng.shuffle(pts)
    yield SphericalConfig(tuple(pts), mode="approximate"), 3


class TestKernelPinned:
    """The one-pass kernels reproduce the per-t recurrence and probe loop."""

    @pytest.mark.parametrize(
        "X", list(pinned_configs()), ids=lambda X: f"d{X.dim}n{len(X)}{X.mode[0]}"
    )
    def test_pair_sums_and_moments(self, X):
        n, m = len(X), 3
        report = verify_spherical_Tm(X, m)
        for c in report.checks:
            pair = reference_pair_sum(X, c.t)
            geg = F(pair, n * n) if X.is_exact else pair / (n * n)
            assert same(c.gegenbauer_residual, geg)
            assert same(c.moment_residual, reference_moment_residual(X, c.t))
        for t in range(2 * m + 1):  # even t too
            assert same(harmonic_index_residual(X, t), reference_pair_sum(X, t))

    @pytest.mark.parametrize(
        "X, m",
        list(benchmark_sized_configs()),
        ids=lambda v: f"d{v.dim}n{len(v)}{v.mode[0]}" if isinstance(v, SphericalConfig) else f"m{v}",
    )
    def test_benchmark_sized_sets(self, X, m):
        n = len(X)
        report = verify_spherical_Tm(X, m)
        assert [c.t for c in report.checks] == list(range(1, 2 * m, 2))
        for c in report.checks:
            pair = reference_pair_sum(X, c.t)
            geg = F(pair, n * n) if X.is_exact else pair / (n * n)
            assert same(c.gegenbauer_residual, geg)
            assert same(c.moment_residual, reference_moment_residual(X, c.t))

    @pytest.mark.parametrize(
        "X",
        list(pinned_configs()) + [X for X, _ in benchmark_sized_configs()],
        ids=lambda X: f"d{X.dim}n{len(X)}{X.mode[0]}",
    )
    def test_full_design_report(self, X):
        # every k = 1..t, odd and even: the pair sums over n^2, tested as
        # the Gegenbauer route of verify_spherical_Tm tests them
        t, n = (6 if X.dim <= 6 else 4), len(X)
        report = verify_spherical_t_design_full(X, t)
        assert report.index_set == tuple(range(1, t + 1))
        for k, r in zip(report.index_set, report.residuals):
            pair = reference_pair_sum(X, k)
            assert same(r, F(pair, n * n) if X.is_exact else pair / (n * n))
        if X.is_exact:
            assert report.tolerance is None
            assert report.verdict == all(r == 0 for r in report.residuals)
        else:
            assert report.tolerance == X.tolerance
            assert report.verdict == all(abs(r) <= X.tolerance for r in report.residuals)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_full_design_report_every_degree(self, d):
        # each t = 1..6 runs the recurrence to a different top degree
        rng = random.Random(1991 + d)
        for X in (float_set(rng, d, 14, True), float_set(rng, d, 9, False)):
            n = len(X)
            pairs = [reference_pair_sum(X, k) for k in range(1, 7)]
            for t in range(1, 7):
                report = verify_spherical_t_design_full(X, t)
                assert len(report.residuals) == t
                assert all(same(r, p / (n * n)) for r, p in zip(report.residuals, pairs))

    def test_integer_coordinates_stay_exact(self):
        X = SphericalConfig(((1, 0, 0), (0, 1, 0), (0, 0, -1)))
        report = verify_spherical_Tm(X, 3)
        for c in report.checks:
            for r in (c.gegenbauer_residual, c.moment_residual):
                assert isinstance(r, (int, F))
            assert c.moment_residual == reference_moment_residual(X, c.t)
        for t in range(6):
            r = harmonic_index_residual(X, t)
            assert isinstance(r, (int, F)) and r == reference_pair_sum(X, t)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            harmonic_index_residual(CROSS, -1)

    @pytest.mark.parametrize("d", (2, 3, 4, 6))
    def test_exact_gram_table_through_degree_eleven(self, d):
        # odd and even t up to 11, with a repeated point and an antipode
        rng = random.Random(600 + d)
        pts = [unit_exact(rng, d) for _ in range(rng.randint(3, 6))]
        pts += [pts[0], tuple(-c for c in pts[1])]
        X = SphericalConfig(tuple(pts))
        n = len(X)
        for t in range(12):
            r = harmonic_index_residual(X, t)
            assert isinstance(r, (int, F)) and r == reference_pair_sum(X, t)
        for c in verify_spherical_Tm(X, 6).checks:
            assert c.gegenbauer_residual == F(reference_pair_sum(X, c.t), n * n)


def reference_gram_table(pts, top):
    """The full-square build: both triangles of G and of its powers."""
    L = math.lcm(*(c.denominator for p in pts for c in p))
    ipts = [tuple(c.numerator * (L // c.denominator) for c in p) for p in pts]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in ipts] for x in ipts]
    rows = [[sum(g**k for g in row) for k in range(top + 1)] for row in gram]
    return L, ipts, gram, rows


@pytest.mark.parametrize("seed", range(6))
def test_half_triangle_gram_table_matches_full_build(seed):
    rng = random.Random(8000 + seed)
    for _ in range(10):
        d, top = rng.randint(2, 6), rng.randint(0, 9)
        pts = [unit_exact(rng, d) for _ in range(rng.randint(1, 12))]
        pts += [pts[0], tuple(-c for c in pts[-1])]  # a repeat and an antipode
        rng.shuffle(pts)
        L, _, _, rows = reference_gram_table(pts, top)
        assert _gram_power_sums(pts, top) == (L, [sum(col) for col in zip(*rows)])


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

    def test_exact_argument_gets_no_tolerance(self):
        # the range rule of Configuration: an exact s must lie in [-1, 1],
        # a float s within tol of it
        for s in (F(1) + F(1, 10**12), F(-1) - F(1, 10**12)):
            with pytest.raises(DomainError, match="outside"):
                gegenbauer_value(3, 2, s)
        assert abs(gegenbauer_value(3, 2, 1.0 + 1e-12) - 1) < 1e-11
        with pytest.raises(DomainError, match="outside"):
            gegenbauer_value(3, 2, 1.0 + 2e-9)


# Rationals in [-1, 1], ints among them: an exact value is a Fraction from t = 1 on
RATIONALS = (F(-1), F(1), 0, -1, F(1, 2), F(-3, 7), F(5, 11), F(-2, 3),
             F(1, 10**6), F(999, 1000), F(-1, 3), F(7, 8))

# repr of gegenbauer_value(d, t, s) for t = 0, 3, 6, 11 and s = -0.77, 0.3
FLOAT_VALUES = {
    2: [("1.0", "1.0"), ("0.4838680000000001", "-0.792"),
        ("-0.5317435171520001", "0.25452800000000003"),
        ("-0.24010567356138857", "0.20848585727999996")],
    3: [("1.0", "1.0"), ("0.013667499999999869", "-0.3825"),
        ("-0.33325058434006266", "0.12918118750000002"),
        ("-0.18838889644748577", "0.08611792585207034")],
    5: [("1.0", "1.0"), ("-0.22143275000000018", "-0.17775"),
        ("-0.14926331080967192", "0.05395689062499999"),
        ("-0.07103668928775421", "0.023739404862128895")],
    8: [("1.0", "1.0"), ("-0.32219000000000003", "-0.09"),
        ("-0.029511220087688285", "0.02185793939393939"),
        ("-0.01084477263710358", "0.00560069376")],
}


class TestSphereTable:
    """One table of sphere polynomials per dimension, read by every caller."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exact_values_match_the_fraction_recurrence(self, d):
        for t in range(16):
            for s in RATIONALS:
                value, ref = gegenbauer_value(d, t, s), reference_q(d, t, s)
                assert type(value) is type(ref) and value == ref

    @pytest.mark.parametrize("d", sorted(FLOAT_VALUES))
    def test_float_values_pinned(self, d):
        got = [
            tuple(repr(gegenbauer_value(d, t, s)) for s in (-0.77, 0.3)) for t in (0, 3, 6, 11)
        ]
        assert got == FLOAT_VALUES[d]

    def test_one_table_grown_to_the_largest_degree(self):
        with mock.patch.dict(spherical._TABLES, clear=True):
            gegenbauer_value(5, 4, 0.5)
            small = spherical._TABLES[5]
            gegenbauer_value(5, 40, 0.5)
            table = spherical._TABLES[5]
            assert len(small[0]) == len(small[1]) == 5  # a reader keeps a whole table
            assert len(table[0]) == len(table[1]) == 41
            assert table[0][:5] == small[0] and table[1][:5] == small[1]
            for t in (10, 20, *range(41)):
                gegenbauer_value(5, t, F(1, 3))
                assert spherical._TABLES == {5: table} and spherical._TABLES[5] is table

    def test_repeated_verifications_reuse_the_table(self):
        X = SphericalConfig(tuple(unit_float(random.Random(7), 4) for _ in range(6)))
        with mock.patch.dict(spherical._TABLES, clear=True):
            first = verify_spherical_Tm(X, 3)
            table = spherical._TABLES[4]
            for _ in range(3):
                assert verify_spherical_Tm(X, 3) == first
                assert spherical._TABLES[4] is table

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="dimension must be at least 2"):
            gegenbauer_value(1, 2, 0.5)
        with pytest.raises(DomainError, match="degree must be nonnegative"):
            gegenbauer_value(3, -1, F(1, 2))


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
            report = verify_spherical_Tm(config, m)
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

    @pytest.mark.parametrize("exact", (True, False))
    def test_probe_blind_set_in_five_dimensions(self, exact):
        # The cubic moment form of this set is 6 (3/5) (4/5)^2 a_1 (a_2^2 -
        # a_3^2): zero at every coordinate and sign vector, so every probe
        # passes, while the t = 3 pair sum over n^2 is 6048/15625.  The verdict must
        # still fail, on the pair sums.
        a, b, z = F(3, 5), F(4, 5), F(0)
        pts = [(a, b, z, z, z), (a, -b, z, z, z), (-a, z, b, z, z), (-a, z, -b, z, z)]
        if not exact:
            pts = [tuple(float(c) for c in p) for p in pts]
        report = verify_spherical_Tm(SphericalConfig(tuple(pts)), 2)
        assert not report.verdict
        assert not report.gegenbauer_verdict
        assert any("route verdicts disagree" in d for d in report.diagnostics)
        residual = report.checks[1].gegenbauer_residual
        if exact:
            assert residual == F(6048, 15625)
        else:
            assert abs(residual - 6048 / 15625) < 1e-12


class TestFullDesignCheck:
    def test_pentagon_degree_four(self):
        assert verify_spherical_t_design_full(polygon_on_circle(2), 4).verdict

    def test_antipodal_pair_degree_one(self):
        pair = SphericalConfig(((F(1), F(0)), (F(-1), F(0))))
        assert verify_spherical_t_design_full(pair, 1).verdict

    def test_single_point_fails(self):
        single = SphericalConfig(((F(1), F(0)),))
        assert not verify_spherical_t_design_full(single, 1).verdict

    def test_exact_verdict_is_an_identity(self):
        # (1, 0) against the negation of a rational unit vector 2e-12 away
        u = F(1, 10**12)
        x = ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
        X = SphericalConfig(((F(1), F(0)), (-x[0], -x[1])))
        assert not verify_spherical_Tm(X, 1).verdict
        report = verify_spherical_t_design_full(X, 1)
        assert not report.verdict and report.tolerance is None
        assert 0 < report.residuals[0] < 1e-9  # nonzero, though below any tol
        assert report.to_json()["tolerance"] is None

    @pytest.mark.parametrize("exact", (True, False))
    def test_probe_blind_set_in_three_dimensions(self, exact):
        # {(3/5, +-4/5, 0), (-3/5, 0, +-4/5)} and its images under the cyclic
        # coordinate shift: each coordinate and sign probe sees the surface
        # moments through degree 3, yet the t = 3 pair sum over n^2 is
        # 576/3125, so this is no 3-design
        a, b, z = F(3, 5), F(4, 5), F(0)
        base = [(a, b, z), (a, -b, z), (-a, z, b), (-a, z, -b)]
        pts = [p[-s:] + p[:-s] for p in base for s in range(3)]
        if not exact:
            pts = [tuple(float(c) for c in p) for p in pts]
        U = SphericalConfig(tuple(pts))
        assert len(set(U.points)) == 12
        report = verify_spherical_t_design_full(U, 3)
        assert not report.verdict
        assert not verify_spherical_Tm(U, 2).verdict
        if exact:
            assert report.residuals == (0, 0, F(576, 3125))
        else:
            assert all(abs(r) <= 1e-15 for r in report.residuals[:2])
            assert abs(report.residuals[2] - 576 / 3125) < 1e-12


class TestFailingIndex:
    """Each spherical report names its first failing index, None exactly
    when the verdict holds, and keeps it out of the JSON."""

    def test_both_spherical_reports(self):
        configs = list(pinned_configs()) + [X for X, _ in benchmark_sized_configs()]
        tm_keys = {
            "index_set", "checks", "verdict", "gegenbauer_verdict",
            "moment_verdict", "tolerance", "conventions", "diagnostics",
        }
        seen = set()
        for X in configs:
            for m in range(4):
                report = verify_spherical_Tm(X, m)
                failing = [
                    c.t for c in report.checks if not (c.gegenbauer_ok and c.moment_ok)
                ]
                assert report.failing_index == (failing[0] if failing else None)
                assert report.verdict == (report.failing_index is None)
                assert set(report.to_json()) == tm_keys
                seen.add(report.failing_index)
            for t in range(1, 6):
                report = verify_spherical_t_design_full(X, t)
                failing = [
                    k
                    for k, r in zip(report.index_set, report.residuals)
                    if not near(r, 0, X.near_tol)
                ]
                assert report.failing_index == (failing[0] if failing else None)
                assert report.verdict == (report.failing_index is None)
                assert set(report.to_json()) == {
                    "index_set", "residuals", "verdict", "tolerance",
                }
                seen.add(report.failing_index)
        assert {None, 1, 2, 5} <= seen


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
        cert = certify_antipodal(config, 3)
        assert cert.check(config)

    def test_random_suite(self):
        rng = random.Random(2718)
        for _ in range(40):
            d = rng.randint(2, 4)
            m = rng.randint(1, 4)
            npairs = rng.randint(1, m)
            config = random_antipodal_config(rng, d, npairs)
            cert = certify_antipodal(config, m)
            assert cert.check(config)

    def test_pairs_are_checked_at_the_tolerance(self):
        # row 0 pairs the points at gap 0, but their second coordinates
        # differ by 1.5 tol, so the checker would reject the pair
        X = SphericalConfig(((1.0, 0.0), (-1.0, -1.5e-9)), tolerance=1e-9)
        assert verify_spherical_Tm(X, 1).verdict
        assert not AntipodalCertificate(((0, 1),)).check(X)
        with pytest.raises(ToleranceError, match="not negations") as exc:
            certify_antipodal(X, 1)
        assert exc.value.reason == "hypothesis approximately violated"
        X = SphericalConfig(X.points, tolerance=2e-9)
        assert certify_antipodal(X, 1).check(X)

    def test_float_row_gap_is_pairing_ambiguous(self):
        # -y turned by 2.5e-9 rad: every moment stays within tol, and in
        # row 0 the values 0.6 and -0.6 + 2e-9 miss by 2 tol
        turn = math.atan2(0.8, 0.6) + 2.5e-9
        far = (-math.cos(turn), -math.sin(turn))
        X = SphericalConfig(((1.0, 0.0), (-1.0, 0.0), (0.6, 0.8), far))
        assert verify_spherical_Tm(X, 2).verdict
        with pytest.raises(ToleranceError, match="no partner for 0.6") as exc:
            certify_antipodal(X, 2)
        assert exc.value.reason == "pairing ambiguous"

    def test_float_moments_without_negations(self):
        # {x, x, y, y'} with y, y' at +-1e-5 rad from -x: every odd moment
        # is O(1e-10), yet x and its partner differ by 1e-5
        c, s = math.cos(1e-5), math.sin(1e-5)
        X = SphericalConfig(((1.0, 0.0), (1.0, 0.0), (-c, s), (-c, -s)))
        assert verify_spherical_Tm(X, 2).verdict
        with pytest.raises(ToleranceError, match="not negations") as exc:
            certify_antipodal(X, 2)
        assert exc.value.reason == "hypothesis approximately violated"

    def test_exact_and_float_pair_alike_with_repeats(self):
        x, y = (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))
        neg = lambda p: tuple(-c for c in p)  # noqa: E731
        pts = (x, neg(x), neg(x), y, x, neg(y), x, neg(x))
        exact = SphericalConfig(pts)
        floats = SphericalConfig(tuple(tuple(map(float, p)) for p in pts))
        assert floats.mode == "approximate"
        pairs = certify_antipodal(exact, 4).pairs
        assert pairs == ((0, 1), (2, 4), (3, 5), (6, 7))
        assert certify_antipodal(floats, 4).pairs == pairs

    def test_float_near_copies_pair_over_unmatched_points(self):
        # {x, x', y} and their negations, x' within 1e-11 of x: a row paired
        # over every point can name a partner that an earlier row took, so
        # row i pairs only the points no earlier row took
        rng = random.Random(4242)
        for _ in range(60):
            d = rng.choice((3, 4))
            x, y = unit_float(rng, d), unit_float(rng, d)
            v = [c + rng.uniform(-5e-12, 5e-12) for c in x]
            norm = math.sqrt(sum(c * c for c in v))
            half = [x, tuple(c / norm for c in v), y]
            pts = half + [tuple(-c for c in p) for p in half]
            rng.shuffle(pts)
            X = SphericalConfig(tuple(pts))
            assert is_antipodal(X)[0] and verify_spherical_Tm(X, 3).verdict
            assert certify_antipodal(X, 3).check(X)

    def test_a_broken_row_fold_is_a_defect(self, monkeypatch):
        # a verified design's rows fold to nothing, so only a broken fold
        # reaches the guard
        monkeypatch.setattr(spherical, "folded_odd_sums", lambda *args: [0, 1])
        with pytest.raises(InternalDefectError, match="point 0 with a nonzero odd power sum"):
            certify_antipodal(CROSS, 2)

    def test_exact_configuration_keeps_only_its_fields(self):
        X = SphericalConfig(CROSS.points)
        verify_spherical_Tm(X, 2)
        certify_antipodal(X, 2)
        assert sorted(vars(X)) == ["mode", "points", "tolerance"]

    def test_a_pair_that_misses_two_points_does_not_check(self):
        assert not AntipodalCertificate(((0, 1),)).check(CROSS)

    def test_direct_negation_oracle_agrees(self):
        rng = random.Random(31415)
        for _ in range(20):
            config = random_antipodal_config(rng, rng.randint(2, 4), rng.randint(1, 3))
            ok, direct = is_antipodal(config)
            assert ok
            assert direct.check(config)


def reference_certify_antipodal(X, m):
    """The per-projection pairing on exact input: the symmetry certificate
    of the projection onto each unmatched point names its partner."""
    n = len(X)
    if n > 2 * m:
        raise PreconditionError(f"requires n <= 2m; got n={n} > 2m={2 * m}")
    report = verify_spherical_Tm(X, m)
    if not report.verdict:
        bad = next(c.t for c in report.checks if not (c.gegenbauer_ok and c.moment_ok))
        raise HypothesisError(
            f"configuration fails the design condition at index {bad}",
            failing_index=bad,
        )
    matched, pairs = [False] * n, []
    for i in range(n):
        if matched[i]:
            continue
        cert = certify_symmetry(project_to_line(X, X.points[i]), m)
        partner = None
        for a, b in cert.pairs:
            if a == i:
                partner = b
            elif b == i:
                partner = a
        assert partner is not None and partner != i and not matched[partner]
        assert all(a == -b for a, b in zip(X.points[i], X.points[partner]))
        matched[i] = matched[partner] = True
        pairs.append((i, partner))
    return tuple(sorted(pairs))


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestCertifyAntipodalPinned:
    """Exact pairing from the cleared Gram rows, against the projections."""

    def test_repeated_points_pair_first_unmatched_antipode(self):
        x = (F(3, 5), F(4, 5))
        minus = (-x[0], -x[1])
        X = SphericalConfig((x, minus, minus, x))
        assert certify_antipodal(X, 2).pairs == ((0, 1), (2, 3))
        assert reference_certify_antipodal(X, 2) == ((0, 1), (2, 3))

    def test_random_exact_sets(self):
        rng = random.Random(1977)
        kinds = {"antipodal": 0, "broken": 0, "too_many": 0}
        for _ in range(60):
            d = rng.choice((2, 3, 4, 6))
            half = [unit_exact(rng, d) for _ in range(rng.randint(1, 4))]
            half += [rng.choice(half) for _ in range(rng.randint(0, 2))]
            pts = half + [tuple(-c for c in p) for p in half]
            kind = rng.choice(sorted(kinds))
            if kind == "broken":
                pts[rng.randrange(len(pts))] = unit_exact(rng, d)
            rng.shuffle(pts)
            n = len(pts)
            m = (n + 1) // 2 - 1 if kind == "too_many" else n // 2 + rng.randint(0, 2)
            X = SphericalConfig(tuple(pts))
            got = outcome(lambda: certify_antipodal(X, m).pairs)
            want = outcome(reference_certify_antipodal, SphericalConfig(tuple(pts)), m)
            assert got == want
            kinds[kind] += 1
            if kind == "antipodal":
                assert isinstance(got, tuple)
            else:
                error = HypothesisError if kind == "broken" else PreconditionError
                assert got[0] is error
        assert min(kinds.values()) > 0


def reference_verify_spherical_Tm(X, m):
    """``verify_spherical_Tm`` with the moment probes run at every index."""
    tol, n, ts = X.near_tol, len(X), range(1, 2 * m, 2)
    pairs, moments = spherical._pair_sums(X, ts), spherical._moment_residuals(X, ts)
    checks, diagnostics = [], []
    for t, pair, worst in zip(ts, pairs, moments):
        geg = F(pair, n * n) if X.is_exact else pair / (n * n)
        geg_ok, mom_ok = near(geg, 0, tol), near(worst, 0, tol)
        if mom_ok and not geg_ok:
            diagnostics.append(f"t={t}: moment residual passed while the pair sum failed")
        checks.append(spherical.SphericalIndexCheck(t, geg, worst, geg_ok, mom_ok))
    geg_verdict = all(c.gegenbauer_ok for c in checks)
    mom_verdict = all(c.moment_ok for c in checks)
    if geg_verdict != mom_verdict:
        diagnostics.append(
            f"route verdicts disagree over T_{m}: pair sums "
            f"{'pass' if geg_verdict else 'fail'}, moments "
            f"{'pass' if mom_verdict else 'fail'}"
        )
    failing = next((c.t for c in checks if not (c.gegenbauer_ok and c.moment_ok)), None)
    return spherical.SphericalDesignReport(
        tuple(ts), tuple(checks), failing is None, geg_verdict, mom_verdict, tol,
        spherical._CONVENTIONS, tuple(diagnostics), failing,
    )


def certify_outcome(X, m):
    """The pairs, or the error's type, message and failing index."""
    try:
        return certify_antipodal(X, m).pairs
    except (HypothesisError, PreconditionError, ToleranceError, InternalDefectError) as exc:
        return type(exc), str(exc), getattr(exc, "failing_index", None)


def probe_blind_sets():
    """The sets the coordinate and sign probes cannot see, in d = 3 and 5."""
    a, b, z = F(3, 5), F(4, 5), F(0)
    base = [(a, b, z), (a, -b, z), (-a, z, b), (-a, z, -b)]
    yield [p[-s:] + p[:-s] for p in base for s in range(3)]
    yield [(a, b, z, z, z), (a, -b, z, z, z), (-a, z, b, z, z), (-a, z, -b, z, z)]


def exact_skip_corpus():
    """Seeded rational point lists: antipodal designs, designs plus one
    point, designs with one point replaced and random sets, d = 2..6, then
    the probe-blind sets."""
    rng = random.Random(2027)
    for d in range(2, 7):
        for _ in range(4):
            half = [unit_exact(rng, d) for _ in range(rng.randint(1, 4))]
            design = half + [tuple(-c for c in p) for p in half]
            rng.shuffle(design)
            replaced = list(design)
            replaced[rng.randrange(len(replaced))] = unit_exact(rng, d)
            yield design
            yield design + [unit_exact(rng, d)]
            yield replaced
            yield [unit_exact(rng, d) for _ in range(rng.randint(1, 8))]
    yield from probe_blind_sets()


class TestExactProbeSkip:
    """Exact verification runs the moment probes only from the first index
    whose pair sum is nonzero; every report and certificate is the one the
    probes at every index give."""

    def test_reports_and_certificates_match_the_full_probes(self):
        checked = skipped = failed = 0
        for pts in exact_skip_corpus():
            # approximate mode runs every probe: a float pair sum can round
            # to 0.0 where a probe sum rounds to a nonzero float
            floats = tuple(tuple(map(float, p)) for p in pts)
            for X in (
                SphericalConfig(tuple(pts)),
                SphericalConfig(tuple(pts), mode="approximate"),
                SphericalConfig(floats),
            ):
                for m in sorted({0, 1, 2, 3, (len(X) + 1) // 2}):
                    got, want = verify_spherical_Tm(X, m), reference_verify_spherical_Tm(X, m)
                    got_json, want_json = got.to_json(), want.to_json()
                    assert got_json.keys() == want_json.keys()
                    for key in want_json:
                        assert got_json[key] == want_json[key], key
                    for c, r in zip(got.checks, want.checks):
                        assert same(c.moment_residual, r.moment_residual)
                    assert got.failing_index == want.failing_index
                    with mock.patch.object(
                        spherical, "verify_spherical_Tm", reference_verify_spherical_Tm
                    ):
                        want_cert = certify_outcome(X, m)
                    assert certify_outcome(X, m) == want_cert
                    checked += 1
                    if X.is_exact and m > 0:
                        first = got.failing_index
                        skipped += first is None or first > 1
                        failed += first is not None
        assert checked > 500 and skipped > 50 and failed > 50

    def test_an_exact_design_runs_no_probe(self, monkeypatch):
        def probes(*args):
            raise AssertionError("moment probes ran on an exact design")

        monkeypatch.setattr(spherical, "_moment_residuals", probes)
        rng = random.Random(2029)
        for d in range(2, 7):
            half = [unit_exact(rng, d) for _ in range(3)]
            X = SphericalConfig(tuple(half + [tuple(-c for c in p) for p in half]))
            for m in (1, 3, 6):
                report = verify_spherical_Tm(X, m)
                assert report.verdict and report.moment_verdict
                assert all(c.moment_residual == 0 for c in report.checks)
            assert certify_antipodal(X, 3).check(X)
        with pytest.raises(AssertionError, match="moment probes ran"):
            verify_spherical_Tm(SphericalConfig(((F(1), F(0)),)), 1)

    def test_certify_at_degree_seventy_nine(self):
        # d = 4, n = 12, m = 40: the d <= 4 tensor through degree 79 took
        # seconds and hundreds of MB; an exact design needs the pair sums only
        X = SphericalConfig(exact_antipodal_design(random.Random(2031), 4, 6))
        cert = certify_antipodal(X, 40)
        assert cert.check(X) and len(cert.pairs) == 6
        assert cert.pairs == is_antipodal(X)[1].pairs


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

    def test_exact_duplicate_test_is_equality(self):
        # a rational unit vector within 1e-9 of (0, -1), but not equal to it
        u = F(1, 10**10)
        v = (2 * u / (1 + u * u), (u * u - 1) / (1 + u * u))
        padded = pad_with_antipodal_pairs_spherical(CROSS, [v])
        assert len(padded) == 6 and padded.is_exact
        assert verify_spherical_Tm(padded, 2).verdict


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

    @pytest.mark.parametrize("exact", (True, False))
    def test_values_match_the_direct_formula(self, exact):
        rng = random.Random(2026)
        unit = unit_exact if exact else unit_float
        X = SphericalConfig(tuple(unit(rng, 3) for _ in range(7)))
        x, K = X.points[3], 6
        direct = tuple(
            float(sum(sum(a * b for a, b in zip(y, x)) ** (2 * k - 1) for y in X.points))
            for k in range(1, K + 1)
        )
        seq = escalation_diagnostic(X, x, K)
        assert len(seq) == K and all(map(same, seq, direct))

    def test_exact_membership_is_equality(self):
        u = F(1, 10**10)
        near_member = (2 * u / (1 + u * u), (u * u - 1) / (1 + u * u))
        with pytest.raises(DomainError, match="belong"):
            escalation_diagnostic(CROSS, near_member, 3)


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

    @pytest.mark.parametrize("margin", [2.5, 3.0, math.inf])
    def test_margin_above_two_rejected(self, margin):
        # ||x_i + x_j|| <= 2 on the circle, so a larger margin cannot be met
        with pytest.raises(DomainError, match="at most 2"):
            six_point_search(trials=1, seed=7, margin=margin)

    def test_margin_two_accepted(self):
        report = six_point_search(trials=1, seed=7, margin=2.0)
        assert report.best.min_pair_distance == 2.0

    def test_determinism(self):
        a = six_point_search(trials=4, seed=11, margin=0.1)
        b = six_point_search(trials=4, seed=11, margin=0.1)
        assert a == b

    def test_report_orders_lowest_first(self):
        report = six_point_search(trials=6, seed=3, margin=0.1)
        residuals = [t.residual for t in report.lowest]
        assert residuals == sorted(residuals)
        assert report.best.residual == residuals[0]


# Reference search in its plain form: a generator sum per trig term, the
# gradient as its own list, and a projection that sweeps until no pair is
# found outside the margin (or 12 sweeps).  The search must match it bit for
# bit, because every float of the report is printed.
def reference_t2_terms(angles):
    c1 = sum(math.cos(t) for t in angles)
    s1 = sum(math.sin(t) for t in angles)
    c3 = sum(math.cos(3 * t) for t in angles)
    s3 = sum(math.sin(3 * t) for t in angles)
    return c1, s1, c3, s3


def reference_t2_gradient(angles):
    c1, s1, c3, s3 = reference_t2_terms(angles)
    out = []
    for t in angles:
        out.append(
            2.0 * (s1 * math.cos(t) - c1 * math.sin(t))
            + 6.0 * (s3 * math.cos(3 * t) - c3 * math.sin(3 * t))
        )
    return out


def reference_project_margin(angles, margin):
    if margin <= 0:
        return angles
    psi_max = 2.0 * math.acos(min(1.0, margin / 2.0))
    n = len(angles)
    for _ in range(12):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                psi = math.remainder(angles[i] - angles[j], math.tau)
                if abs(psi) > psi_max:
                    target = math.copysign(psi_max, psi)
                    delta = (target - psi) / 2.0
                    angles[i] += delta
                    angles[j] -= delta
                    moved = True
        if not moved:
            break
    return angles


def reference_search_json(trials, seed, margin, tolerance=1e-9):
    results = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        angles = reference_project_margin(
            [rng.uniform(0.0, math.tau) for _ in range(6)], margin
        )
        step = 0.1
        for _ in range(900):
            grad = reference_t2_gradient(angles)
            angles = [t - step * g for t, g in zip(angles, grad)]
            angles = reference_project_margin(angles, margin)
            step *= 0.997
        c1, s1, c3, s3 = reference_t2_terms(angles)
        residual = max(c1 * c1 + s1 * s1, c3 * c3 + s3 * s3) / 36.0
        distance = min(
            2.0 * abs(math.cos((angles[i] - angles[j]) / 2.0))
            for i in range(6)
            for j in range(i + 1, 6)
        )
        row = {
            "trial": trial,
            "residual": repr(residual),
            "min_pair_distance": repr(distance),
            "antipodal_defect": repr(antipodal_defect(angles)),
        }
        results.append((residual, trial, row, angles))
    results.sort(key=lambda r: r[:2])
    return {
        "trials": trials,
        "seed": seed,
        "margin": repr(margin),
        "tolerance": repr(tolerance),
        "best": results[0][2],
        "best_angles": [repr(a) for a in results[0][3]],
        "lowest": [r[2] for r in results[:5]],
        "found_below_tolerance": results[0][0] < tolerance,
    }


class TestSearchPinned:
    """The one-trig-pass step and the early-stopping projection reproduce the
    reference search bit for bit."""

    @pytest.mark.parametrize(
        "margin, seed, trials",
        [(0.0, 3, 2), (0.0, 11, 4), (0.01, 17, 2), (0.1, 5, 3), (0.1, 404, 2),
         (0.5, 9, 2), (0.5, 2, 3), (1.9, 21, 2)],
    )
    def test_reports_match_reference(self, margin, seed, trials):
        report = six_point_search(trials, seed, margin)
        assert report.to_json() == reference_search_json(trials, seed, margin)


def _edge_starts():
    """Six angles whose first pair differs by exactly +-psi_max,
    +-(tau - psi_max), +-(tau + psi_max) or +-pi, or by the floats next to
    these, where the % test in _project_margin sits on the edge of its band.
    Margin 2 gives psi_max = 0 and a subnormal margin psi_max = pi."""
    for margin in (0.1, 1.0, 1.9, 2.0, 5e-324):
        psi_max = 2.0 * math.acos(min(1.0, margin / 2.0))
        for d in (psi_max, math.tau - psi_max, math.tau + psi_max, math.pi):
            for near in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
                for sign in (1.0, -1.0):
                    yield [sign * near, 0.0, 1.0, 2.5, -3.0, 4.0], margin


def _with_edge_starts(test):
    for angles, margin in _edge_starts():
        test = example(angles=angles, margin=margin)(test)
    return test


_six_angles = st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6)
_margins = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True), st.sampled_from([2.0, 1e-310])
)


class TestSearchKernel:
    """The projection and one step of the descent kernel equal the plain
    reference forms bit for bit."""

    @_with_edge_starts
    @given(angles=_six_angles, margin=_margins)
    @settings(max_examples=300, deadline=None)
    def test_projection_matches_reference(self, angles, margin):
        expected = reference_project_margin(angles[:], margin)
        assert _project_margin(angles[:], margin) == expected

    @_with_edge_starts
    @given(angles=_six_angles, margin=_margins)
    @settings(max_examples=300, deadline=None)
    def test_one_step_matches_reference(self, angles, margin):
        start = reference_project_margin(angles[:], margin)
        grad = reference_t2_gradient(start)
        expected = reference_project_margin(
            [t - 0.1 * g for t, g in zip(start, grad)], margin
        )
        with mock.patch.object(spherical, "_SEARCH_ITERS", 1):
            assert spherical._descend(angles[:], margin) == expected


def reference_descend(angles, margin):
    """The plain trial, always _SEARCH_ITERS = 900 steps, with the index of
    the first step that left all six angles unchanged bit for bit (None if
    no step did)."""
    angles = reference_project_margin(angles[:], margin)
    step, first_fixed = 0.1, None
    for k in range(900):
        grad = reference_t2_gradient(angles)
        moved = reference_project_margin(
            [t - step * g for t, g in zip(angles, grad)], margin
        )
        if first_fixed is None and _bits(moved) == _bits(angles):
            first_fixed = k
        angles = moved
        step *= 0.997
    return angles, first_fixed


def _bits(angles):
    return [t.hex() for t in angles]


def _search_start(seed, trial):
    rng = random.Random(seed * 1_000_003 + trial)
    return [rng.uniform(0.0, math.tau) for _ in range(6)]


class _CountingMath:
    """math with a cos that counts its calls: a descent step makes 12."""

    def __init__(self):
        self.cos_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


class TestDescendFixedPoint:
    """At margin 0 a trial ends at its exact fixed point, with the angles
    the full 900 steps give."""

    # (seed, trial, first step that changes nothing): margin-0 trials of the
    # benchmark's search streams that settle before step 900, including one
    # that settles at the last step.
    SETTLING = [
        (930484, 3, 448),
        (747427, 19, 468),
        (318258, 16, 571),
        (969973, 11, 827),
        (360461, 13, 899),
    ]

    @pytest.mark.parametrize("seed, trial, fixed", SETTLING)
    def test_settling_trial_stops_at_its_fixed_point(self, seed, trial, fixed):
        start = _search_start(seed, trial)
        expected, first_fixed = reference_descend(start, 0.0)
        assert first_fixed == fixed
        counting = _CountingMath()
        with mock.patch.object(spherical, "math", counting):
            got = spherical._descend(start[:], 0.0)
        assert _bits(got) == _bits(expected)
        assert counting.cos_calls == 12 * (fixed + 1)

    def test_unsettled_trial_runs_every_step(self):
        start = _search_start(747427, 0)
        expected, first_fixed = reference_descend(start, 0.0)
        assert first_fixed is None
        counting = _CountingMath()
        with mock.patch.object(spherical, "math", counting):
            got = spherical._descend(start[:], 0.0)
        assert _bits(got) == _bits(expected)
        assert counting.cos_calls == 12 * 900

    @pytest.mark.parametrize(
        "start",
        [
            [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
            [-0.0, 0.0, math.pi, -math.pi, 5e-324, -5e-324],
            [-0.0, 1e-300, -1e-300, 0.0, 2.0, -2.0],
            [-0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
            [0.0, -0.0, 2 * math.pi / 3, -2 * math.pi / 3, 1e-12, -0.0],
            [-0.0, math.pi / 3, math.pi, -math.pi / 3, 3.0, 4.0],
        ],
    )
    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_signed_zero_starts_match_the_full_run(self, start, margin):
        expected, _ = reference_descend(start, margin)
        assert _bits(spherical._descend(start[:], margin)) == _bits(expected)
