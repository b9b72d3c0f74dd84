"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, none deferred.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from tmdesign import (
    Configuration,
    PreconditionError,
    SphericalConfig,
    WeightedConfiguration,
    binom_alternating_sum,
    binomial_weighted_design,
    certify_antipodal,
    certify_symmetry,
    certify_weighted_symmetry,
    chebyshev_gauss_check,
    elementary_symmetric,
    embed,
    is_antipodal,
    is_symmetric,
    newton_e_from_p,
    newton_p_from_e,
    pad_with_antipodal_pairs_spherical,
    perturbed_interval_design,
    polygon_on_circle,
    polygon_weighted_design,
    power_sums,
    six_point_search,
    verify_interval_design,
    verify_spherical_Tm,
    verify_weighted_design,
)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} [{desc}]: FAIL")
                raise
            print(f"criterion {num:02d} [{desc}]: PASS")

        return inner

    return wrap


@criterion(1, "alternating binomial sum matches its closed form, n <= 50")
def test_c01_binomial_identity():
    t0 = time.time()
    for n in range(1, 51):
        for s in range(n):
            value = binom_alternating_sum(n, s)
            expected = -math.comb(2 * n - 1, n - 1) if s == 0 else 0
            assert value == expected
    assert time.time() - t0 < 5.0


@criterion(2, "binomial weighted designs exact through n=40, sharp at 2n-1")
def test_c02_binomial_designs():
    t0 = time.time()
    for n in range(1, 41):
        design = binomial_weighted_design(n)
        assert len(design.support) == n
        report = verify_weighted_design(design, n - 1)
        assert report.verdict and report.tolerance is None
        assert all(r == 0 for r in report.residuals)
        sharp = verify_weighted_design(design, n)
        assert not sharp.verdict
        assert sharp.residuals[n - 1] != 0
    assert time.time() - t0 < 10.0


@criterion(3, "perturbed designs m <= 10: exact zero certificates, 2m+1 points")
def test_c03_perturbed_designs():
    t0 = time.time()
    for m in range(1, 11):
        result = perturbed_interval_design(m)
        pts = result.points.points
        assert len(pts) == 2 * m + 1
        assert len(result.certificate) == m
        assert all(r == 0 and isinstance(r, F) for r in result.certificate)
        assert F(1) in pts
        assert F(-1) not in pts
        floats = [float(x) for x in pts]
        for k in range(1, m + 1):
            assert abs(sum(x ** (2 * k - 1) for x in floats)) <= 1e-10
    assert time.time() - t0 < 60.0


@criterion(4, "polygon cosine designs: residuals <= 1e-12 through n=20")
def test_c04_polygon_designs():
    for n in range(1, 21):
        design = polygon_weighted_design(n)
        report = verify_weighted_design(design, n - 1)
        assert report.verdict
        assert all(abs(float(r)) <= 1e-12 for r in report.residuals)


@criterion(5, "500 symmetric multisets certified, 500 asymmetric all fail")
def test_c05_multiset_symmetry_suite():
    rng = random.Random(50321)
    for _ in range(500):
        m = rng.randint(1, 6)
        pairs = rng.randint(0, m)
        zeros = rng.randint(0 if pairs else 1, 2 * (m - pairs))
        pts = []
        for _ in range(pairs):
            a = F(rng.randint(1, 64), 64)
            pts += [a, -a]
        pts += [F(0)] * zeros
        rng.shuffle(pts)
        config = Configuration(tuple(pts))
        cert = certify_symmetry(config, m)
        assert cert.check_multiset(config.points)
        ok, _ = is_symmetric(config)
        assert ok
    produced = 0
    while produced < 500:
        m = rng.randint(1, 6)
        n = rng.randint(1, 2 * m)
        pts = tuple(F(rng.randint(-64, 64), 64) for _ in range(n))
        config = Configuration(pts)
        if is_symmetric(config)[0]:
            continue
        assert not verify_interval_design(config, m).verdict
        produced += 1


@criterion(6, "weighted suite: even functions certified, sharp 2-point example")
def test_c06_weighted_symmetry_suite():
    rng = random.Random(60631)
    for _ in range(500):
        m = rng.randint(2, 6)
        npairs = rng.randint(1, m // 2)
        support, weights = [], []
        for mag in rng.sample(range(1, 65), npairs):
            a = F(mag, 64)
            w = F(rng.randint(1, 20), rng.randint(1, 4))
            support += [a, -a]
            weights += [w, w]
        if rng.random() < 0.25:
            support.append(F(0))
            weights.append(F(rng.randint(1, 7)))
        wconfig = WeightedConfiguration(tuple(support), tuple(weights))
        cert = certify_weighted_symmetry(wconfig, m)
        assert cert.check_weighted(wconfig.support, wconfig.weights)
    produced = 0
    while produced < 500:
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        support = tuple(rng.sample([F(k, 32) for k in range(-32, 33)], n))
        weights = tuple(F(rng.choice([w for w in range(-9, 10) if w])) for _ in range(n))
        wconfig = WeightedConfiguration(support, weights)
        if is_symmetric(wconfig)[0]:
            continue
        assert not verify_weighted_design(wconfig, m).verdict
        produced += 1
    sharp = WeightedConfiguration((F(2, 3), F(-1, 3)), (2, 4))
    assert verify_weighted_design(sharp, 1).verdict
    report = verify_weighted_design(sharp, 2)
    assert not report.verdict
    assert report.residuals[1] == F(12, 27)


def _random_rotation(rng, d):
    gauss = np.array([[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)])
    q, r = np.linalg.qr(gauss)
    return q @ np.diag(np.sign(np.diag(r)))


def _random_antipodal(rng, d, npairs):
    rot = _random_rotation(rng, d)
    pts = []
    for _ in range(npairs):
        v = np.array([rng.gauss(0, 1) for _ in range(d)])
        v /= np.linalg.norm(v)
        w = rot @ v
        pts.append(tuple(float(c) for c in w))
        pts.append(tuple(-float(c) for c in w))
    rng.shuffle(pts)
    return SphericalConfig(tuple(pts))


@criterion(7, "100 antipodal configs certified; pentagon rejected at n=2m+1")
def test_c07_antipodal_certification():
    rng = random.Random(70111)
    for _ in range(100):
        d = rng.randint(2, 4)
        m = rng.randint(1, 4)
        config = _random_antipodal(rng, d, rng.randint(1, m))
        cert = certify_antipodal(config, m)
        assert cert.check(config)
    pentagon = polygon_on_circle(2)
    assert verify_spherical_Tm(pentagon, 2).verdict
    try:
        certify_antipodal(pentagon, 2)
        assert False, "pentagon must be rejected on the size precondition"
    except PreconditionError:
        pass
    assert not is_antipodal(pentagon)[0]


@criterion(8, "pair-sum verdict equals moment-probe verdict on 200 configs")
def test_c08_route_agreement():
    rng = random.Random(80222)
    for trial in range(200):
        d = rng.randint(2, 4)
        m = rng.randint(1, 3)
        if trial % 4 == 0:
            config = _random_antipodal(rng, d, rng.randint(1, 3))
        elif trial % 4 == 1 and d == 2:
            config = polygon_on_circle(rng.randint(1, 3), rotation=rng.random())
        else:
            pts = []
            for _ in range(rng.randint(1, 8)):
                v = np.array([rng.gauss(0, 1) for _ in range(d)])
                v /= np.linalg.norm(v)
                pts.append(tuple(float(c) for c in v))
            config = SphericalConfig(tuple(pts))
        report = verify_spherical_Tm(config, m)
        assert report.gegenbauer_verdict == report.moment_verdict


@criterion(9, "pentagon embeds to d=3,4,5; plus one pair stays non-antipodal")
def test_c09_embedding_and_padding():
    pentagon = polygon_on_circle(2)
    for d in (3, 4, 5):
        assert verify_spherical_Tm(embed(pentagon, d), 2).verdict
    padded = pad_with_antipodal_pairs_spherical(
        pentagon, [(math.cos(0.9), math.sin(0.9))]
    )
    assert len(padded) == 7
    assert verify_spherical_Tm(padded, 2).verdict
    assert not is_antipodal(padded)[0]


@criterion(10, "six-point search: margin blocks residual 1e-9, margin 0 attains it")
def test_c10_six_point_search():
    t0 = time.time()
    report = six_point_search(trials=200, seed=7, margin=0.1)
    again = six_point_search(trials=200, seed=7, margin=0.1)
    assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
        again.to_json(), sort_keys=True
    )
    assert report.best.residual > 1e-9
    assert not report.found_below_tolerance
    assert report.best.min_pair_distance >= 0.1 - 1e-9
    free = six_point_search(trials=20, seed=7, margin=0.0)
    assert free.best.residual <= 1e-9
    assert free.found_below_tolerance
    assert time.time() - t0 < 60.0


@criterion(11, "Newton p/e round trips exact on 1000 rational multisets")
def test_c11_newton_round_trips():
    rng = random.Random(110733)
    for _ in range(1000):
        n = rng.randint(1, 12)
        xs = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        p = power_sums(xs, n)
        e = elementary_symmetric(xs, n)
        assert newton_e_from_p(p, n).entries == e.entries
        assert newton_p_from_e(e, n, 2 * n).entries == power_sums(xs, 2 * n).entries


@criterion(12, "arcsine quadrature: odd moments exact, evens within 1e-12")
def test_c12_chebyshev_gauss():
    for n in range(1, 11):
        report = chebyshev_gauss_check(n, 2 * n - 1)
        assert report.verdict
        for entry in report.entries:
            if entry.s % 2 == 1:
                assert entry.node_mean == 0.0
            else:
                assert entry.error <= 1e-12
    flagged = chebyshev_gauss_check(2, 3)
    assert abs(flagged.variant_degree_one_mean - (-0.5)) < 1e-15
    assert not flagged.variant_degree_one_ok
