"""``is_symmetric`` and the duplicate-support check against the rules they
replaced.

``is_symmetric`` pairs the k-th smallest value with the k-th largest for
multisets and weighted supports alike.  It is checked here against the two
earlier oracles: a sorted pairing for multisets, and a greedy
nearest-partner scan for weighted supports.  They agree everywhere except on
float supports in the ambiguous band, where two support points lie within
3 tol of each other, and on float multisets with two points near 0 that are
not near negations of each other, which the sorted oracle paired and the
certifier fixes.  In the band the greedy scan can take the wrong
near-partner first, or fix a point near 0 whose partner then has none.  The
float duplicate check, which sorts and tests neighbours, is checked against
the all-pairs rule.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from tmdesign import (
    Configuration,
    DomainError,
    SymmetryCertificate,
    ToleranceError,
    WeightedConfiguration,
    certify_symmetry,
    is_symmetric,
)
from tmdesign.interval_design import pair_negations
from tmdesign.scalars import format_scalar, near
from tmdesign.symfun import ElemSymVector, PowerSumVector


def _sorted_pairs(pairs):
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


def _ref_same_weight(u, w, tol):
    return u == w if tol is None else near(u, w, tol, 1 + abs(float(u)))


def ref_multiset(pts, tol):
    """The earlier multiset oracle: sorted ends paired inward."""
    key = (lambda i: (pts[i], i)) if tol is None else (lambda i: (float(pts[i]), i))
    order = sorted(range(len(pts)), key=key)
    lo, hi = 0, len(pts) - 1
    pairs, fixed = [], []
    while lo <= hi:
        if lo == hi:
            i = order[lo]
            if not near(pts[i], 0, tol):
                return False, None
            fixed.append(i)
            break
        i, j = order[lo], order[hi]
        if not near(pts[i], -pts[j], tol):
            return False, None
        if near(pts[i], 0, tol) and near(pts[j], 0, tol):
            fixed.extend([i, j])
        else:
            pairs.append((i, j))
        lo += 1
        hi -= 1
    return True, SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))


def two_near_zero_apart(pts, tol):
    """Two points within tol of 0 that are not near negations of each other:
    ``ref_multiset`` pairs them, where the certifier fixes both."""
    zs = [x for x in pts if near(x, 0, tol)]
    return any(not near(a, -b, tol) for a, b in combinations(zs, 2))


def certifier_accepts(pts, tol):
    """Whether ``check_multiset`` accepts the pairing ``pair_negations`` gives."""
    try:
        return pair_negations(pts, tol).check_multiset(pts, tol)
    except ToleranceError:
        return False


def ref_weighted(xs, ws, tol):
    """The earlier weighted oracle: in input order, a point near 0 is fixed
    and any other takes its nearest free partner."""
    n = len(xs)
    used = [False] * n
    pairs, fixed = [], []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        if near(xs[i], 0, tol):
            fixed.append(i)
            continue
        free = [j for j in range(n) if not used[j]]
        if tol is None:
            j = next((j for j in free if xs[j] == -xs[i]), None)
        else:
            j = min(free, key=lambda j: abs(float(xs[i]) + float(xs[j])), default=None)
        if (
            j is None
            or not near(xs[i], -xs[j], tol)
            or not _ref_same_weight(ws[i], ws[j], tol)
        ):
            return False, None
        used[j] = True
        pairs.append((i, j))
    return True, SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))


def in_band(xs, tol):
    """Two support points within 3 tol: only there can a pairing within tol
    compete with another, or a point near 0 have a partner."""
    if tol is None:
        return False
    v = sorted(float(x) for x in xs)
    return any(b - a <= 3 * tol for a, b in zip(v, v[1:]))


def corpus(seed, count):
    """(points, weights or None, tol) for seeded symmetric sets, some broken.

    Exact sets are on a grid of eighths.  Float sets jitter points by up to
    1.2 tol, add points within 2 tol of 0 and crowd points within 3 tol of
    another, and move pair weights apart by up to 2 tol (relative).
    Positions are shuffled.  Weighted sets rejected as duplicate support
    are not yielded.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        exact = rng.random() < 0.3
        weighted = rng.random() < 0.6
        tol = None if exact else rng.choice((1e-10, 1e-6))
        pts, wts = [], []
        for _ in range(rng.randint(0, 4)):
            a = F(rng.randint(1, 8), 8)
            w = F(rng.randint(1, 4), rng.randint(1, 2))
            pts += [a, -a]
            wts += [w, w]
        for _ in range(rng.choice((0, 0, 1, 2))):
            pts.append(F(0))
            wts.append(F(rng.randint(1, 4)))
        if rng.random() < 0.25:  # break the symmetry
            k = rng.randrange(len(pts) + 1)
            if k == len(pts):
                pts.append(F(rng.randint(-8, 8), 8))
                wts.append(F(rng.randint(1, 4)))
            elif weighted and rng.random() < 0.5:
                wts[k] += 1
            else:
                pts[k] = F(rng.randint(-8, 8), 8)
        if not exact:
            pts, wts = [float(x) for x in pts], [float(w) for w in wts]
            for k in range(len(pts)):
                r = rng.random()
                if r < 0.4:
                    pts[k] += rng.uniform(-1.2, 1.2) * tol
                elif r < 0.5:
                    pts[k] = rng.uniform(-2, 2) * tol
                if rng.random() < 0.2:
                    wts[k] *= 1 + rng.uniform(-2, 2) * tol
            for _ in range(rng.choice((0, 0, 1, 2))):
                if pts:
                    k = rng.randrange(len(pts))
                    pts.append(pts[k] + rng.choice((-1, 1)) * rng.uniform(1, 3) * tol)
                    wts.append(wts[k])
            pts = [max(-1.0, min(1.0, x)) for x in pts]
        if not pts:
            continue
        order = list(range(len(pts)))
        rng.shuffle(order)
        pts, wts = tuple(pts[k] for k in order), tuple(wts[k] for k in order)
        if weighted:
            if rng.random() < 0.4:
                wts = (1,) * len(pts)
            try:
                WeightedConfiguration(pts, wts, **_settings(tol))
            except DomainError:
                continue
        made += 1
        yield pts, (wts if weighted else None), tol


def _settings(tol):
    if tol is None:
        return {"mode": "exact"}
    return {"tolerance": tol, "mode": "approximate"}


CORPUS = list(corpus(2024, 40_000))


class TestCorpus:
    def test_corpus_covers_every_kind(self):
        kinds = {(w is not None, tol is None) for pts, w, tol in CORPUS}
        assert kinds == {(a, b) for a in (False, True) for b in (False, True)}
        band = [c for c in CORPUS if c[1] is not None and in_band(c[0], c[2])]
        assert len(band) > 500
        symmetric = [is_symmetric(WeightedConfiguration(*c))[0] for c in band]
        assert sum(symmetric) > 100

    def test_multisets_match_the_sorted_oracle(self):
        carved = 0
        for pts, wts, tol in CORPUS:
            if wts is None:
                config = Configuration(pts, **_settings(tol))
                if two_near_zero_apart(pts, tol):  # the old rule paired them
                    ok, cert = is_symmetric(config)
                    assert ok == certifier_accepts(pts, tol)
                    assert not ok or cert.check_multiset(pts, tol)
                    carved += 1
                else:
                    assert is_symmetric(config) == ref_multiset(pts, tol)
        assert carved > 0

    def test_supports_match_the_greedy_oracle_outside_the_band(self):
        for pts, wts, tol in CORPUS:
            if wts is not None and not in_band(pts, tol):
                w = WeightedConfiguration(pts, wts, **_settings(tol))
                assert is_symmetric(w) == ref_weighted(pts, wts, tol)

    def test_supports_in_the_band_are_certified_and_match_the_multiset(self):
        for pts, wts, tol in CORPUS:
            if wts is None or not in_band(pts, tol):
                continue
            ok, cert = is_symmetric(WeightedConfiguration(pts, wts, tolerance=tol))
            assert (cert is not None) == ok
            if ok:
                assert cert.check_weighted(pts, wts, tol)
            assert ok or not ref_weighted(pts, wts, tol)[0]
            as_multiset = ref_multiset(pts, tol)
            if set(wts) == {1}:
                assert (ok, cert) == as_multiset
            elif ok:
                assert as_multiset[0]

    def test_unit_weights_give_the_multiset_answer(self):
        for pts, wts, tol in CORPUS:
            ones = (1,) * len(pts)
            try:
                w = WeightedConfiguration(pts, ones, **_settings(tol))
            except DomainError:
                continue
            assert is_symmetric(w) == is_symmetric(Configuration(pts, **_settings(tol)))


class TestAmbiguousBand:
    """Float supports that the greedy scan refused."""

    @pytest.mark.parametrize(
        "pts, pairs",
        [
            # (0, 2) and (1, 3) lie within tol; the scan took 1 for 0 first
            ((-0.5, 0.5 + 6e-11, 0.5 - 6e-11, -0.5 - 1.5e-10), ((0, 2), (1, 3))),
            # the scan fixed -6e-11 and left 1.5e-10 without a partner
            ((-6e-11, 1.5e-10, 0.5, -0.5), ((0, 1), (2, 3))),
        ],
    )
    def test_unit_weight_support_is_symmetric_as_its_multiset(self, pts, pairs):
        w = WeightedConfiguration(pts, (1,) * 4, tolerance=1e-10)
        ok, cert = is_symmetric(w)
        assert ok and cert.pairs == pairs and cert.fixed == ()
        assert cert.check_weighted(pts, w.weights, 1e-10)
        assert (ok, cert) == is_symmetric(Configuration(pts, tolerance=1e-10))
        assert not ref_weighted(pts, w.weights, 1e-10)[0]

    def test_two_ends_near_zero_are_fixed_whatever_their_weights(self):
        w = WeightedConfiguration(
            (0.5, 8e-11, -0.5, -7e-11), (2.0, 1.0, 2.0, 3.0), tolerance=1e-10
        )
        assert is_symmetric(w) == (True, SymmetryCertificate(((0, 2),), (1, 3)))


class TestNearZeroEnds:
    def test_two_same_sign_points_near_zero_are_fixed(self):
        # neither near negations of each other nor of anything else: the
        # certifier fixes each one, and so does the oracle
        pts = (
            -0.25000000002787737,
            0.24999999996947922,
            9.776504082341286e-11,
            2.1607518184905184e-11,
        )
        config = Configuration(pts, tolerance=1e-10)
        cert = certify_symmetry(config, 2)
        assert (cert.pairs, cert.fixed) == (((0, 1),), (2, 3))
        assert cert.check_multiset(pts, 1e-10)
        assert is_symmetric(config) == (True, cert)


class TestCheckWeightedOrientation:
    def test_scale_comes_from_the_earlier_position(self):
        # |1 - (1 + 2^-19)| = 2^-19 exceeds tol * 2 = nextafter(2^-19, 0)
        # but not tol * (2 + 2^-19): only the earlier weight's scale refuses
        tol = math.nextafter(2**-20, 0)
        support, weights = (0.5, -0.5), (1.0, 1.0 + 2**-19)
        for pairs in (((0, 1),), ((1, 0),)):
            assert not SymmetryCertificate(pairs).check_weighted(support, weights, tol)
        w = WeightedConfiguration(support, weights, tolerance=tol)
        assert is_symmetric(w) == (False, None)


class TestVectorExactness:
    def test_exact_is_read_from_the_entries(self):
        assert not PowerSumVector((0.5, 0.25)).exact
        assert not ElemSymVector((1, 0.5)).exact
        assert PowerSumVector((F(1, 2), 0)).exact
        assert ElemSymVector((1, F(1, 2))).exact

    def test_exact_is_not_a_field(self):
        with pytest.raises(TypeError):
            PowerSumVector((0.5,), exact=True)


def ref_duplicate(xs, tol):
    """The all-pairs rule: the first point with a later near point."""
    for i, xi in enumerate(xs):
        if any(near(xi, xj, tol) for xj in xs[i + 1 :]):
            return f"duplicate support point {format_scalar(xi)}"
    return None


def duplicate_message(xs, tol):
    try:
        WeightedConfiguration(xs, (1,) * len(xs), tolerance=tol, mode="approximate")
    except DomainError as exc:
        return str(exc)
    return None


class TestDuplicateSupport:
    def test_neighbours_name_the_point_the_all_pairs_rule_names(self):
        rng = random.Random(77)
        found = 0
        for _ in range(20_000):
            tol = rng.choice((1e-10, 1e-6, 0.01))
            grid = [F(k, 8) for k in range(-7, 8)]
            xs = []
            for _ in range(rng.randint(1, 12)):
                x = rng.choice(grid)
                if rng.random() < 0.7:
                    x = float(x) + rng.uniform(-1.5, 1.5) * tol
                xs.append(x)
            want = ref_duplicate(xs, tol)
            assert duplicate_message(xs, tol) == want
            found += want is not None
        assert 5_000 < found < 18_000
