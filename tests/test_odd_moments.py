"""One odd-moment test: ``symfun.odd_moments`` against the three copies it
replaced.

The interval verifiers, ``extend_odd_power_sums`` (hence
``certify_symmetry``) and ``odd_equivalence_check`` each ran their own power
loop and zero test.  The ``parent_*`` functions below are those copies as
they were; every caller of the kernel must give their values and types, or
their error type, message and failing index, on a seeded corpus of exact,
float, forced-approximate rational and mixed inputs, multisets and
weighted supports, m = 0..12, n <= 40, failing sets included.
"""

import random
from dataclasses import fields, is_dataclass
from fractions import Fraction
from operator import mul

import pytest

from tmdesign import (
    Configuration,
    DesignError,
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
    WeightedConfiguration,
    certify_symmetry,
    certify_weighted_symmetry,
    extend_odd_power_sums,
    interval_design,
    odd_equivalence_check,
    symfun,
    verify_interval_design,
    verify_weighted_design,
)
from tmdesign import scalars
from tmdesign.interval_design import DesignReport
from tmdesign.scalars import DEFAULT_TOL, all_exact, clear_denominators, near
from tmdesign.symfun import (
    OddEquivalence,
    _elem_nums,
    _numerators,
    _power_sum_nums,
    elementary_symmetric,
    folded_odd_sums,
    power_scales,
    power_sums,
)

F = Fraction


# ---------------------------------------------------------------------------
# The three copies of the test, as they were
# ---------------------------------------------------------------------------


def parent_odd_moments(xs, ws, m, tol):
    if m < 0:
        raise DomainError("m must be >= 0")
    index_set = tuple(range(1, 2 * m, 2))
    residuals = []
    if all_exact(xs) and all_exact(ws):
        L, a = clear_denominators(xs)
        W, b = clear_denominators(ws)
        den, step = L * W, L * L
        for r in folded_odd_sums(a, b, m):
            residuals.append(Fraction(r, den))
            den *= step
    else:
        powers = list(xs)
        for k in range(1, 2 * m):
            if k > 1:
                powers = list(map(mul, powers, xs))
            if k % 2 == 1:
                residuals.append(sum(map(mul, powers, ws)))
    scale = None if tol is None else power_scales(xs, ws)
    tests = (
        near(r, 0, tol, 1.0 if tol is None else scale(k))
        for k, r in zip(index_set, residuals)
    )
    failing = next((k for k, ok in zip(index_set, tests) if not ok), None)
    return DesignReport(index_set, tuple(residuals), failing is None, tol, failing)


def parent_verify_interval_design(config, m):
    if m > 0 and len(config) == 0:
        raise DomainError("empty configuration")
    return parent_odd_moments(config.points, (1,) * len(config), m, config.near_tol)


def parent_verify_weighted_design(wconfig, m):
    return parent_odd_moments(wconfig.support, wconfig.weights, m, wconfig.near_tol)


def _elem_scale(mags, k):
    # the parent's scale of e_k, one expansion per odd k
    abs_e = elementary_symmetric(mags, k)
    return 1.0 + float(abs_e.e(k))


def parent_odd_equivalence_check(values, m, tol=DEFAULT_TOL):
    vals = tuple(values)
    n = len(vals)
    if 2 * m - 1 > n:
        raise PreconditionError(f"requires 2m-1 <= n; got 2m-1={2 * m - 1} > n={n}")
    exact = all_exact(vals)
    tol = None if exact else tol
    p = power_sums(vals, 2 * m - 1)
    e = elementary_symmetric(vals, 2 * m - 1)
    odd = range(1, 2 * m, 2)
    mags = None if exact else [abs(float(v)) for v in vals]
    p_scale = None if exact else power_scales(mags)
    p_zero = all(near(p.p(k), 0, tol, 1.0 if exact else p_scale(k)) for k in odd)
    e_zero = all(
        near(e.e(k), 0, tol, 1.0 if exact else _elem_scale(mags, k)) for k in odd
    )
    if exact and p_zero != e_zero:
        raise InternalDefectError(
            "odd power sums and odd elementary symmetric values disagree "
            "under exact arithmetic"
        )
    return OddEquivalence(p_zero, e_zero)


def parent_extend_odd_power_sums(values, m, K, tol=DEFAULT_TOL):
    vals = tuple(values)
    n = len(vals)
    if n == 0:
        raise DomainError("empty multiset")
    if K < 1:
        raise DomainError("K must be a positive integer")
    if n > 2 * m:
        raise PreconditionError(f"requires |values| <= 2m; got n={n} > 2m={2 * m}")
    exact = tol is None
    L, nums = _numerators(vals)

    def value(num, k):
        return num if L is None else Fraction(num, L**k)

    if L is None:
        P = _power_sum_nums(nums, max(2 * K - 2, 2 * m - 1, 1))
        odd = P[0 : 2 * m - 1 : 2]
    else:
        odd = folded_odd_sums(nums, [1] * n, m)
        P = _power_sum_nums(nums, 2 * K - 2) if K > m else []
    scale = None if exact else power_scales(vals)
    for k in range(1, m + 1):
        idx = 2 * k - 1
        if exact:
            ok = odd[k - 1] == 0
        else:
            ok = near(value(odd[k - 1], idx), 0, tol, scale(idx))
        if not ok:
            raise HypothesisError(
                f"odd power sum p_{idx} = {value(odd[k - 1], idx)} is nonzero",
                failing_index=idx,
            )
    E = _elem_nums(nums, n) if exact or K > m else []
    if exact:
        for j in range(1, n + 1, 2):
            if E[j] != 0:
                raise InternalDefectError(
                    f"e_{j} nonzero although all odd power sums through "
                    f"{2 * m - 1} vanish"
                )

    def e_at(j):
        return E[j] if j <= n else 0

    out = odd[:K]
    for k in range(m + 1, K + 1):
        acc = 0
        for i in range(1, m + 1):
            acc = acc + e_at(2 * i - 1) * P[2 * (k - i) - 1]
            acc = acc - e_at(2 * i) * out[k - i - 1]
        out.append(acc)
        if exact and acc != 0:
            raise InternalDefectError(f"extended odd power sum p_{2 * k - 1} nonzero")
    return tuple(value(num, 2 * k - 1) for k, num in enumerate(out, 1))


# ---------------------------------------------------------------------------
# Comparison and corpus
# ---------------------------------------------------------------------------


def same(a, b):
    """Equal values of equal types, floats bit for bit, through tuples,
    lists and dataclasses."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def outcome(f, *args):
    """The result, or the raised library error's type, message and index."""
    try:
        return f(*args)
    except DesignError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "failing_index", None)


KINDS = ("exact", "float", "approx", "mixed")


def draw(rng, kind):
    """A value in [-1, 1]: rational for "exact" and "approx" (ints among
    them), float for "float", either for "mixed"."""
    q = rng.choice((1, 2, 3, 7, 64, 10**30))
    x = F(rng.randint(-q, q), q)
    if x.denominator == 1 and rng.random() < 0.5:
        x = int(x)
    if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
        return rng.uniform(-1.0, 1.0)
    return x


def moved(rng, x):
    """x moved towards 0 by a relative 1e-12, well inside the default
    tolerance, or by a random relative amount near 1e-9, where the scale of
    the zero test decides."""
    by = rng.choice((F(1, 10**12), F(rng.randint(1, 30), 10**10)))
    return x * (1 - float(by)) if isinstance(x, float) else x * (1 - by)


def zero(rng, kind):
    return rng.choice({"float": (0.0, -0.0), "mixed": (0, 0.0)}.get(kind, (0, F(0))))


def mode_of(kind):
    return "exact" if kind == "exact" else "approximate"


def multisets():
    """(kind, points): symmetric sets with zeros and repeats, the same with
    one point moved (``moved``) or replaced, and random sets."""
    rng = random.Random(2811)
    for case in range(240):
        kind = KINDS[case % 4]
        n = rng.randint(0, 40) if case % 3 == 0 else rng.randint(1, 24)
        half = [draw(rng, kind) for _ in range(n // 2)]
        if len(half) > 1 and rng.random() < 0.3:
            half[-1] = half[0]
        pts = half + [-x for x in half] + [zero(rng, kind)] * (n % 2)
        shape = case // 4 % 4
        if pts and shape == 1:
            pts[0] = moved(rng, pts[0])
        elif pts and shape == 2:
            pts[rng.randrange(n)] = draw(rng, kind)
        elif shape == 3:
            pts = [draw(rng, kind) for _ in range(n)]
        rng.shuffle(pts)
        yield kind, tuple(pts)


def weight(rng, kind):
    w = F(rng.randint(1, 50), rng.randint(1, 9)) * rng.choice((1, -1))
    if w.denominator == 1 and rng.random() < 0.5:
        w = int(w)
    if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
        return float(w) + rng.uniform(0.0, 0.5)
    return w


def weighted_supports():
    """(kind, support, weights): even weight functions (zero optional), the
    same with one weight raised by half or moved (``moved``), and random
    weights on random supports."""
    rng = random.Random(2812)
    for case in range(160):
        kind = KINDS[case % 4]
        pos = []
        while len(pos) < rng.randint(0, 12):
            x = abs(draw(rng, kind))
            if x and all(abs(x - y) > 1e-6 for y in pos):
                pos.append(x)
        ws = [weight(rng, kind) for _ in pos]
        support = pos + [-x for x in pos]
        weights = ws + ws
        if rng.random() < 0.5:
            support.append(zero(rng, kind))
            weights.append(weight(rng, kind))
        shape = case // 4 % 4
        if weights and shape == 1:
            weights[0] = weights[0] * (1.5 if isinstance(weights[0], float) else F(3, 2))
        elif weights and shape == 2:
            weights[0] = moved(rng, weights[0])
        elif shape == 3:
            weights = [weight(rng, kind) for _ in support]
            halved = [s if rng.random() < 0.5 else s * F(1, 2) for s in support]
            if len(set(map(abs, halved))) == len(set(map(abs, support))):
                support = halved
        order = list(range(len(support)))
        rng.shuffle(order)
        yield kind, tuple(support[i] for i in order), tuple(weights[i] for i in order)


def certify_ms(n):
    """m below, at and above the least m that admits n points, within 0..12."""
    least = (n + 1) // 2
    return sorted({m for m in (least - 1, least, least + 1, 12) if 0 <= m <= 12})


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


class TestKernelCallers:
    def test_interval_reports_and_certificates(self, monkeypatch):
        failing = passing = raised = 0
        cases = []
        for kind, pts in multisets():
            config = Configuration(pts, mode=mode_of(kind))
            for m in range(13):
                got = outcome(verify_interval_design, config, m)
                assert same(got, outcome(parent_verify_interval_design, config, m))
                if isinstance(got, DesignReport):
                    failing += not got.verdict
                    passing += got.verdict
            for m in certify_ms(len(pts)):
                cases.append((config, m, outcome(certify_symmetry, config, m)))
        monkeypatch.setattr(
            interval_design, "extend_odd_power_sums", parent_extend_odd_power_sums
        )
        for config, m, got in cases:
            assert same(got, outcome(certify_symmetry, config, m)), (config, m)
            raised += isinstance(got, tuple) and got[:2] == ("raised", HypothesisError)
        assert failing > 500 and passing > 500 and raised > 50

    def test_weighted_reports_and_certificates(self, monkeypatch):
        failing = passing = 0
        cases = []
        for kind, support, weights in weighted_supports():
            w = WeightedConfiguration(support, weights, mode=mode_of(kind))
            for m in range(13):
                got = outcome(verify_weighted_design, w, m)
                assert same(got, outcome(parent_verify_weighted_design, w, m))
                failing += not got.verdict
                passing += got.verdict
            for m in certify_ms(len(support)):
                cases.append((w, m, outcome(certify_weighted_symmetry, w, m)))
        monkeypatch.setattr(
            interval_design, "verify_weighted_design", parent_verify_weighted_design
        )
        for w, m, got in cases:
            assert same(got, outcome(certify_weighted_symmetry, w, m)), (w, m)
        assert failing > 300 and passing > 300

    def test_extension_below_at_and_above_m(self):
        # Under None, values that are not all exact test their sums for
        # exact zeros and check no identity, which is the parent at
        # tolerance 0; the parent's identity check raised on rounded e's.
        results, mended = set(), 0
        for kind, pts in multisets():
            tols = (None, 1e-9, DEFAULT_TOL)
            for m in certify_ms(len(pts)):
                for K in sorted({max(m - 1, 1), m, m + 3}):
                    for tol in tols:
                        got = outcome(extend_odd_power_sums, pts, m, K, tol)
                        ref_tol = tol
                        if tol is None and not all_exact(pts):
                            ref_tol = 0.0
                            at_none = outcome(parent_extend_odd_power_sums, pts, m, K, tol)
                            mended += at_none[:2] == ("raised", InternalDefectError)
                        ref = outcome(parent_extend_odd_power_sums, pts, m, K, ref_tol)
                        assert same(got, ref)
                        results.add(got[1] if got[0] == "raised" else "values")
        assert {"values", HypothesisError} <= results
        assert InternalDefectError not in results and mended > 0

    def test_odd_equivalence(self):
        seen = set()
        for kind, pts in multisets():
            top = min(12, (len(pts) + 1) // 2 + 1)
            for m in range(top + 1):
                for tol in (DEFAULT_TOL, 1e-9):
                    got = outcome(odd_equivalence_check, pts, m, tol)
                    assert same(got, outcome(parent_odd_equivalence_check, pts, m, tol))
                    seen.add(got if isinstance(got, OddEquivalence) else got[1])
        assert {
            OddEquivalence(True, True),
            OddEquivalence(False, False),
            PreconditionError,
            DomainError,
        } <= seen

    def test_one_home_for_the_scale(self, monkeypatch):
        # the callers test through the kernel: it alone builds power scales
        calls = []

        def spy(*args):
            calls.append(1)
            return power_scales(*args)

        monkeypatch.setattr(symfun, "power_scales", spy)
        pts = (0.5, -0.5, 0.25)
        verify_interval_design(Configuration(pts), 2)
        verify_weighted_design(WeightedConfiguration(pts, (1.0, 1.0, 2.0)), 2)
        extend_odd_power_sums(pts[:2], 2, 3, tol=1e-9)
        odd_equivalence_check(pts, 2)
        assert len(calls) == 4


_BIG = 10**400


class TestPastFloatRange:
    """Exact values too large for a float go through the exact path, which
    converts nothing to a float: ``float`` raises in ``symfun`` and
    ``scalars``."""

    @pytest.fixture(autouse=True)
    def no_float(self, monkeypatch):
        def refuse(x=0.0):
            raise AssertionError(f"float() of {x!r} on the exact path")

        for module in (symfun, scalars):
            monkeypatch.setattr(module, "float", refuse, raising=False)

    def test_odd_equivalence(self):
        r = odd_equivalence_check([_BIG, -_BIG, 0], 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (True, True)
        r = odd_equivalence_check([_BIG, -_BIG, 1], 2)
        assert (r.odd_p_all_zero, r.odd_e_all_zero) == (False, False)

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_extension(self, K):
        # m = 2: K = 1 < m, K = 2 = m, K = 5 > m
        out = extend_odd_power_sums([_BIG, -_BIG, F(1, _BIG), F(-1, _BIG)], 2, K, tol=None)
        assert out == (0,) * K and all(type(p) is F for p in out)

    def test_failing_extension(self):
        with pytest.raises(HypothesisError) as exc:
            extend_odd_power_sums([_BIG, -_BIG, 1], 2, 5, tol=None)
        assert exc.value.failing_index == 1
        assert str(exc.value) == "odd power sum p_1 = 1 is nonzero"
