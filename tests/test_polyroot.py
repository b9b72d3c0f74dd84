import bisect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdesign import (
    DomainError,
    IsolatingInterval,
    NotSquarefreeError,
    RationalPolynomial,
    cauchy_root_bound,
    evaluate,
    isolate_in_brackets,
    isolate_real_roots,
    monic_from_roots,
    power_sums,
    power_sums_from_coeffs,
    refine_root,
    sturm_root_count,
)
from tmdesign import polyroot

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestMonicFromRoots:
    def test_quartic_with_symmetric_roots(self):
        # oracle: (T^2 - 1/16)(T^2 - 9/16) = T^4 - 5/8 T^2 + 9/256
        poly = monic_from_roots([F(1, 4), F(-1, 4), F(3, 4), F(-3, 4)])
        assert poly.coeffs == (F(9, 256), 0, F(-5, 8), 0, 1)

    def test_symmetric_pair(self):
        assert monic_from_roots([F(1, 2), F(-1, 2)]).coeffs == (F(-1, 4), 0, 1)

    def test_single_zero_root(self):
        assert monic_from_roots([F(0)]).coeffs == (0, 1)


class TestEvaluate:
    def test_at_root(self):
        assert evaluate(monic_from_roots([F(1, 2), F(-1, 2)]), F(1, 2)) == 0

    def test_constant_term(self):
        poly = monic_from_roots([F(1, 4), F(-1, 4), F(3, 4), F(-3, 4)])
        assert evaluate(poly, 0) == F(9, 256)

    def test_perturbed_quadratic_root(self):
        # x^2 - 1/4 + 3/16 = x^2 - 1/16 vanishes at 1/4
        g = monic_from_roots([F(1, 2), F(-1, 2)]).plus_constant(F(3, 16))
        assert evaluate(g, F(1, 4)) == 0


class TestSturmRootCount:
    def test_sqrt_two_in_window(self):
        poly = RationalPolynomial.from_coeffs([-2, 0, 1])
        assert sturm_root_count(poly, 0, 2) == 1

    def test_no_real_roots(self):
        poly = RationalPolynomial.from_coeffs([1, 0, 1])
        assert sturm_root_count(poly, -10, 10) == 0

    def test_perturbed_quartic_in_half_window(self):
        # g = T^4 - 5/8 T^2 + 9/256 + 1/1024.  Solving the quadratic in T^2
        # exactly: T^2 = (5/8 +- sqrt(63/256))/2, so |T| is about 0.7487 and
        # 0.2539; only the smaller pair lies inside (-1/2, 1/2].
        g = RationalPolynomial.from_coeffs(
            [F(9, 256) + F(1, 1024), 0, F(-5, 8), 0, 1]
        )
        s = math.sqrt(63) / 16  # sqrt of the discriminant 25/64 - 148/1024
        lo = math.sqrt((0.625 - s) / 2)
        hi = math.sqrt((0.625 + s) / 2)
        assert lo < 0.5 < hi < 0.75  # confirms the frozen count below
        assert sturm_root_count(g, F(-1, 2), F(1, 2)) == 2
        assert sturm_root_count(g, F(-3, 4), F(3, 4)) == 4

    def test_half_open_convention(self):
        poly = monic_from_roots([F(1, 2), F(-1, 2)])
        assert sturm_root_count(poly, 0, F(1, 2)) == 1
        assert sturm_root_count(poly, F(1, 2), 1) == 0

    def test_repeated_roots_rejected(self):
        poly = monic_from_roots([F(1, 3), F(1, 3)])
        with pytest.raises(NotSquarefreeError, match="squarefree"):
            sturm_root_count(poly, -1, 1)

    def test_bad_interval_rejected(self):
        poly = RationalPolynomial.from_coeffs([-2, 0, 1])
        with pytest.raises(DomainError):
            sturm_root_count(poly, 2, 0)


class TestIsolateRealRoots:
    def test_symmetric_pair(self):
        poly = monic_from_roots([F(1, 2), F(-1, 2)])
        ivs = isolate_real_roots(poly)
        assert len(ivs) == 2
        assert ivs[0].lo < F(-1, 2) <= ivs[0].hi
        assert ivs[1].lo < F(1, 2) <= ivs[1].hi

    def test_nonzero_constant_has_no_roots(self):
        assert isolate_real_roots(RationalPolynomial.from_coeffs([F(3, 2)])) == []

    def test_single_zero(self):
        ivs = isolate_real_roots(RationalPolynomial.from_coeffs([0, 1]))
        assert len(ivs) == 1
        assert ivs[0].lo < 0 <= ivs[0].hi

    def test_known_quartic(self):
        poly = monic_from_roots([F(1, 4), F(-1, 4), F(3, 4), F(-3, 4)])
        ivs = isolate_real_roots(poly)
        assert len(ivs) == 4
        for iv, root in zip(ivs, [F(-3, 4), F(-1, 4), F(1, 4), F(3, 4)]):
            assert iv.lo < root <= iv.hi

    def test_against_numpy_companion_roots(self):
        rng = random.Random(7)
        for _ in range(40):
            roots = sorted(
                {F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))}
            )
            poly = monic_from_roots(roots)
            ivs = isolate_real_roots(poly)
            assert len(ivs) == len(roots)
            np_roots = np.sort(
                np.roots([float(c) for c in reversed(poly.coeffs)]).real
            )
            for iv, r, nr in zip(ivs, roots, np_roots):
                assert iv.lo < r <= iv.hi
                assert abs(float(r) - nr) < 1e-6


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_with_known_roots(rng):
    """A squarefree polynomial and its real roots in ascending order: rational
    roots on a grid of eighths, an irrational pair +-sqrt(c) and a complex
    pair, each factor present or not."""
    roots = sorted({F(rng.randint(-40, 40), 8) for _ in range(rng.randint(0, 7))})
    coeffs = [F(1)]
    for r in roots:
        coeffs = _times(coeffs, [-r, F(1)])
    real = [float(r) for r in roots]
    if rng.random() < 0.5:
        c = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        if all(abs(abs(x) - math.sqrt(c)) > 1e-3 for x in real):
            coeffs = _times(coeffs, [F(-c), F(0), F(1)])
            real += [-math.sqrt(c), math.sqrt(c)]
    if rng.random() < 0.5:
        coeffs = _times(coeffs, [F(rng.randint(1, 9), rng.randint(1, 4)), F(0), F(1)])
    return RationalPolynomial.from_coeffs(coeffs), sorted(real)


def _brackets(real):
    """One bracket per root: the ends are the midpoints between neighbours
    and one unit past the outer roots."""
    ends = [F(real[0] - 1)] if real else []
    ends += [F((a + b) / 2) for a, b in zip(real, real[1:])]
    ends += [F(real[-1] + 1)] if real else []
    return [IsolatingInterval(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _reference_isolation(poly):
    """The split tree with both ends of every interval counted by the Sturm
    chain, as ``isolate_real_roots`` walked it before it carried its counts
    (reference copy)."""
    chain = polyroot._SturmChain(poly)
    if poly.degree == 0:
        return []
    c = chain.chain[0]
    bound = cauchy_root_bound(poly)
    stack = [(-bound, bound, chain.count(-bound, bound))]
    out = []
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(IsolatingInterval(lo, hi))
            continue
        for j in range(len(c) + 1):
            mid = lo + (hi - lo) * F(64 + (j + 1) // 2 * (1 if j % 2 else -1), 128)
            if polyroot._eval_sign(c, mid) != 0:
                break
        left = chain.count(lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    return sorted(out, key=lambda iv: iv.lo)


class TestIsolateInBrackets:
    def test_same_intervals_as_the_sturm_walk(self):
        rng = random.Random(2024)
        for _ in range(60):
            poly, real = _poly_with_known_roots(rng)
            if poly.degree == 0:
                continue
            expected = _reference_isolation(poly)
            assert isolate_real_roots(poly) == expected
            assert isolate_in_brackets(poly, _brackets(real)) == expected

    def test_perturbed_sextic(self):
        # the pinned m = 3 case of ``TestBisectionPinned``, from the roots of
        # f and the critical points between them
        g = RationalPolynomial.from_coeffs(
            [F(-19, 20736), 0, F(259, 1296), 0, F(-35, 36), 0, 1]
        )
        ends = [F(-5, 6), F(-2, 3), F(-1, 2), F(0), F(1, 2), F(2, 3), F(5, 6)]
        ivs = isolate_in_brackets(
            g, [IsolatingInterval(a, b) for a, b in zip(ends, ends[1:])]
        )
        assert ivs == isolate_real_roots(g)

    def test_no_brackets_no_roots(self):
        assert isolate_in_brackets(RationalPolynomial.from_coeffs([1, 0, 1]), []) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            isolate_in_brackets(RationalPolynomial.from_coeffs([]), [])

    def test_overlapping_brackets_rejected(self):
        poly = monic_from_roots([F(-1), F(1)])
        brackets = [IsolatingInterval(F(-2), F(1, 2)), IsolatingInterval(F(0), F(2))]
        with pytest.raises(DomainError, match="disjoint"):
            isolate_in_brackets(poly, brackets)

    @pytest.mark.parametrize("hi", [F(-1, 2), F(1)])
    def test_bracket_without_sign_change_rejected(self, hi):
        # no sign change on (-2, -1/2], and a root at the end 1 of (0, 1]
        poly = monic_from_roots([F(-1), F(1)])
        brackets = [IsolatingInterval(F(-2), hi), IsolatingInterval(F(0), F(1))]
        with pytest.raises(DomainError, match="sign change"):
            isolate_in_brackets(poly, brackets[:1] if hi == F(1) else brackets)


# ---------------------------------------------------------------------------
# Pinned: the integer split tree against the Fraction tree it replaced
# ---------------------------------------------------------------------------


def ref_split_point(c, lo, hi):
    width = hi - lo
    for j in range(len(c) + 1):
        k = 64 + (j + 1) // 2 * (1 if j % 2 else -1)
        mid = lo + width * F(k, 128)
        sign = polyroot._eval_sign(c, mid)
        if sign != 0:
            return mid, sign
    raise AssertionError("no non-root split point")


def ref_split_tree(poly, rank):
    """The split tree on Fraction points, both halves walked (reference copy)."""
    c = poly._ints
    bound = cauchy_root_bound(poly)
    lo, hi = -bound, bound
    stack = [(lo, hi, rank(lo, polyroot._eval_sign(c, lo)), rank(hi, polyroot._eval_sign(c, hi)))]
    out = []
    while stack:
        lo, hi, rlo, rhi = stack.pop()
        cnt = rhi - rlo
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(IsolatingInterval(lo, hi))
            continue
        mid, sign = ref_split_point(c, lo, hi)
        rmid = rank(mid, sign)
        stack.append((lo, mid, rlo, rmid))
        stack.append((mid, hi, rmid, rhi))
    return sorted(out, key=lambda iv: iv.lo)


def ref_isolate_real_roots(poly):
    """The Sturm counter on Fraction points (reference copy)."""
    chain = polyroot._SturmChain(poly)
    if poly.degree == 0:
        return []

    def rank(t, s):
        signs = [v for v in (polyroot._eval_sign(c, t) for c in chain.chain) if v]
        return -sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    return ref_split_tree(poly, rank)


def ref_isolate_in_brackets(poly, brackets):
    """The bracket counter on Fraction points (reference copy)."""
    c = poly._ints
    his = [iv.hi for iv in brackets]
    los = [iv.lo for iv in brackets]
    left_signs = [polyroot._eval_sign(c, x) for x in los]

    def rank(t, s):
        i = bisect.bisect_right(his, t)
        if i < len(los) and los[i] < t and s != left_signs[i]:
            i += 1
        return i

    return ref_split_tree(poly, rank)


def _even_poly_with_known_roots(rng):
    """A squarefree even polynomial and its real roots, ascending: pairs
    +-r on a grid of eighths, maybe 0, an irrational pair and a complex
    pair, each present or not."""
    pos = sorted({F(rng.randint(1, 40), 8) for _ in range(rng.randint(0, 5))})
    coeffs = [F(1)]
    for r in pos:
        coeffs = _times(coeffs, [-r * r, F(0), F(1)])
    real = [float(r) for r in pos]
    if rng.random() < 0.3:
        coeffs = _times(coeffs, [F(0), F(1)])
        real.append(0.0)
    if rng.random() < 0.5:
        c = rng.choice([2, 3, 5, 7, 11, 13])
        if all(abs(x - math.sqrt(c)) > 1e-3 for x in real):
            coeffs = _times(coeffs, [F(-c), F(0), F(1)])
            real.append(math.sqrt(c))
    if rng.random() < 0.5:
        coeffs = _times(coeffs, [F(rng.randint(1, 9), rng.randint(1, 4)), F(0), F(1)])
    real = sorted({-x for x in real} | set(real))
    return RationalPolynomial.from_coeffs(coeffs), real


class TestSplitTreePinned:
    """The split tree on integer points gives the intervals of the Fraction
    tree with both counters; an even polynomial is split on both sides of 0,
    and its intervals mirror each other where every split took the middle."""

    @pytest.mark.parametrize("make", [_poly_with_known_roots, _even_poly_with_known_roots])
    def test_random_squarefree_polynomials(self, make):
        rng = random.Random(4711)
        for _ in range(80):
            poly, real = make(rng)
            if poly.degree == 0:
                continue
            assert isolate_real_roots(poly) == ref_isolate_real_roots(poly)
            if real:
                brackets = _brackets(real)
                expected = ref_isolate_in_brackets(poly, brackets)
                assert isolate_in_brackets(poly, brackets) == expected

    def _splits(self, monkeypatch):
        points = []
        split_point = polyroot._split_point

        def recorded(c, N, D, lo, hi):
            out = split_point(c, N, D, lo, hi)
            points.append(F(N * out[0][0], D << out[0][1]))
            return out

        monkeypatch.setattr(polyroot, "_split_point", recorded)
        return points

    def test_middle_splits_mirror_the_left_half(self, monkeypatch):
        # roots +-1/2, +-3/2 and Cauchy bound 1 + 5/2: every split takes the
        # middle, so the two halves split at negated points
        poly = monic_from_roots([F(-3, 2), F(-1, 2), F(1, 2), F(3, 2)])
        points = self._splits(monkeypatch)
        ivs = isolate_real_roots(poly)
        assert ivs == ref_isolate_real_roots(poly)
        assert points == [0, F(-7, 4), F(-7, 8), F(7, 4), F(7, 8)]
        assert ivs[:2] == [IsolatingInterval(-iv.hi, -iv.lo) for iv in reversed(ivs[2:])]

    def test_root_at_the_middle_takes_the_direct_left_path(self, monkeypatch):
        # (x^2 - 1/4)(x^2 - 1)(x^2 + 1) has Cauchy bound 2, so the middle of
        # (0, 2] is the root 1; both halves split at their k = 65, -63/64 on
        # the left and 65/64 then 65/128 on the right, so no split mirrors
        poly = RationalPolynomial.from_coeffs(
            _times(_times([F(-1, 4), 0, 1], [F(-1), 0, 1]), [F(1), 0, 1])
        )
        assert cauchy_root_bound(poly) == 2
        points = self._splits(monkeypatch)
        ivs = isolate_real_roots(poly)
        assert ivs == ref_isolate_real_roots(poly)
        assert points == [0, F(-63, 64), F(65, 64), F(65, 128)]
        assert ivs[:2] != [IsolatingInterval(-iv.hi, -iv.lo) for iv in reversed(ivs[2:])]
        brackets = _brackets([-1, -0.5, 0.5, 1])
        assert isolate_in_brackets(poly, brackets) == ivs

    def test_root_at_zero_splits_both_halves(self):
        poly = monic_from_roots([F(-1), F(0), F(1)])
        assert isolate_real_roots(poly) == ref_isolate_real_roots(poly)


class TestRefineRoot:
    def test_exact_rational_root(self):
        poly = monic_from_roots([F(1, 2), F(-1, 2)])
        iv = isolate_real_roots(poly)[1]
        val = refine_root(poly, iv, F(1, 10**12))
        assert abs(val - F(1, 2)) <= F(1, 10**12)

    def test_sqrt_two(self):
        poly = RationalPolynomial.from_coeffs([-2, 0, 1])
        iv = [i for i in isolate_real_roots(poly) if i.hi > 0][0]
        val = refine_root(poly, iv, F(1, 10**12))
        assert abs(float(val) - math.sqrt(2)) < 1e-12

    def test_zero_root(self):
        poly = RationalPolynomial.from_coeffs([0, 1])
        iv = isolate_real_roots(poly)[0]
        assert abs(refine_root(poly, iv, F(1, 100))) <= F(1, 100)

    def test_root_at_hi_is_returned(self):
        poly = RationalPolynomial.from_coeffs([-1, 2])  # root 1/2
        assert refine_root(poly, IsolatingInterval(F(0), F(1, 2)), F(1, 10**6)) == F(1, 2)

    def test_bracketing_invariant(self):
        poly = RationalPolynomial.from_coeffs([-3, 0, 0, 1])  # cube root of 3
        iv = isolate_real_roots(poly)[0]
        val = refine_root(poly, iv, F(1, 10**9))
        assert abs(float(val) - 3 ** (1 / 3)) < 1e-9


class TestBisectionPinned:
    """The exact intervals and rationals that isolation and bisection return.

    Any change to the split points, the bisection steps or the step inside
    from a root at ``lo`` changes these values.
    """

    def test_perturbed_sextic(self):
        # g = f + 1/256 for the roots +-1/6, +-1/2, +-5/6 (the m = 3 design)
        g = RationalPolynomial.from_coeffs(
            [F(-19, 20736), 0, F(259, 1296), 0, F(-35, 36), 0, 1]
        )
        ivs = isolate_real_roots(g)
        ends = [F(-71, 72), F(-71, 96), F(-71, 144), 0, F(71, 144), F(71, 96), F(71, 72)]
        assert [(iv.lo, iv.hi) for iv in ivs] == list(zip(ends, ends[1:]))
        positive = [
            F(77117996011965, 1125899906842624),
            F(5428402861105175, 10133099161583616),
            F(8359318461184361, 10133099161583616),
        ]
        roots = [refine_root(g, iv, F(1, 64 * 10**12)) for iv in ivs]
        assert roots == [-r for r in reversed(positive)] + positive

    def test_cube_root_of_three(self):
        poly = RationalPolynomial.from_coeffs([-3, 0, 0, 1])
        (iv,) = isolate_real_roots(poly)
        assert (iv.lo, iv.hi) == (-4, 4)
        assert refine_root(poly, iv, F(1, 10**9)) == F(3097207369, 2147483648)

    @pytest.mark.parametrize(
        "other, expected", [(F(1, 2), F(1, 2)), (F(1, 3), F(2863311533, 8589934592))]
    )
    def test_root_at_lo(self, other, expected):
        # lo = 0 is a root just outside (0, 1]: refinement steps inside first
        poly = monic_from_roots([F(0), other])
        iv = IsolatingInterval(F(0), F(1))
        assert refine_root(poly, iv, F(1, 10**9)) == expected

    def test_no_sign_change_rejected(self):
        poly = monic_from_roots([F(1, 4), F(3, 4)])
        with pytest.raises(DomainError, match="sign change"):
            refine_root(poly, IsolatingInterval(F(0), F(1)), F(1, 10**9))


def _bisection_reference(poly, interval, precision):
    """The plain bisection loop that ``refine_root`` reproduces, with every
    sign read off the ``Fraction`` value of ``evaluate`` (reference copy)."""

    def sign(x):
        v = evaluate(poly, x)
        return (v > 0) - (v < 0)

    prec = F(precision)
    lo, hi = interval.lo, interval.hi
    shi = sign(hi)
    if shi == 0:
        return hi
    slo = sign(lo)
    if slo == 0:
        step = hi - lo
        while True:
            step /= 2
            cand = lo + step
            slo = sign(cand)
            if slo == 0:
                return cand
            if slo != shi:
                lo = cand
                break
    if slo == shi:
        raise DomainError("interval does not bracket a sign change")
    while hi - lo > prec:
        mid = (lo + hi) / 2
        sm = sign(mid)
        if sm == 0:
            return mid
        if sm == shi:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _halvings(interval, precision):
    """k, the number of halvings bisection makes on the interval."""
    k = 0
    while (interval.hi - interval.lo) / 2**k > precision:
        k += 1
    return k


def _seeded_cases():
    """(poly, interval, precision): irrational roots of seeded polynomials,
    roots on and off the dyadic bisection grid, and k = 0."""
    rng = random.Random(29)
    cases = []
    for _ in range(60):
        roots = {F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))}
        poly = monic_from_roots(sorted(roots)).plus_constant(F(rng.randint(-9, 9), 16))
        if poly.degree < 1:
            continue
        for iv in isolate_real_roots(poly):
            for prec in (F(1, 7), F(1, 10**6), F(1, 2**40), F(1, 10**30)):
                cases.append((poly, iv, prec))
    for _ in range(60):
        level = rng.randint(0, 12)
        root = F(rng.randint(1, 2**level), 2**level) - F(1, 2 ** (level + 1))
        poly = monic_from_roots([root, F(rng.randint(2, 9)), F(-rng.randint(1, 9), 3)])
        iv = IsolatingInterval(F(0), F(1))
        for prec in (F(1, 2**level), F(1, 2 ** (level + 1)), F(1, 2**30), F(1, 3)):
            cases.append((poly, iv, prec))
    sqrt2 = RationalPolynomial.from_coeffs([-2, 0, 1])
    cases += [(sqrt2, IsolatingInterval(F(1), F(2)), prec) for prec in (F(1), F(5), F(1, 2))]
    return cases


class TestGridCellSearch:
    """``refine_root`` finds the bisection cell by false position; it must
    return what the plain bisection loop returns."""

    def test_matches_bisection(self):
        for poly, iv, prec in _seeded_cases():
            assert refine_root(poly, iv, prec) == _bisection_reference(poly, iv, prec)

    def test_root_at_lo_matches_bisection(self):
        rng = random.Random(31)
        for _ in range(80):
            lo = F(rng.randint(-20, 20), rng.randint(1, 6))
            hi = lo + F(rng.randint(1, 40), rng.randint(1, 8))
            inner = lo + (hi - lo) * F(rng.randint(1, 99), 100)
            outer = [hi + rng.randint(1, 5)] if rng.random() < 0.5 else []
            poly = monic_from_roots([lo, inner] + outer)
            iv = IsolatingInterval(lo, hi)
            for prec in (F(1, 3), F(1, 10**12)):
                assert refine_root(poly, iv, prec) == _bisection_reference(poly, iv, prec)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """One entry per call of the integer kernel: every value ``refine_root``
        takes, at the two ends and in the search, is one call."""
        calls = []
        kernel = polyroot._homogeneous

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(polyroot, "_homogeneous", counted)
        return calls

    def test_evaluation_count_bound(self, kernel_calls):
        for poly, iv, prec in _seeded_cases():
            kernel_calls.clear()
            refine_root(poly, iv, prec)
            assert len(kernel_calls) <= 2 * _halvings(iv, prec) + 2

    def test_illinois_converges_in_few_evaluations(self, kernel_calls):
        # x^n - c on (0, c] at 10^-30: about 100 halvings each.  Plain false
        # position under the bisection safeguard needs about a third of k.
        prec, halvings = F(1, 10**30), 0
        for n in range(2, 13):
            for c in (2, 3, 5):
                poly = RationalPolynomial.from_coeffs([-c] + [0] * (n - 1) + [1])
                iv = IsolatingInterval(F(0), F(c))
                refine_root(poly, iv, prec)
                halvings += _halvings(iv, prec)
        assert len(kernel_calls) <= halvings / 4


def test_no_sign_change_right_of_a_root_at_lo_rejected():
    # Roots 1/3 and 2: lo = 1/3 is a root and (1/3, 1/2] holds no sign
    # change, so stepping inside from lo could never end.  A subprocess with
    # a timeout keeps a regression from hanging the suite.
    code = (
        "from fractions import Fraction as F\n"
        "from tmdesign import DomainError, IsolatingInterval, monic_from_roots, refine_root\n"
        "poly = monic_from_roots([F(1, 3), F(2)])\n"
        "try:\n"
        "    refine_root(poly, IsolatingInterval(F(1, 3), F(1, 2)), F(1, 10**9))\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "interval does not bracket a sign change\n"


class TestPowerSumsFromCoeffs:
    def test_quartic(self):
        poly = monic_from_roots([F(1, 4), F(-1, 4), F(3, 4), F(-3, 4)])
        p = power_sums_from_coeffs(poly, 2)
        # oracle: 2*(1/16 + 9/16) = 5/4
        assert p.entries == (0, F(5, 4))

    def test_symmetric_pair(self):
        poly = monic_from_roots([F(1, 2), F(-1, 2)])
        assert power_sums_from_coeffs(poly, 3).entries == (0, F(1, 2), 0)

    def test_perturbed_pair(self):
        # roots of x^2 - 1/16 are +-1/4
        g = monic_from_roots([F(1, 2), F(-1, 2)]).plus_constant(F(3, 16))
        assert power_sums_from_coeffs(g, 2).entries == (0, F(1, 8))

    def test_non_monic_rejected_unless_normalized(self):
        poly = RationalPolynomial.from_coeffs([-2, 0, 2])
        with pytest.raises(DomainError):
            power_sums_from_coeffs(poly, 2)
        assert power_sums_from_coeffs(poly, 2, normalize=True).entries == (0, 2)


@given(st.lists(rationals, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_power_sums_from_coeffs_matches_direct(roots):
    poly = monic_from_roots(roots)
    K = 2 * len(roots)
    assert power_sums_from_coeffs(poly, K).entries == power_sums(roots, K).entries


def test_cauchy_bound_contains_all_roots():
    rng = random.Random(11)
    for _ in range(30):
        roots = [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
        poly = monic_from_roots(roots)
        bound = cauchy_root_bound(poly)
        assert all(-bound < r < bound for r in roots)


def test_distinct_linear_factors_all_isolated():
    rng = random.Random(13)
    for _ in range(25):
        roots = sorted({F(rng.randint(-30, 30), 8) for _ in range(rng.randint(2, 8))})
        poly = monic_from_roots(roots)
        ivs = isolate_real_roots(poly)
        assert len(ivs) == len(roots)
        bound = cauchy_root_bound(poly)
        assert sturm_root_count(poly, -bound, bound) == len(roots)


def test_json_round_trip():
    poly = RationalPolynomial.from_coeffs([F(9, 256), 0, F(-5, 8), 0, 1])
    doc = poly.to_json()
    assert doc == {"coeffs": ["9/256", "0", "-5/8", "0", "1"]}
    assert RationalPolynomial.from_json(doc) == poly
