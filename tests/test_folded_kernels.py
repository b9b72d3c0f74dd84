"""The exact interval kernels against plain Fraction references.

Odd moments are folded by |value| (``symfun.folded_odd_sums``) and exact
pairing groups cleared integers by value (``pair_negations``).  Each is
checked here against the direct computation it replaced: sum w x^k over
plain Fractions, and the O(n^2) first-exact-negation loop.
"""

import random
from fractions import Fraction as F

import pytest

from tmdesign import (
    Configuration,
    HypothesisError,
    InternalDefectError,
    SymmetryCertificate,
    certify_symmetry,
    extend_odd_power_sums,
    verify_interval_design,
)
from tmdesign.interval_design import _odd_moments, pair_negations
from tmdesign.scalars import format_scalar
from tmdesign.symfun import folded_odd_sums


def ref_odd_sums(xs, ws, m):
    return tuple(sum(F(w) * F(x) ** k for x, w in zip(xs, ws)) for k in range(1, 2 * m, 2))


def ref_pair_exact(values):
    """The exact branch of ``pair_negations`` as an O(n^2) loop: largest
    |value| first (ties by position), each paired with the first remaining
    exact negation."""
    remaining = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    pairs, fixed = [], []
    while remaining:
        i = remaining.pop(0)
        v = values[i]
        if v == 0:
            fixed.append(i)
            continue
        j = next((c for c in remaining if values[c] == -v), None)
        if j is None:
            raise InternalDefectError(
                f"verified design has no partner for value {format_scalar(v)}"
            )
        remaining.remove(j)
        pairs.append((i, j))
    return SymmetryCertificate(
        tuple(sorted((min(i, j), max(i, j)) for i, j in pairs)), tuple(sorted(fixed))
    )


def outcome(f, *args):
    try:
        return f(*args)
    except InternalDefectError as exc:
        return ("raised", str(exc))


def _value(rng, pool):
    """A value of ``pool`` with a random sign, spelled as an int when it is one."""
    v = rng.choice(pool) * rng.choice((1, -1))
    return int(v) if v.denominator == 1 and rng.random() < 0.5 else v


_POOL = (F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(5, 7))


def weighted_sets():
    """(points, weights, m): repeats, zeros, +- pairs of equal and of unequal
    weight, int/Fraction mixes and fully cancelling sets; m from 0."""
    rng = random.Random(7301)
    for case in range(240):
        n = rng.randint(1, 9)
        xs = [_value(rng, _POOL) for _ in range(n)]
        ws = [rng.choice((1, 2, -1, F(1, 2), F(-3, 5), 0)) for _ in range(n)]
        if case % 3 == 0:  # +- pairs, equal weights: folds to nothing
            xs, ws = xs + [-x for x in xs], ws + ws
        elif case % 3 == 1:  # +- pairs of unequal weight
            xs, ws = xs + [-x for x in xs], ws + [w + rng.choice((1, F(1, 3))) for w in ws]
        yield tuple(xs), tuple(ws), rng.randint(0, 6)
    # a point and its negation at the same weight, or one point at +w and -w
    yield (F(1, 2), F(-1, 2)), (3, 3), 4
    yield (F(2, 3), F(2, 3), 0), (5, -5, 7), 4


class TestFoldedOddSums:
    def test_residuals_equal_plain_fraction_sums(self):
        for xs, ws, m in weighted_sets():
            ref = ref_odd_sums(xs, ws, m)
            report = _odd_moments(xs, ws, m, None)
            assert report.residuals == ref, (xs, ws, m)
            assert all(isinstance(r, F) for r in report.residuals)
            first = next((2 * k + 1 for k, r in enumerate(ref) if r), None)
            assert report.failing_index == first and report.verdict == (first is None)

    def test_integer_sums(self):
        for xs, ws, m in weighted_sets():
            a = [int(x * 210) for x in xs]
            b = [int(w * 30) for w in ws]
            ref = [sum(w * x**k for x, w in zip(a, b)) for k in range(1, 2 * m, 2)]
            assert folded_odd_sums(a, b, m) == ref, (a, b, m)

    def test_extension_hypothesis(self):
        # the extension reads the same odd sums at unit weights
        for xs, _, m in weighted_sets():
            m = max(m, (len(xs) + 1) // 2)
            ref = ref_odd_sums(xs, (1,) * len(xs), m)
            first = next((k for k, r in enumerate(ref) if r), None)
            if first is None:
                assert extend_odd_power_sums(xs, m, m, tol=None) == (0,) * m
                continue
            with pytest.raises(HypothesisError) as exc:
                extend_odd_power_sums(xs, m, m, tol=None)
            assert exc.value.failing_index == 2 * first + 1
            assert str(exc.value).endswith(f"= {ref[first]} is nonzero")

    def test_m_zero(self):
        assert folded_odd_sums([3, -1], [1, 1], 0) == []
        report = _odd_moments((F(1, 2),), (1,), 0, None)
        assert report.residuals == () and report.verdict


def symmetric_multisets():
    """Exact multisets with duplicates and zeros, about half of them broken
    by one extra, dropped or flipped value."""
    rng = random.Random(5150)
    for case in range(200):
        half = [_value(rng, _POOL[1:4]) for _ in range(rng.randint(0, 6))]
        vals = half + [-v for v in half] + [rng.choice((0, F(0)))] * rng.randint(0, 3)
        if case % 2 and vals:
            edit = rng.randrange(3)
            if edit == 0:
                vals.append(_value(rng, _POOL[1:]))
            elif edit == 1:
                vals.pop(rng.randrange(len(vals)))
            else:
                i = rng.randrange(len(vals))
                vals[i] = -vals[i] if vals[i] else F(1, 3)
        rng.shuffle(vals)
        yield tuple(vals)


def gram_rows():
    """Integer rows as exact antipodal certification passes them: <Lx_i, Lx_j>
    for a point i (first, the largest value) and the unmatched points."""
    rng = random.Random(6022)
    for case in range(200):
        top = rng.randint(1, 12)
        half = [rng.randint(-top, top) for _ in range(rng.randint(0, 5))]
        row = [top, -top] + half + [-v for v in half]
        if case % 2:
            row[rng.randrange(1, len(row))] += 1
        rest = row[1:]
        rng.shuffle(rest)
        yield (row[0], *rest)


class TestPairingByValue:
    def test_multisets(self):
        for values in symmetric_multisets():
            new = outcome(pair_negations, values, None)
            assert new == outcome(ref_pair_exact, values), values

    def test_integer_gram_rows(self):
        for row in gram_rows():
            assert outcome(pair_negations, row, None) == outcome(ref_pair_exact, row), row

    def test_kth_with_kth(self):
        # equal values pair in position order with their negations
        values = (F(1, 2), F(-1, 2), F(1, 2), 0, F(-1, 2), F(1, 2), F(-1, 2))
        cert = pair_negations(values, None)
        assert cert.pairs == ((0, 1), (2, 4), (5, 6)) and cert.fixed == (3,)


@pytest.mark.slow
def test_two_hundred_points():
    # n = 200 at m = 100, with repeats and a zero pair; then one point halved
    rng = random.Random(200)
    half = [F(rng.randint(1, 60), 61) for _ in range(99)] + [F(0)]
    pts = half + [-v for v in half]
    rng.shuffle(pts)
    config = Configuration(tuple(pts))
    assert verify_interval_design(config, 100).residuals == (0,) * 100
    assert certify_symmetry(config, 100) == ref_pair_exact(pts)
    pts[pts.index(half[0])] /= 2
    ws = (1,) * 200
    assert _odd_moments(pts, ws, 100, None).residuals == ref_odd_sums(pts, ws, 100)
