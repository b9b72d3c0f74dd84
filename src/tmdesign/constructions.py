"""Smallest asymmetric and non-symmetric designs, with exact certificates.

The centrepiece turns an existence argument into a machine-checkable object:
start from the symmetric root set A = {+-(2k-1)/(2m)}, perturb its monic
polynomial f by a small rational epsilon so that g = f + epsilon still has 2m
simple roots A' inside (-1 + 1/(2m), 1 - 1/(2m)), and take

    X = (A' - 1/(2m)) union {1}.

Because g and f share all coefficients except the constant term, the power
sums of A' and A agree through order 2m-1, and the binomial expansion of
p_{2k+1}(X) collapses to an identity in those shared power sums.  The m
residuals are therefore computable exactly from g's coefficients, with no
root extraction, and come out identically zero; the 2m+1 points themselves
are only needed approximately and are the points certified bisection gives
(``refine_root``).  Each of those exact grid searches, and those of the
critical points of f, starts from a float prediction made in the product
form f(x) = prod_k (x^2 - r_k^2) and only confirms its cell, so a
prediction changes the cost, never a point.  The signs of g that the
isolation and the ends of each refinement read come from a floating-point
filter in the same product form (``_Unperturbed.g_sign``), and from the
integer kernel only where its proven error bound does not decide; each
cell is still confirmed by the kernel's values at both its ends.  f is
built once, on integers, in the scaled variable y = 2m x, where its roots
are the odd integers; the default epsilon comes from the critical values
of f (``choose_epsilon``), evaluated on those integers, and the same
critical points bracket the roots of g for their isolation.  The
certificate's Newton sums run on g's integer coefficients in y.

Also here: the regular-polygon cosine design, the alternating binomial sum
with its closed form, the rational binomial weighted design, padding
operations that preserve odd residuals, and an equal-weight Chebyshev-Gauss
quadrature check for the arcsine measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb, inf, nan
from typing import Sequence

from .errors import (
    DomainError,
    InternalDefectError,
    NotSquarefreeError,
    PreconditionError,
)
from .interval_design import Configuration, WeightedConfiguration
from .polyroot import (
    IsolatingInterval,
    RationalPolynomial,
    _homogeneous,
    _isolate_in_brackets,
    _kernel_sign,
    _refine_near,
    sturm_root_count,
)
from .scalars import (
    Scalar,
    as_fraction,
    clear_denominators,
    cos_turns,
    decimal_string,
    format_scalar,
    mode_zero,
)
from .symfun import ElemSymVector, newton_p_from_e

#: Default halving start for the perturbation search.
DEFAULT_EPSILON_START = Fraction(1, 16)

#: Default output precision of the perturbed design's approximate points.
DEFAULT_PRECISION = Fraction(1, 10**12)


def _newton(fn, za: float, zb: float, z: float, rising: bool) -> float:
    """A float zero of fn in (za, zb) by Newton's method from z, where fn
    changes sign once, from negative to positive if ``rising``; a step that
    would leave the bracket, which each value narrows, is a bisection step.
    ``fn(z)`` returns the value and the derivative.  Only a start: its
    result is confirmed by the exact grid search; NaN when the bracket has
    no float inside."""
    if not za < z < zb:
        z = 0.5 * (za + zb)
        if not za < z < zb:
            return nan
    for _ in range(100):
        v, dv = fn(z)
        if v == 0:
            break
        if (v > 0) == rising:
            zb = z
        else:
            za = z
        step = v / dv if dv else inf
        if abs(step) <= 4e-16 * abs(z):
            break
        nz = z - step
        if not za < nz < zb:
            nz = 0.5 * (za + zb)
            if not za < nz < zb:
                break
        z = nz
    return z


def base_roots(m: int) -> list[Fraction]:
    """The 2m symmetric rationals +-(2k-1)/(2m), k = 1..m, ascending."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    pos = [Fraction(2 * k - 1, 2 * m) for k in range(1, m + 1)]
    return [-r for r in reversed(pos)] + pos


class _Unperturbed:
    """f = prod_k (x^2 - ((2k-1)/(2m))^2), the monic polynomial of
    ``base_roots(m)``, with its critical points in the intervals where f < 0.

    f is built on integers: F(y) = prod_k (y^2 - (2k-1)^2) is monic with
    integer coefficients F_j, and f(x) = F(2m x) / (2m)^(2m), so f has the
    coefficients F_j / (2m)^(2m-j), the canonical Fractions that
    ``monic_from_roots`` gives.  f is even and its roots are simple, so
    f < 0 exactly on the m intervals (r_(2i-1), r_(2i)) between its roots,
    and f' has one simple root in each.  ``wells`` are those intervals with
    right end > 0 (the others are their mirror images), ``crit`` the roots
    of f' in them refined to width (b - a)/2^20, and ``depth`` the values
    -f there, from the integers of F (``_depth``).

    ``sq`` holds the floats of r_k^2 for the m positive roots r_k of f, so
    that f(x) = h0(x^2) for h0(z) = prod_k (z - r_k^2): the product form in
    which the float predictions of critical points (``_critical_point``) and
    of the roots of g (``root_start``) are made, and the signs of g are
    filtered (``g_sign``).
    """

    def __init__(self, m: int):
        self.roots = base_roots(m)
        z = [1]  # prod (z - (2k-1)^2), ascending, in z = y^2
        for k in range(1, m + 1):
            a = (2 * k - 1) ** 2
            z = [0] + z
            for i in range(len(z) - 1):
                z[i] -= a * z[i + 1]
        self.z = z
        self.sq = [(2 * k - 1) ** 2 / (4 * m * m) for k in range(1, m + 1)]
        self.F = [0] * (2 * m + 1)
        self.F[::2] = z
        s = 2 * m
        self.f = RationalPolynomial(
            tuple(Fraction(c, s ** (s - j)) for j, c in enumerate(self.F))
        )
        self.df = RationalPolynomial(
            tuple(Fraction(j * c, s ** (s - j)) for j, c in enumerate(self.F) if j)
        )
        self.wells = [
            (a, b) for a, b in zip(self.roots[::2], self.roots[1::2]) if b > 0
        ]
        self.crit = [self._critical_point(a, b, 20) for a, b in self.wells]
        self.depth = [self._depth(c) for c in self.crit]

    def _critical_point(self, a: Fraction, b: Fraction, bits: int) -> Fraction:
        """The root of f' in the well (a, b), refined to width (b - a)/2^bits
        from a float start: 0 in the well around 0, and otherwise the zero of
        f'(x) / (2x f(x)) = sum_k 1/(x^2 - r_k^2), which falls from +inf to
        -inf over (a^2, b^2), by Newton in z = x^2."""
        start = 0.0
        if a > 0:

            def s(z: float) -> tuple[float, float]:
                v = dv = 0.0
                for r in self.sq:
                    t = 1 / (z - r)
                    v += t
                    dv -= t * t
                return v, dv

            za, zb = float(a) ** 2, float(b) ** 2
            start = _newton(s, za, zb, 0.5 * (za + zb), False) ** 0.5
        return _refine_near(self.df, IsolatingInterval(a, b), (b - a) / 2**bits, start)

    def root_start(self, eps: Fraction, i: int, iv: IsolatingInterval) -> float:
        """A float prediction of the i-th positive root of g = f + eps
        (i = 0 .. m-1), the one that the interval iv, of ends >= 0, holds.

        The roots of g and of f pair off in order, and g's i-th positive
        root is the one near r_i, at the end of a well, where g = eps.  In
        z = x^2 it is the zero of h(z) = h0(z) + eps, which h crosses
        upwards when an even number of roots of f lie right of r_i, found by
        Newton within (lo^2, hi^2) from one Newton step off r_i^2, where
        h(r_i^2) = eps and h'(r_i^2) = prod_(k != i) (r_i^2 - r_k^2).  NaN
        when iv reaches below 0.
        """
        if iv.lo < 0:
            return nan
        e, sq = float(eps), self.sq
        r = sq[i]
        slope = 1.0
        for k, t in enumerate(sq):
            if k != i:
                slope *= r - t

        def h(z: float) -> tuple[float, float]:
            v, dv = 1.0, 0.0
            for t in sq:
                d = z - t
                dv = dv * d + v
                v *= d
            return v + e, dv

        z = r - e / slope if slope else r
        rising = (len(sq) - i) % 2 == 1
        return _newton(h, float(iv.lo) ** 2, float(iv.hi) ** 2, z, rising) ** 0.5

    def g_sign(self, g: RationalPolynomial, eps: Fraction):
        """``sign(p, q)``, the sign of g = f + eps at p/q (q > 0), for
        0 < eps < 1, from floats where a proven error bound decides it and
        from ``_homogeneous`` on g's integer coefficients otherwise (a
        floating-point filter: Fortune and Van Wyk, 1993; Shewchuk, 1997).

        For |p| >= q every factor x^2 - r_k^2 is positive, as r_k < 1, so
        g > 0; this is also where the float product could overflow.
        Otherwise, with u = 2^-53 and gamma_n = n u / (1 - n u) (Higham,
        "Accuracy and Stability of Numerical Algorithms", 2002, ch. 3), the
        floats are x^ = fl(p/q), t = fl(x^ x^), s_k = ``sq[k]``, e = fl(eps),
        the factors d_k = fl(t - s_k), v_0 = 1, v_k = fl(v_(k-1) d_k), and
        w = fl(v_m + e).  Int and Fraction divisions round correctly, so
        x^ = x(1 + a), s_k = r_k^2 (1 + a') and e = eps(1 + a''), each |a| <= u,
        and t = x^2 (1 + theta) with |theta| <= gamma_3.  Hence
        |t - x^2| <= 3u/(1 - 6u) t, |s_k - r_k^2| <= gamma_1 s_k and the
        subtraction errs by at most u max(t, s_k), so with
        b_k = gamma_6 (t + s_k):

            |d_k - (x^2 - r_k^2)| + u |d_k| <= b_k.

        For P_k = prod_(i<=k) (x^2 - r_i^2), v_k = v_(k-1) d_k (1 + a) gives
        |v_k - P_k| <= |v_(k-1)| (|d_k - (x^2 - r_k^2)| + u |d_k|) +
        |v_(k-1) - P_(k-1)| |x^2 - r_k^2|, so the running bound

            E_0 = 0,  E_k = |v_(k-1)| b_k + E_(k-1) (|d_k| + b_k)

        has |v_m - P_m| <= E_m, and |w - g(x)| <= E_m + gamma_1 (e + |w|).
        The floats compute E_m and the test below with about 4m + 4 more
        roundings, all on nonnegative terms, so the factor 2 covers them
        while m u is small; 7u >= gamma_6 and 2^-52 >= gamma_1.  Underflow
        loses at most 2^-1075 per operation, and no factor or partial
        product exceeds 1 + 14u in magnitude, so all of it stays under
        2^-1000, which is added.  When |w| exceeds the bound, w has g's
        sign; otherwise the sign comes from the integers.  A sign from here
        never decides a printed point by itself: the refinement confirms
        each cell by the kernel's values at both its ends.
        """
        sq, e, exact = self.sq, float(eps), _kernel_sign(g._ints)

        def sign(p: int, q: int) -> int:
            if abs(p) >= q:
                return 1
            x = p / q
            t = x * x
            v, err = 1.0, 0.0
            for s in sq:
                d = t - s
                b = 7 * 2.0**-53 * (t + s)
                err = err * (abs(d) + b) + abs(v) * b
                v *= d
            w = v + e
            if abs(w) > 2.0 * (err + 2.0**-52 * (e + abs(w))) + 2.0**-1000:
                return 1 if w > 0 else -1
            return exact(p, q)

        return sign

    def _depth(self, x: Fraction) -> Fraction:
        """-f(x) = -F(s x) / s^s for s = 2m, on integers: with x = p/q and
        F(y) = Z(y^2), q^s F(s x) is ``_homogeneous`` of Z at (s p)^2 / q^2."""
        p, q, s = x.numerator, x.denominator, len(self.roots)
        return Fraction(-_homogeneous(self.z, (s * p) ** 2, q * q), (q * s) ** s)

    @cached_property
    def depth_bound(self) -> Fraction:
        """An exact upper bound on eps*, the depth of the shallowest well.

        The root of f' in the well (a, b) of the least ``depth`` lies in the
        level-20 cell [u, v] = [c - w/2, c + w/2], w = (b - a)/2^20, around
        its refined critical point c (``refine_root`` returns that cell's
        midpoint, or the root itself).  There x^2 lies in [min(u^2, v^2),
        max(u^2, v^2)], or in [0, max(u^2, v^2)] when the cell holds 0, and
        |x^2 - r^2| is largest at an end of that range, so the product of
        those largest factors bounds -f = |f| at the root, which is at least
        eps*."""
        _, c, (a, b) = min(zip(self.depth, self.crit, self.wells))
        half = (b - a) / 2**21
        L, (u, v) = clear_denominators((c - half, c + half))
        s = len(self.roots)
        # in integers: x = u/L, r = o/s for odd o, and x^2 - r^2 = n/(L s)^2
        hi = max(u * u, v * v) * s * s
        lo = 0 if u < 0 < v else min(u * u, v * v) * s * s
        bound = 1
        for o in range(1, s, 2):
            r2 = o * o * L * L
            bound *= max(abs(lo - r2), abs(hi - r2))
        return Fraction(bound, (L * s) ** s)

    def window_root_count(self, eps: Fraction) -> int | None:
        """Distinct real roots of f + eps in the open working window, or None
        if it has a repeated root.  Window endpoints are roots of f, never of
        f + eps, so the half-open Sturm count is the open count."""
        try:
            return sturm_root_count(
                self.f.plus_constant(eps), self.roots[0], self.roots[-1]
            )
        except NotSquarefreeError:
            return None

    def brackets(self, eps: Fraction) -> list[IsolatingInterval]:
        """For a valid eps, 2m intervals that each hold one root of g = f + eps.

        g = eps > 0 at the roots of f, so (a, c) and (c, b) hold one root
        each for a well (a, b) with g(c) < 0 at its critical point c.  Where
        g(c) >= 0, which can happen for an eps in [beta, eps*) that a Sturm
        count in ``choose_epsilon`` has accepted, c is refined further, each
        time to twice as many bits: -f at the exact critical point is at
        least eps* > eps, so this ends.  g is even, so g(-c) = g(c).  As g
        has degree 2m and changes sign in each of the 2m intervals, they
        hold all its roots.
        """
        out = []
        for (a, b), c, depth in zip(self.wells, self.crit, self.depth):
            bits = 20
            while eps >= depth:
                bits *= 2
                c = self._critical_point(a, b, bits)
                depth = self._depth(c)
            out += [IsolatingInterval(a, c), IsolatingInterval(c, b)]
            if a > 0:
                out += [IsolatingInterval(-b, -c), IsolatingInterval(-c, -a)]
        return sorted(out, key=lambda iv: iv.lo)


def choose_epsilon(
    m: int, start: Scalar = DEFAULT_EPSILON_START, *, base: _Unperturbed | None = None
) -> Fraction:
    """First epsilon in the halving sequence start, start/2, ... for which
    f + epsilon keeps 2m simple roots inside (-1 + 1/(2m), 1 - 1/(2m)).

    The valid epsilons are exactly (0, eps*).  The window ends are the outer
    roots of f, and f' has one root between each pair of neighbouring roots
    of f, so f < 0 between its roots exactly on m intervals, each with one
    local minimum.  Let eps* > 0 be the smallest |f| at these minima.
    g = f + eps is positive outside those intervals and has two simple roots
    in each when eps < eps*; at eps = eps* a root is double, and beyond it at
    least two roots are lost.  The first valid element of the sequence is
    also its largest valid one, so the perturbed roots stay as well
    separated as the sequence allows.  The point 1/(2m) is automatically
    avoided: g(1/(2m)) = epsilon.

    Two exact bounds from the critical points of f (``_Unperturbed``) place
    eps*: beta = min ``depth`` <= eps* <= ``depth_bound``.  Every element
    >= ``depth_bound`` is invalid, and one division by a power of two skips
    them all.  Every element < beta is valid, with no count: g is +epsilon
    at the roots of f and below 0 at each refined critical point x and at
    -x, so it changes sign 2m times inside the window and, being of degree
    2m, has 2m simple roots there.  Only an element in [beta, depth_bound),
    a window at most about 2.5e-6 eps* wide, takes a Sturm count: of
    m <= 40 and starts 1, 3/7, 1/16 and 10^-9, just m = 2, where 1/16 = eps*.
    ``perturbed_interval_design`` passes the f it has built as ``base``.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    eps = as_fraction(start)
    if eps <= 0:
        raise DomainError("start must be positive")
    if base is None:
        base = _Unperturbed(m)
    beta = min(base.depth)
    eps /= 1 << (eps // base.depth_bound).bit_length()
    while eps >= beta and base.window_root_count(eps) != 2 * m:
        eps /= 2
    return eps


@dataclass(frozen=True)
class PerturbedDesignResult:
    """A 2m+1 point asymmetric T_m design with its exact certificate.

    ``certificate`` holds the m residuals p_1(X), p_3(X), ..., p_{2m-1}(X)
    evaluated exactly from g's coefficients; each is the rational 0.  The
    ``points`` are rational approximations (within the requested precision)
    of (A' - 1/(2m)) union {1}, carried as an approximate Configuration.
    """

    m: int
    epsilon: Fraction
    g: RationalPolynomial
    intervals: tuple[IsolatingInterval, ...]
    points: Configuration
    certificate: tuple[Fraction, ...]
    precision: Fraction

    def to_json(self) -> dict:
        digits = max(3, len(str(self.precision.denominator)) + 2)
        return {
            "m": self.m,
            "epsilon": format_scalar(self.epsilon),
            "g": self.g.to_json(),
            "points": [decimal_string(x, digits) for x in self.points.points],
            "certificate": [format_scalar(r) for r in self.certificate],
            "precision": format_scalar(self.precision),
        }


def _refine_mirrored(
    g: RationalPolynomial,
    intervals: Sequence[IsolatingInterval],
    precision: Fraction,
    starts: Sequence[float],
    sign=None,
) -> list[Fraction]:
    """``refine_root`` on each of the 2m ascending intervals of the even g,
    run only on the right half where the left interval i is the mirror image
    (-hi, -lo) of interval 2m-1-i; the root there is the negation.  The grid
    search on right interval i starts from ``starts[i]``, a float prediction
    of its root (``_Unperturbed.root_start``), and on an unmirrored left
    interval from the negated start of its mirror; a start changes the
    search, never the rational returned.

    No interval end is a root of g (g = eps at the roots of f, g < 0 at the
    critical points, and split points are not roots), so both intervals of
    a mirrored pair take the grid path of ``refine_root`` on mirrored grids,
    and the cell midpoint or exact grid root it returns does not depend on
    the search path.  ``sign``, g's sign at p/q (``_Unperturbed.g_sign``),
    is read at the interval ends when given.
    """
    half = len(intervals) // 2
    right = [
        _refine_near(g, iv, precision, x, sign) for iv, x in zip(intervals[half:], starts)
    ]
    left = [
        -r
        if (iv.lo, iv.hi) == (-mirror.hi, -mirror.lo)
        else _refine_near(g, iv, precision, -x, sign)
        for iv, mirror, r, x in zip(
            intervals[:half], reversed(intervals[half:]), reversed(right), reversed(starts)
        )
    ]
    return left + right


def perturbed_interval_design(
    m: int,
    epsilon: Scalar | None = None,
    precision: Scalar = DEFAULT_PRECISION,
) -> PerturbedDesignResult:
    """Construct the smallest asymmetric T_m design, certificate included.

    The exact residuals are, for k = 0..m-1,

        1 + sum_{l=0..2k+1} C(2k+1, l) (-1/(2m))^(2k+1-l) p_l(A')

    with p_l(A') read off g's coefficients (p_0 = 2m).  They are computed
    in y = 2m x, where the roots of g are 2m A' and, times (2m)^(2k+1), the
    residual is (2m)^(2k+1) + sum_l C(2k+1, l) (-1)^(l+1) P_l for the power
    sums P_l of 2m A'.  Through l = 2m-1 these come from the coefficients
    of g of positive degree, which are the integers F_j of f, by Newton's
    identities over Z.  A nonzero value indicates a defect, not a bad
    input.  The roots of g are isolated from the brackets that the critical
    points of f give (``_Unperturbed.brackets``), into the intervals
    ``isolate_real_roots`` would give, and refined a good deal tighter than
    ``precision`` so that direct floating summation over the emitted points
    stays within a few units of precision of zero.  An explicit epsilon is
    accepted iff ``choose_epsilon`` started from it returns it, that is iff
    it lies in (0, eps*).
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    prec = as_fraction(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    base = _Unperturbed(m)
    if epsilon is None:
        eps = choose_epsilon(m, base=base)
    else:
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise DomainError("epsilon must be positive")
        if choose_epsilon(m, eps, base=base) != eps:
            raise DomainError(
                f"epsilon {format_scalar(eps)} does not leave 2m simple roots "
                "in the working window"
            )
    g = base.f.plus_constant(eps)

    s = 2 * m
    coeffs = list(base.F)  # of the monic polynomial of 2m A'
    coeffs[0] += eps * s**s
    e = ElemSymVector(tuple((-1) ** k * coeffs[s - k] for k in range(s + 1)))
    # power sums of the roots of a monic integer polynomial are integers
    P = (s,) + tuple(int(x) for x in newton_p_from_e(e, s, s - 1).entries)
    certificate = []
    for k in range(m):
        n = 2 * k + 1
        r = Fraction(
            s**n + sum((-1) ** (l + 1) * comb(n, l) * P[l] for l in range(n + 1)),
            s**n,
        )
        if r != 0:
            raise InternalDefectError(f"exact residual at odd index {n} is {r}, not 0")
        certificate.append(r)

    sign = base.g_sign(g, eps)
    intervals = tuple(_isolate_in_brackets(g, base.brackets(eps), sign))
    starts = [base.root_start(eps, i, iv) for i, iv in enumerate(intervals[m:])]
    approx_roots = _refine_mirrored(g, intervals, prec / 64, starts, sign)
    shift = Fraction(-1, s)
    points = tuple(r + shift for r in approx_roots) + (Fraction(1),)
    config = Configuration(
        points,
        tolerance=max(float(prec) * 8 * m, 1e-15),
        mode="approximate",
    )
    return PerturbedDesignResult(
        m, eps, g, intervals, config, tuple(certificate), prec
    )


def polygon_weighted_design(n: int) -> WeightedConfiguration:
    """Weight 2 on the n cosines cos(2j*pi/(2n+1)), weight 1 on the point 1.

    These are the distinct first coordinates of a regular (2n+1)-gon on the
    unit circle with a vertex at 1, each interior cosine covering two
    vertices.  The polygon's odd moments vanish through degree 2n-1, so this
    is a weighted T_{n-1}-design (indeed also T_n) on n+1 support points.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    support = cos_turns(range(1, n + 1), 2 * n + 1) + [1.0]
    weights = [2.0] * n + [1.0]
    return WeightedConfiguration(
        tuple(support), tuple(weights), tolerance=1e-12, mode="approximate"
    )


def binom_alternating_sum(n: int, s: int) -> int:
    """sum_{j=1..n} (-1)^j j^(2s) C(2n, n-j), for 0 <= s < n.

    Evaluates the sum directly and cross-checks the closed form
    -C(2n-1, n-1) for s = 0 and 0 for 1 <= s < n; a mismatch is a defect.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 0 <= s < n:
        raise PreconditionError(f"requires 0 <= s < n; got s={s}, n={n}")
    total = sum((-1) ** j * j ** (2 * s) * comb(2 * n, n - j) for j in range(1, n + 1))
    closed = -comb(2 * n - 1, n - 1) if s == 0 else 0
    if total != closed:
        raise InternalDefectError(
            f"direct sum {total} disagrees with closed form {closed} (n={n}, s={s})"
        )
    return total


def binomial_weighted_design(n: int) -> WeightedConfiguration:
    """The rational weighted T_{n-1}-design on n support points:

        weight 2j*C(2n, n-2j)       at  2j/(n+1),      1 <= j <= floor(n/2)
        weight (2j-1)*C(2n, n-2j+1) at -(2j-1)/(n+1),  1 <= j <= ceil(n/2)

    Exact arithmetic throughout; the odd residuals through index 2n-3 vanish
    identically (the index 2n-1 residual does not, so T_{n-1} is sharp).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    support: list[Fraction] = []
    weights: list[int] = []
    for j in range(1, n // 2 + 1):
        support.append(Fraction(2 * j, n + 1))
        weights.append(2 * j * comb(2 * n, n - 2 * j))
    for j in range(1, (n + 1) // 2 + 1):
        support.append(Fraction(-(2 * j - 1), n + 1))
        weights.append((2 * j - 1) * comb(2 * n, n - 2 * j + 1))
    return WeightedConfiguration(tuple(support), tuple(weights), mode="exact")


def pad_with_antipodal_pairs(
    config: Configuration, pairs: Sequence[Scalar]
) -> Configuration:
    """Append the pair {+a, -a} for each requested a in (0, 1).

    Odd power sums are unchanged, so every T_m verdict is preserved.
    """
    new_points = list(config.points)
    for a in pairs:
        if not 0 < a < 1:  # exact for rationals, False for NaN
            raise DomainError(f"pair value {a!r} must lie in the open interval (0, 1)")
        new_points.extend([a, -a])
    return replace(config, points=tuple(new_points))


def add_zero(config: Configuration) -> Configuration:
    """Append the point 0; odd power sums are unchanged."""
    return replace(config, points=config.points + (mode_zero(config.mode),))


def _float_powers(x: float, top: int) -> list[float]:
    """[x**0, x**1, ..., x**top] over float multiplies, each power the
    product that binary exponentiation forms: x^(2^h) = (x^(2^(h-1)))^2,
    and for other s, x^s = x^(s - 2^h) * x^(2^h), 2^h the top bit of s, so
    the factors x^(2^h) of the set bits of s are multiplied in from the
    lowest bit up.

    Multiplication is exactly sign-symmetric, so for odd s the value at -x is
    the exact negation of the value at x; sums over a mirrored node set then
    cancel to exactly 0.0.
    """
    pw = [1.0, x]
    bit = 1
    for s in range(2, top + 1):
        if s == 2 * bit:
            bit = s
            pw.append(pw[s >> 1] * pw[s >> 1])
        else:
            pw.append(pw[s - bit] * pw[bit])
    return pw


@dataclass(frozen=True)
class QuadratureCheckEntry:
    s: int
    node_mean: float
    target: Fraction
    error: float


@dataclass(frozen=True)
class QuadratureReport:
    """Moment comparison of equal-weight nodes against arcsine moments.

    ``variant_*`` fields track an alternative node formula cos(2k*pi/(2n-1)),
    sometimes quoted for this rule, which already fails the degree-1 moment
    at n = 2 (node mean -1/2 instead of 0); it is reported, not used.
    """

    n: int
    nodes: tuple[float, ...]
    entries: tuple[QuadratureCheckEntry, ...]
    verdict: bool
    tolerance: float
    variant_nodes: tuple[float, ...]
    variant_degree_one_mean: float
    variant_degree_one_ok: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "nodes": [repr(x) for x in self.nodes],
            "checks": [
                {
                    "s": e.s,
                    "node_mean": repr(e.node_mean),
                    "target": format_scalar(e.target),
                    "error": repr(e.error),
                }
                for e in self.entries
            ],
            "verdict": self.verdict,
            "tolerance": repr(self.tolerance),
            "variant_nodes": [repr(x) for x in self.variant_nodes],
            "variant_degree_one_mean": repr(self.variant_degree_one_mean),
            "variant_degree_one_ok": self.variant_degree_one_ok,
        }


def chebyshev_gauss_nodes(n: int) -> tuple[float, ...]:
    """cos((2k-1)*pi/(2n)), k = 1..n, built exactly mirror-symmetric.

    Only the first half is evaluated trigonometrically; the other half is the
    exact floating negation, and an odd middle node is exactly 0.0.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    half = cos_turns(range(1, n // 2 * 2, 2), 4 * n)
    middle = [0.0] if n % 2 else []
    return tuple(half + middle + [-x for x in reversed(half)])


def chebyshev_gauss_check(
    n: int, s_max: int, tolerance: float = 1e-12
) -> QuadratureReport:
    """Check (1/n) sum x_k^s against the arcsine moment for s = 1..s_max.

    The arcsine moments on [-1, 1] are 0 for odd s and C(s, s/2)/2^s for
    even s; the rule is exact through degree 2n-1, so s_max may not exceed
    that.  Even-s means are compared within ``tolerance``.

    The sum runs over the first n // 2 nodes x_k, in k order, and adds each
    mirror pair's term: the other half holds the exact negations -x_k and an
    odd middle node is 0.0 (``chebyshev_gauss_nodes``), and float
    multiplication is sign-symmetric (``_float_powers``).  For odd s a pair
    adds x_k^s + (-x_k^s) = 0.0, so the mean is exactly 0.0; for even s it
    adds 2.0 x_k^s, exactly the sum of its two terms, and the middle node
    adds nothing.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 1 <= s_max <= 2 * n - 1:
        raise DomainError(f"degree error: require 1 <= s_max <= 2n-1 = {2 * n - 1}")
    nodes = chebyshev_gauss_nodes(n)
    powers = [_float_powers(x, s_max) for x in nodes[: n // 2]]
    entries = []
    ok = True
    for s in range(1, s_max + 1):
        acc = 0.0
        if s % 2 == 0:
            for pw in powers:
                acc += 2.0 * pw[s]
        mean = acc / n
        target = Fraction(0) if s % 2 else Fraction(comb(s, s // 2), 2**s)
        err = abs(mean - float(target))
        ok = ok and err <= tolerance
        entries.append(QuadratureCheckEntry(s, mean, target, err))
    variant = tuple(cos_turns(range(1, n + 1), 2 * n - 1))
    variant_mean = sum(variant) / n
    return QuadratureReport(
        n=n,
        nodes=nodes,
        entries=tuple(entries),
        verdict=ok,
        tolerance=tolerance,
        variant_nodes=variant,
        variant_degree_one_mean=variant_mean,
        variant_degree_one_ok=abs(variant_mean) <= tolerance,
    )
