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
(``refine_root``).  f is built once, on integers, in the scaled variable
y = 2m x, where its roots are the odd integers; the default epsilon comes
from the critical values of f (``choose_epsilon``), evaluated on those
integers, and the same critical points bracket the roots of g for their
isolation.  The certificate's Newton sums run on g's integer coefficients
in y.

Also here: the regular-polygon cosine design, the alternating binomial sum
with its closed form, the rational binomial weighted design, padding
operations that preserve odd residuals, and an equal-weight Chebyshev-Gauss
quadrature check for the arcsine measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb
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
    isolate_in_brackets,
    refine_root,
    sturm_root_count,
)
from .scalars import (
    Scalar,
    as_fraction,
    clear_denominators,
    cos_turn,
    decimal_string,
    format_scalar,
    mode_zero,
)
from .symfun import ElemSymVector, newton_p_from_e

#: Default halving start for the perturbation search.
DEFAULT_EPSILON_START = Fraction(1, 16)

#: Default output precision of the perturbed design's approximate points.
DEFAULT_PRECISION = Fraction(1, 10**12)


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
        return refine_root(self.df, IsolatingInterval(a, b), (b - a) / 2**bits)

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
        g(c) >= 0, which can happen after the doubling in ``choose_epsilon``
        or for an explicit epsilon, c is refined further, each time to twice
        as many bits: -f at the exact critical point is at least eps* >
        eps, so this ends.  g is even, so g(-c) = g(c).  As g has degree 2m
        and changes sign in each of the 2m intervals, they hold all its
        roots.
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
    least two roots are lost.  The halving sequence enters (0, eps*) after
    finitely many steps, and its first valid element is also the largest
    valid one, so the perturbed roots stay as well separated as the sequence
    allows.  The point 1/(2m) is automatically avoided: g(1/(2m)) = epsilon.

    That element is found from the critical values instead of one Sturm
    chain per halving.  f is even, so only the negative intervals (a, b)
    with b > 0 are needed; on each, x is the root of f' refined to width
    (b - a)/2^20, and beta = min -f(x) <= eps*.  Halving start until
    epsilon < beta gives a valid epsilon with no Sturm chain: g is +epsilon
    at the roots of f and g(x) = f(x) + epsilon < 0 at each x and at -x, so
    g changes sign 2m times inside the window and, being of degree 2m, has
    2m simple roots there.  Because the valid set is an interval, doubling
    epsilon back towards start while 2 epsilon is still valid ends on the
    first valid element of the sequence.  2 epsilon >= beta there, and it
    is invalid, with no count, once it reaches ``depth_bound`` >= eps*, an
    exact bound on -f over the cell that holds a critical point.  Only a
    2 epsilon in [beta, depth_bound), a window at most about 2.5e-6 eps*
    wide, takes a Sturm count: of m <= 40 and starts 1, 3/7, 1/16 and
    10^-9, just m = 2, where 2 epsilon = 1/16 = eps*.  The same points x
    and -x split the intervals into brackets of the roots of g, which
    ``perturbed_interval_design`` isolates without a Sturm chain of g; it
    passes the f and the x it has built as ``base``.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    start = eps = as_fraction(start)
    if eps <= 0:
        raise DomainError("start must be positive")
    if base is None:
        base = _Unperturbed(m)
    beta = min(base.depth)
    while eps >= beta:
        eps /= 2
    while (
        eps < start
        and 2 * eps < base.depth_bound
        and base.window_root_count(2 * eps) == 2 * m
    ):
        eps *= 2
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
    g: RationalPolynomial, intervals: Sequence[IsolatingInterval], precision: Fraction
) -> list[Fraction]:
    """``refine_root`` on each of the 2m ascending intervals of the even g,
    run only on the right half where the left interval i is the mirror image
    (-hi, -lo) of interval 2m-1-i; the root there is the negation.

    No interval end is a root of g (g = eps at the roots of f, g < 0 at the
    critical points, and split points are not roots), so both intervals of
    a mirrored pair take the grid path of ``refine_root`` on mirrored grids,
    and the cell midpoint or exact grid root it returns does not depend on
    the search path.
    """
    half = len(intervals) // 2
    right = [refine_root(g, iv, precision) for iv in intervals[half:]]
    left = [
        -r if (iv.lo, iv.hi) == (-mirror.hi, -mirror.lo) else refine_root(g, iv, precision)
        for iv, mirror, r in zip(intervals[:half], reversed(intervals[half:]), reversed(right))
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
    checked by a Sturm count.
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
        if base.window_root_count(eps) != 2 * m:
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

    intervals = tuple(isolate_in_brackets(g, base.brackets(eps)))
    approx_roots = _refine_mirrored(g, intervals, prec / 64)
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
    support = [cos_turn(j, 2 * n + 1) for j in range(1, n + 1)] + [1.0]
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
        av = float(a)
        if not 0 < av < 1:
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
    half = [cos_turn(2 * k - 1, 4 * n) for k in range(1, n // 2 + 1)]
    middle = [0.0] if n % 2 else []
    return tuple(half + middle + [-x for x in reversed(half)])


def chebyshev_gauss_check(
    n: int, s_max: int, tolerance: float = 1e-12
) -> QuadratureReport:
    """Check (1/n) sum x_k^s against the arcsine moment for s = 1..s_max.

    The arcsine moments on [-1, 1] are 0 for odd s and C(s, s/2)/2^s for
    even s; the rule is exact through degree 2n-1, so s_max may not exceed
    that.  Odd-s means vanish exactly (see ``chebyshev_gauss_nodes``); even-s
    means are compared within ``tolerance``.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 1 <= s_max <= 2 * n - 1:
        raise DomainError(f"degree error: require 1 <= s_max <= 2n-1 = {2 * n - 1}")
    nodes = chebyshev_gauss_nodes(n)
    powers = [_float_powers(x, s_max) for x in nodes]
    entries = []
    ok = True
    for s in range(1, s_max + 1):
        acc = 0.0
        for k in range(n // 2):
            acc += powers[k][s] + powers[n - 1 - k][s]
        if n % 2:
            acc += powers[n // 2][s]
        mean = acc / n
        target = Fraction(0) if s % 2 else Fraction(comb(s, s // 2), 2**s)
        err = abs(mean - float(target))
        ok = ok and err <= tolerance
        entries.append(QuadratureCheckEntry(s, mean, target, err))
    variant = tuple(cos_turn(k, 2 * n - 1) for k in range(1, n + 1))
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
