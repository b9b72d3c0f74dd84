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
(``refine_root``).  The default epsilon comes from the critical values of f
(``choose_epsilon``).

Also here: the regular-polygon cosine design, the alternating binomial sum
with its closed form, the rational binomial weighted design, padding
operations that preserve odd residuals, and an equal-weight Chebyshev-Gauss
quadrature check for the arcsine measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    evaluate,
    isolate_real_roots,
    monic_from_roots,
    power_sums_from_coeffs,
    refine_root,
    sturm_root_count,
)
from .scalars import (
    Scalar,
    as_fraction,
    cos_turn,
    decimal_string,
    format_scalar,
    mode_zero,
)

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


def _window_root_count(g: RationalPolynomial, m: int) -> int | None:
    """Distinct real roots of g in the open working window, or None if g has
    a repeated root.  Window endpoints are roots of f, never of g (g there
    equals epsilon > 0), so the half-open Sturm count is the open count."""
    lo = Fraction(-1) + Fraction(1, 2 * m)
    hi = Fraction(1) - Fraction(1, 2 * m)
    try:
        return sturm_root_count(g, lo, hi)
    except NotSquarefreeError:
        return None


def choose_epsilon(m: int, start: Scalar = DEFAULT_EPSILON_START) -> Fraction:
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
    epsilon back towards start while a Sturm count at 2 epsilon still finds
    2m roots ends on the first valid element of the sequence; as beta is
    close to eps*, that usually takes a single count.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    start = eps = as_fraction(start)
    if eps <= 0:
        raise DomainError("start must be positive")
    roots = base_roots(m)
    f = monic_from_roots(roots)
    df = RationalPolynomial.from_coeffs(
        [i * c for i, c in enumerate(f.coeffs)][1:]
    )
    beta = min(
        -evaluate(f, refine_root(df, IsolatingInterval(a, b), (b - a) / 2**20))
        for a, b in zip(roots[::2], roots[1::2])
        if b > 0
    )
    while eps >= beta:
        eps /= 2
    while eps < start and _window_root_count(f.plus_constant(2 * eps), m) == 2 * m:
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


def perturbed_interval_design(
    m: int,
    epsilon: Scalar | None = None,
    precision: Scalar = DEFAULT_PRECISION,
) -> PerturbedDesignResult:
    """Construct the smallest asymmetric T_m design, certificate included.

    The exact residuals are, for k = 0..m-1,

        1 + sum_{l=0..2k+1} C(2k+1, l) (-1/(2m))^(2k+1-l) p_l(A')

    with p_l(A') read off g's coefficients (p_0 = 2m).  A nonzero value
    indicates a defect, not a bad input.  Roots are refined a good deal
    tighter than ``precision`` so that direct floating summation over the
    emitted points stays within a few units of precision of zero.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    prec = as_fraction(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    f = monic_from_roots(base_roots(m))
    if epsilon is None:
        eps = choose_epsilon(m)
    else:
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise DomainError("epsilon must be positive")
        if _window_root_count(f.plus_constant(eps), m) != 2 * m:
            raise DomainError(
                f"epsilon {format_scalar(eps)} does not leave 2m simple roots "
                "in the working window"
            )
    g = f.plus_constant(eps)

    p = power_sums_from_coeffs(g, max(2 * m - 1, 1))
    shift = Fraction(-1, 2 * m)
    certificate = []
    for k in range(m):
        r = Fraction(1)
        for l in range(2 * k + 2):
            pl = Fraction(2 * m) if l == 0 else p.p(l)
            r += comb(2 * k + 1, l) * shift ** (2 * k + 1 - l) * pl
        if r != 0:
            raise InternalDefectError(
                f"exact residual at odd index {2 * k + 1} is {r}, not 0"
            )
        certificate.append(r)

    intervals = tuple(isolate_real_roots(g))
    if len(intervals) != 2 * m:
        raise InternalDefectError("validated epsilon lost roots during isolation")
    approx_roots = [refine_root(g, iv, prec / 64) for iv in intervals]
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
    return Configuration(tuple(new_points), tolerance=config.tolerance, mode=config.mode)


def add_zero(config: Configuration) -> Configuration:
    """Append the point 0; odd power sums are unchanged."""
    zero = mode_zero(config.mode)
    return Configuration(
        config.points + (zero,), tolerance=config.tolerance, mode=config.mode
    )


def _float_power(x: float, k: int) -> float:
    """x**k by binary exponentiation over float multiplies.

    Multiplication is exactly sign-symmetric, so for odd k the value at -x is
    the exact negation of the value at x; sums over a mirrored node set then
    cancel to exactly 0.0.
    """
    r, b = 1.0, x
    while k:
        if k & 1:
            r *= b
        b *= b
        k >>= 1
    return r


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
    entries = []
    ok = True
    for s in range(1, s_max + 1):
        acc = 0.0
        for k in range(n // 2):
            acc += _float_power(nodes[k], s) + _float_power(nodes[n - 1 - k], s)
        if n % 2:
            acc += _float_power(0.0, s)
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
