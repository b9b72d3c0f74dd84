"""Exact univariate polynomial arithmetic over Q with certified real root
isolation and refinement.

Polynomials are immutable tuples of Fractions in ascending degree order.
Every value and sign comes from one integer kernel, ``_homogeneous``
(q^d c(p/q) by homogeneous Horner on primitive integer coefficients c, a
positive multiple of the polynomial, cleared once per polynomial), so every
count, every isolating interval and every refinement step is an exact
certificate rather than a floating-point estimate.

Isolation is one split tree: from the Cauchy bound, an interval holding
two or more roots is split at a non-root point near its middle, depth
first.  The number of roots in an interval comes from one of two counters,
and both give the same tree.  ``isolate_real_roots`` counts by a Sturm
chain computed over Z (primitive pseudo-remainders with positive scale
factors).  ``isolate_in_brackets`` takes brackets from the caller, each
holding exactly one root, and counts the brackets left of a split point,
plus one where the sign at the split point, which the search for that
point has already computed, differs from the sign at the left end of the
bracket holding it.  The tree runs on integers: its points are dyadic
multiples of the Cauchy bound, held as integer pairs and compared with
bracket ends by cross-multiplication, and Fractions are built only for the
intervals it returns.  Nothing here uses symmetry: an even polynomial is
split on both sides of 0, and its intervals come in mirror pairs whenever
every split took the middle.
Refinement finds the cell of the bisection grid that holds the root by
integer false position instead of halving to it.  Counts are for the
half-open interval (lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError, InternalDefectError, NotSquarefreeError
from .scalars import (
    Scalar,
    as_fraction,
    clear_denominators,
    format_scalar,
    parse_scalar,
)
from .symfun import ElemSymVector, PowerSumVector, newton_p_from_e


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with Fraction coefficients, ascending; () is the zero poly."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(cs: Iterable[Scalar]) -> "RationalPolynomial":
        out = [as_fraction(c) for c in cs]
        while out and out[-1] == 0:
            out.pop()
        return RationalPolynomial(tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @cached_property
    def _ints(self) -> tuple[int, ...]:
        """Primitive integer coefficients, a positive multiple of the
        polynomial; cleared once per polynomial and shared by every query
        on it."""
        return tuple(_primitive(clear_denominators(self.coeffs)[1]))

    def plus_constant(self, c: Scalar) -> "RationalPolynomial":
        cc = as_fraction(c)
        if self.is_zero:
            return RationalPolynomial.from_coeffs([cc])
        return RationalPolynomial.from_coeffs((self.coeffs[0] + cc,) + self.coeffs[1:])

    def to_json(self) -> dict:
        return {"coeffs": [format_scalar(c) for c in self.coeffs]}

    @staticmethod
    def from_json(doc: dict) -> "RationalPolynomial":
        return RationalPolynomial.from_coeffs(
            [parse_scalar(str(c), exact_only=True) for c in doc["coeffs"]]
        )


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("isolating interval needs lo < hi")


def monic_from_roots(roots: Sequence[Scalar]) -> RationalPolynomial:
    """The monic polynomial whose root multiset is exactly ``roots``."""
    coeffs = [Fraction(1)]
    for r in roots:
        rr = as_fraction(r)
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= rr * coeffs[i + 1]
    return RationalPolynomial.from_coeffs(coeffs)


def evaluate(poly: RationalPolynomial, x: Scalar) -> Scalar:
    """Horner evaluation; exact on rational x."""
    acc: Scalar = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Sturm machinery over Z
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    c = _trim(c)
    if not c:
        return c
    g = 0
    for x in c:
        g = gcd(g, x)
    return [x // g for x in c]


def _derivative(c: list[int]) -> list[int]:
    return [i * ci for i, ci in enumerate(c)][1:]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b over Z, scaled by a positive power of |lc(b)|."""
    r = list(a)
    lb = b[-1]
    alb = abs(lb)
    sg = 1 if lb > 0 else -1
    db = len(b) - 1
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        lr = r[-1]
        r = [alb * x for x in r]
        for i, bc in enumerate(b):
            r[shift + i] -= sg * lr * bc
        r = _trim(r)
    return r


def _homogeneous(c: list[int], p: int, q: int) -> int:
    """q^d * c(p/q) for d = len(c) - 1, by homogeneous Horner on integers."""
    acc = c[-1]
    qk = 1
    for ci in reversed(c[:-1]):
        qk *= q
        acc = acc * p + ci * qk
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _eval_sign(c: list[int], x: Fraction) -> int:
    """Sign of the polynomial at x = p/q (q > 0), the sign of q^d c(p/q)."""
    return _sign(_homogeneous(c, x.numerator, x.denominator))


class _SturmChain:
    """Sturm chain over Z of a nonzero squarefree polynomial, queried at
    rational points; ``chain[0]`` is its primitive integer multiple."""

    def __init__(self, poly: RationalPolynomial):
        if poly.is_zero:
            raise DomainError("zero polynomial")
        p0 = poly._ints
        chain = [p0]
        p1 = _primitive(_derivative(p0))
        if p1:
            chain.append(p1)
            while len(chain[-1]) > 1:
                r = _pseudo_rem(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(_primitive([-x for x in r]))
        # The chain ends at gcd(P, P') up to positive factors; a nontrivial
        # final degree means a repeated root.
        if len(chain[-1]) > 1:
            raise NotSquarefreeError(
                "polynomial has repeated roots; reduce to its squarefree part first"
            )
        self.chain = chain

    def variations(self, p: int, q: int) -> int:
        """Sign variations of the chain at p/q, q > 0."""
        signs = [s for s in (_sign(_homogeneous(c, p, q)) for c in self.chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        v = self.variations
        return v(lo.numerator, lo.denominator) - v(hi.numerator, hi.denominator)


def cauchy_root_bound(poly: RationalPolynomial) -> Fraction:
    """1 + max |c_i| / |c_deg|; every real root lies strictly inside."""
    if poly.degree < 1:
        raise DomainError("root bound needs degree >= 1")
    lead = abs(poly.leading)
    return 1 + max((abs(c) for c in poly.coeffs[:-1]), default=Fraction(0)) / lead


def sturm_root_count(poly: RationalPolynomial, lo: Scalar, hi: Scalar) -> int:
    """Exact number of distinct real roots in (lo, hi].

    The polynomial must be squarefree (checked via the gcd with the
    derivative implicit in the Sturm chain).
    """
    flo, fhi = as_fraction(lo), as_fraction(hi)
    if not flo < fhi:
        raise DomainError("require lo < hi")
    return _SturmChain(poly).count(flo, fhi)


def _split_point(
    c: list[int], N: int, D: int, lo: tuple[int, int], hi: tuple[int, int]
) -> tuple[tuple[int, int], int]:
    """A point lo + (hi - lo) k/128 that is not a root of c, for k tried in
    the order 64, 65, 63, 66, ..., and the sign of c there.  Points are
    tree points (``_split_tree``)."""
    (a, ea), (b, eb) = lo, hi
    e = max(ea, eb)
    a <<= e - ea
    b <<= e - eb
    for j in range(len(c) + 1):
        k = 64 + (j + 1) // 2 * (1 if j % 2 else -1)
        v, f = (a << 7) + (b - a) * k, e + 7
        if v == 0:
            f = 0
        else:
            shift = min((v & -v).bit_length() - 1, f)
            v, f = v >> shift, f - shift
        sign = _sign(_homogeneous(c, N * v, D << f))
        if sign != 0:
            return (v, f), sign
    raise InternalDefectError("could not find a non-root split point")


def _split_tree(c: list[int], rank) -> list[IsolatingInterval]:
    """The isolating intervals of the split tree of c from the Cauchy bound.

    The tree runs on integers: each of its points is x = B v / 2^e, held as
    the pair (v, e), for integers v and e >= 0, v odd unless e = 0, and the
    Cauchy bound B = N/D = 1 + max |c_i| / |c_d| in lowest terms; x reaches
    c and ``rank`` as p/q = N v / (D 2^e).  Fractions are built only for the
    intervals returned.  ``rank(p, q, s)`` is, up to a constant, the number
    of roots <= p/q (q > 0), for a point that is not a root, where c has the
    sign s; the number of roots in (lo, hi] is rank(hi) - rank(lo).  An
    interval with two or more roots is split at ``_split_point``, its right
    half pushed first and its left half popped first, so the intervals
    come out in ascending order.
    """
    lead = abs(c[-1])
    N = lead + max(abs(x) for x in c[:-1])
    h = gcd(N, lead)
    N, D = N // h, lead // h

    def at(pt: tuple[int, int]) -> tuple[int, int]:
        return N * pt[0], D << pt[1]

    def ranked(pt: tuple[int, int]) -> int:
        p, q = at(pt)
        return rank(p, q, _sign(_homogeneous(c, p, q)))

    stack = [((-1, 0), (1, 0), ranked((-1, 0)), ranked((1, 0)))]
    out = []
    while stack:
        lo, hi, rlo, rhi = stack.pop()
        cnt = rhi - rlo
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(IsolatingInterval(Fraction(*at(lo)), Fraction(*at(hi))))
            continue
        mid, sign = _split_point(c, N, D, lo, hi)
        rmid = rank(*at(mid), sign)
        stack.append((mid, hi, rmid, rhi))
        stack.append((lo, mid, rlo, rmid))
    return out


def isolate_real_roots(poly: RationalPolynomial) -> list[IsolatingInterval]:
    """Pairwise disjoint rational intervals, one per distinct real root."""
    chain = _SturmChain(poly)
    if poly.degree == 0:
        return []
    return _split_tree(poly._ints, lambda p, q, s: -chain.variations(p, q))


def isolate_in_brackets(
    poly: RationalPolynomial, brackets: Sequence[IsolatingInterval]
) -> list[IsolatingInterval]:
    """The intervals ``isolate_real_roots`` gives, without a Sturm chain.

    The caller certifies that each bracket holds exactly one root and that
    together they hold every real root; here it is checked only that the
    brackets are ascending and disjoint and that the polynomial has
    opposite, nonzero signs at the two ends of each.  A wrong certificate
    gives wrong intervals.  Split points are compared with the bracket ends
    by cross-multiplication.
    """
    if poly.is_zero:
        raise DomainError("zero polynomial")
    if not brackets:
        return []
    c = poly._ints
    his = [(iv.hi.numerator, iv.hi.denominator) for iv in brackets]
    los = [(iv.lo.numerator, iv.lo.denominator) for iv in brackets]
    if any(h * ld > l * hd for (h, hd), (l, ld) in zip(his, los[1:])):
        raise DomainError("brackets must be ascending and disjoint")
    signs: dict[tuple[int, int], int] = {}

    def sign_at(p: int, q: int) -> int:
        # once per end that two brackets share
        if (p, q) not in signs:
            signs[p, q] = _sign(_homogeneous(c, p, q))
        return signs[p, q]

    left_signs = [sign_at(*x) for x in los]
    if any(s * sign_at(*x) >= 0 for s, x in zip(left_signs, his)):
        raise DomainError("a bracket does not show a sign change")
    n = len(brackets)

    def rank(p: int, q: int, s: int) -> int:
        # Brackets ending at or left of t = p/q, plus the bracket t lies
        # inside, if t is right of its root.
        i, j = 0, n
        while i < j:
            mid = (i + j) // 2
            h, hd = his[mid]
            if h * q <= p * hd:
                i = mid + 1
            else:
                j = mid
        if i < n and los[i][0] * q < p * los[i][1] and s != left_signs[i]:
            i += 1
        return i

    return _split_tree(c, rank)


def refine_root(
    poly: RationalPolynomial, interval: IsolatingInterval, precision: Scalar
) -> Fraction:
    """The rational that bisection of the interval to width <= precision
    returns: within +-precision of the unique root in the interval.

    Bisection of (lo, hi), w = hi - lo, makes k halvings, k >= 0 the least
    with w / 2^k <= precision.  It ends on the one level-k cell
    (lo + w j/2^k, lo + w (j+1)/2^k) that holds the root and returns its
    midpoint, or an earlier midpoint that is an exact root.  Here j is found
    without the halvings, by an integer false-position search over the grid
    (``_grid_cell``): typically 10 to 15 evaluations where bisection makes k,
    and the same rational to the last bit.

    If lo itself is a root, just outside (lo, hi], lo first steps inside by
    halving steps until the bracket regains a sign change.  An interval
    with no sign change, also just right of such a root, is rejected.  An
    interval with several sign changes still gives a point within precision
    of one of those roots, but not always the one bisection would pick.
    """
    prec = as_fraction(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    if poly.is_zero:
        raise DomainError("zero polynomial")
    c = poly._ints
    lo, hi = interval.lo, interval.hi
    vhi = _homogeneous(c, hi.numerator, hi.denominator)
    if vhi == 0:
        return hi
    vlo = _homogeneous(c, lo.numerator, lo.denominator)
    if vlo == 0:
        # Just right of lo, c has the sign of its first derivative that is
        # nonzero at lo; the steps below end only if that differs from hi's.
        dc, right = c, 0
        while right == 0:
            dc = _derivative(dc)
            right = _eval_sign(dc, lo)
        if (right > 0) == (vhi > 0):
            raise DomainError("interval does not bracket a sign change")
        step = hi - lo
        while True:
            step /= 2
            cand = lo + step
            vlo = _homogeneous(c, cand.numerator, cand.denominator)
            if vlo == 0:
                return cand
            if (vlo > 0) != (vhi > 0):
                lo = cand
                break
    if (vlo > 0) == (vhi > 0):
        raise DomainError("interval does not bracket a sign change")
    return _grid_cell(c, lo, hi, vlo, vhi, prec)


def _grid_cell(
    c: list[int], lo: Fraction, hi: Fraction, vlo: int, vhi: int, prec: Fraction
) -> Fraction:
    """Midpoint of the level-k bisection cell of (lo, hi) that holds the root.

    The grid points are x_t = (A + B t) / D, t = 0 .. 2^k, with integers A, B
    and D = lcm(denominators) 2^k, so D^d c(x_t) is the integer kernel
    ``_homogeneous`` on the coefficients c_i D^(d-i) at A + B t.  The index
    bracket [jl, jh] starts at [0, 2^k] and shrinks by integer false position
    with the Illinois rule: after r > 1 false-position steps in a row have
    moved the same end, the other end's value is halved r - 1 times for the
    next one.  A false-position step that fails to halve the bracket is
    followed by a bisection step, so every two evaluations at least halve
    it: at most 2k evaluations.  The search stops at jh - jl = 1.  A grid
    point that is an exact root is returned as it is; bisection meets it as
    a midpoint.  ``vlo`` and ``vhi`` are q^d c(p/q) at lo = p/q and hi, of
    opposite signs.
    """
    d = len(c) - 1
    ratio = (hi - lo) / prec
    k = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    M = lcm(lo.denominator, hi.denominator)
    D = M << k
    left = lo.numerator * (M // lo.denominator)
    A = left << k
    B = hi.numerator * (M // hi.denominator) - left
    cs = [0] * (d + 1)
    dpow = 1
    for i in range(d, -1, -1):
        cs[i] = c[i] * dpow
        dpow *= D
    fl = vlo * (D // lo.denominator) ** d
    fh = vhi * (D // hi.denominator) ** d
    left_positive = vlo > 0
    jl, jh = 0, 1 << k
    run = 0  # consecutive false-position steps that moved jl (> 0) or jh (< 0)
    bisect = False
    while jh - jl > 1:
        width = jh - jl
        if bisect:
            j = (jl + jh) // 2
        else:
            wl, wh = fl, fh
            if run > 1:
                wh >>= run - 1
            elif run < -1:
                wl >>= -run - 1
            j = min(max(jl + wl * width // (wl - wh), jl + 1), jh - 1)
        v = _homogeneous(cs, A + B * j, 1)
        if v == 0:
            return Fraction(A + B * j, D)
        moved = 1 if (v > 0) == left_positive else -1
        if moved > 0:
            jl, fl = j, v
        else:
            jh, fh = j, v
        if not bisect:
            run = run + moved if run * moved > 0 else moved
        bisect = not bisect and 2 * (jh - jl) > width
    return Fraction(2 * A + B * (2 * jl + 1), 2 * D)


def power_sums_from_coeffs(
    poly: RationalPolynomial, K: int, *, normalize: bool = False
) -> PowerSumVector:
    """p_1 .. p_K of the root multiset, straight from the coefficients.

    For monic P of degree n the signed coefficients are the elementary
    symmetric values of the roots, e_k = (-1)^k c_{n-k}; the Newton
    recursion then yields exact rational power sums with no root extraction.
    Non-monic input is an error unless ``normalize`` is set.
    """
    if poly.degree < 1:
        raise DomainError("need degree >= 1")
    coeffs = poly.coeffs
    if poly.leading != 1:
        if not normalize:
            raise DomainError("polynomial must be monic (or pass normalize=True)")
        coeffs = tuple(c / poly.leading for c in coeffs)
    n = len(coeffs) - 1
    e = ElemSymVector(tuple((-1) ** k * coeffs[n - k] for k in range(n + 1)))
    return newton_p_from_e(e, n, K)
