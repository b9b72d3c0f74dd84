"""Exact univariate polynomial arithmetic over Q with Sturm-sequence root
isolation and certified bisection refinement.

Polynomials are immutable tuples of Fractions in ascending degree order.
Root counting works on a Sturm chain computed over Z (primitive
pseudo-remainders with positive scale factors), so every count, every
isolating interval and every refinement step is an exact certificate rather
than a floating-point estimate.  Every sign is decided by one integer test,
``_eval_sign``, on primitive integer coefficients, a positive multiple of the
polynomial: the chain at query points, the split points of isolation and
each bisection step.  Counts are for the half-open interval (lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def _int_coeffs(poly: RationalPolynomial) -> list[int]:
    return _primitive(clear_denominators(poly.coeffs)[1])


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


def _eval_sign(c: list[int], x: Fraction) -> int:
    """Sign of the polynomial at x = p/q (q > 0), via sum c_i p^i q^(d-i)."""
    p, q = x.numerator, x.denominator
    d = len(c) - 1
    pows = [1]
    for _ in range(d):
        pows.append(pows[-1] * p)
    acc = 0
    qpow = 1
    for i in range(d, -1, -1):
        acc += c[i] * pows[i] * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


class _SturmChain:
    """Sturm chain over Z of a nonzero squarefree polynomial, queried at
    rational points; ``chain[0]`` is its primitive integer multiple."""

    def __init__(self, poly: RationalPolynomial):
        if poly.is_zero:
            raise DomainError("zero polynomial")
        p0 = _int_coeffs(poly)
        chain = [p0]
        p1 = _primitive([i * c for i, c in enumerate(p0)][1:])
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

    def variations_at(self, x: Fraction) -> int:
        signs = [s for s in (_eval_sign(c, x) for c in self.chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        return self.variations_at(lo) - self.variations_at(hi)


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


def _split_point(c: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    """A point near the middle of (lo, hi) that is not a root of c."""
    width = hi - lo
    for j in range(len(c) + 1):
        k = 64 + (j + 1) // 2 * (1 if j % 2 else -1)
        mid = lo + width * Fraction(k, 128)
        if _eval_sign(c, mid) != 0:
            return mid
    raise InternalDefectError("could not find a non-root split point")


def isolate_real_roots(poly: RationalPolynomial) -> list[IsolatingInterval]:
    """Pairwise disjoint rational intervals, one per distinct real root."""
    chain = _SturmChain(poly)
    if poly.degree == 0:
        return []
    bound = cauchy_root_bound(poly)
    stack = [(-bound, bound, chain.count(-bound, bound))]
    out: list[IsolatingInterval] = []
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(IsolatingInterval(lo, hi))
            continue
        mid = _split_point(chain.chain[0], lo, hi)
        left = chain.count(lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    return sorted(out, key=lambda iv: iv.lo)


def refine_root(
    poly: RationalPolynomial, interval: IsolatingInterval, precision: Scalar
) -> Fraction:
    """Midpoint of a bisection-shrunk interval of width <= precision.

    The returned rational is within +-precision of the unique root in the
    interval; throughout, the bracketing endpoints keep opposite signs.
    """
    prec = as_fraction(precision)
    if prec <= 0:
        raise DomainError("precision must be positive")
    c = _int_coeffs(poly)
    lo, hi = interval.lo, interval.hi
    shi = _eval_sign(c, hi)
    if shi == 0:
        return hi
    slo = _eval_sign(c, lo)
    if slo == 0:
        # lo itself is a root of the polynomial, just outside (lo, hi]; step
        # inside until the bracket regains a sign change.
        step = hi - lo
        while True:
            step /= 2
            cand = lo + step
            slo = _eval_sign(c, cand)
            if slo == 0:
                return cand
            if slo != shi:
                lo = cand
                break
    if slo == shi:
        raise DomainError("interval does not bracket a sign change")
    while hi - lo > prec:
        mid = (lo + hi) / 2
        sm = _eval_sign(c, mid)
        if sm == 0:
            return mid
        if sm == shi:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


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
    e = ElemSymVector(
        tuple((-1) ** k * coeffs[n - k] for k in range(n + 1)), exact=True
    )
    return newton_p_from_e(e, n, K)
