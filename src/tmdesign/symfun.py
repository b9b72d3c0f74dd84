"""Power sums, elementary symmetric polynomials, and the Newton recursions.

For a multiset {x_1, ..., x_n} write p_k = sum_i x_i^k and e_k for the k-th
elementary symmetric polynomial (e_0 = 1, e_k = 0 for k > n).  The two are
linked by

    k*e_k = sum_{i=1..k}   (-1)^(i-1) e_{k-i} p_i      (1 <= k <= n)
    0     = sum_{i=k-n..k} (-1)^(i-1) e_{k-i} p_i      (k >= n, with p_0 = n)

which lets either family be computed from the other without touching the
points themselves.  A consequence used throughout this package: when
2m-1 <= n, the odd power sums p_1, p_3, ..., p_{2m-1} vanish iff the odd
elementary symmetric polynomials of the same indices do.

Exact input (int/Fraction) runs on cleared integers: with L the lcm of the
denominators and a_i = L x_i, p_k = p_k(a) / L^k and e_k = e_k(a) / L^k, so
each result costs one division and every exact zero test is an integer
test.  The Newton recursions run the same way on the graded numerators
L^k p_k and L^k e_k (``_graded``).  Float input runs the same loops on the
values themselves.  Whether a computation is exact is read from its values:
exact inputs yield exact outputs.

The T_m condition on [-1, 1], that sum_i w_i x_i^k vanishes for every odd
k through 2m-1, is tested in one place, ``odd_moments``: the interval
verifiers, ``extend_odd_power_sums`` and ``odd_equivalence_check`` all run
it, the last two at unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Sequence

from .errors import (
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
)
from .scalars import DEFAULT_TOL, Scalar, all_exact, clear_denominators, near


@dataclass(frozen=True)
class PowerSumVector:
    """Power sums p_1 .. p_K of some multiset; ``entries[k-1]`` is p_k."""

    entries: tuple[Scalar, ...]

    @property
    def exact(self) -> bool:
        """Whether every entry is exact (int or Fraction)."""
        return all_exact(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def p(self, k: int) -> Scalar:
        if not 1 <= k <= len(self.entries):
            raise DomainError(f"p_{k} not available (have p_1..p_{len(self.entries)})")
        return self.entries[k - 1]


@dataclass(frozen=True)
class ElemSymVector:
    """Elementary symmetric values e_0 .. e_K; ``entries[k]`` is e_k."""

    entries: tuple[Scalar, ...]

    @property
    def exact(self) -> bool:
        """Whether every entry is exact (int or Fraction)."""
        return all_exact(self.entries)

    @property
    def order(self) -> int:
        """Largest index K with e_K stored."""
        return len(self.entries) - 1

    def e(self, k: int) -> Scalar:
        if not 0 <= k <= self.order:
            raise DomainError(f"e_{k} not available (have e_0..e_{self.order})")
        return self.entries[k]


def _numerators(vals: tuple[Scalar, ...]) -> tuple[int | None, Sequence[Scalar]]:
    """(L, a_i = L x_i) for exact values; (None, the values) otherwise."""
    return clear_denominators(vals) if all_exact(vals) else (None, vals)


def _graded(vals: tuple[Scalar, ...]) -> tuple[int | None, list[Scalar]]:
    """(L, [L^k x_k]) for exact values x_1, x_2, ... whose k-th entry has
    degree k, such as p_k or e_k; (None, the values) otherwise.

    L grows one index at a time by the part of the denominator of x_k that
    L^k lacks, so every L^k x_k is an integer.  For values of points over
    one denominator d, L stays near d, where the lcm of the denominators
    would be near d^K.
    """
    if not all_exact(vals):
        return None, list(vals)
    L = 1
    for k, x in enumerate(vals, 1):
        d = x.denominator
        L *= d // gcd(d, pow(L, k, d))
    out, Lk = [], 1
    for x in vals:
        Lk *= L
        out.append(x.numerator * (Lk // x.denominator))
    return L, out


def _over(L: int | None, nums: Sequence[Scalar], first: int) -> list[Scalar]:
    """Entry k (counted from ``first``) of ``nums`` divided by L^k: the
    values of homogeneous numerators of degree k.  As is when L is None."""
    if L is None:
        return list(nums)
    out, Lk = [], L**first
    for num in nums:
        out.append(Fraction(num, Lk))
        Lk *= L
    return out


def _power_sum_nums(nums: Sequence[Scalar], K: int) -> list[Scalar]:
    out = []
    powers = list(nums)
    for k in range(1, K + 1):
        if k > 1:
            powers = [pw * v for pw, v in zip(powers, nums)]
        out.append(sum(powers))
    return out


def folded_odd_sums(points: Sequence[int], weights: Sequence[int], m: int) -> list[int]:
    """sum_i w_i a_i^k for k = 1, 3, ..., 2m-1, on integers a_i and w_i.

    An odd power is an odd function, so the points fold by |a|: with
    c_v = (weight at v) - (weight at -v) for v > 0, the k-th sum is
    sum_v c_v v^k.  Zeros and every v with c_v = 0 drop out (a symmetric
    set folds to nothing), and each term steps to the next odd power by v^2.
    """
    fold: dict[int, int] = {}
    for a, w in zip(points, weights):
        if a < 0:
            a, w = -a, -w
        fold[a] = fold.get(a, 0) + w
    fold.pop(0, None)
    terms = [c * v for v, c in fold.items() if c]
    squares = [v * v for v, c in fold.items() if c]
    out = []
    for k in range(m):
        if k:
            terms = list(map(mul, terms, squares))
        out.append(sum(terms))
    return out


def _elem_nums(nums: Sequence[Scalar], K: int) -> list[Scalar]:
    e: list[Scalar] = [1] + [0] * K
    for v in nums:
        for j in range(K, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def power_sums(values: Sequence[Scalar], K: int) -> PowerSumVector:
    """Direct power sums p_1 .. p_K of a nonempty multiset."""
    vals = tuple(values)
    if not vals:
        raise DomainError("power sums of an empty multiset are undefined")
    if K < 1:
        raise DomainError("K must be a positive integer")
    L, nums = _numerators(vals)
    return PowerSumVector(tuple(_over(L, _power_sum_nums(nums, K), 1)))


def elementary_symmetric(values: Sequence[Scalar], K: int) -> ElemSymVector:
    """e_0 .. e_K by incremental expansion of prod (T - x_i).

    Entries with index above the multiset size come out exactly zero.
    """
    vals = tuple(values)
    if K < 1:
        raise DomainError("K must be a positive integer")
    L, nums = _numerators(vals)
    return ElemSymVector(tuple(_over(L, _elem_nums(nums, K), 0)))


def newton_e_from_p(p: PowerSumVector, K: int) -> ElemSymVector:
    """e_1 .. e_K from power sums via k*e_k = sum (-1)^(i-1) e_{k-i} p_i.

    Valid for K up to the size of the originating multiset.  Exact
    p_1 .. p_K run on the integers P_i = L^i p_i (``_graded``) and carry
    E_k = k! L^k e_k, an integer:

        E_k = sum_{i=1..k} (-1)^(i-1) (k-1)!/(k-i)! E_{k-i} P_i,

    so each e_k is one division, E_k / (k! L^k).
    """
    if K < 1:
        raise DomainError("K must be a positive integer")
    if len(p) < K:
        raise DomainError(f"need power sums through {K}, have {len(p)}")
    L, P = _graded(p.entries[:K])
    e: list[Scalar] = [1]
    for k in range(1, K + 1):
        acc: Scalar = 0
        if L is None:
            for i in range(1, k + 1):
                term = e[k - i] * P[i - 1]
                acc = acc + term if i % 2 == 1 else acc - term
            e.append(acc / k)
            continue
        fall = 1  # (k-1)!/(k-i)!
        for i in range(1, k + 1):
            term = fall * e[k - i] * P[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
            fall *= k - i
        e.append(acc)
    if L is None:
        return ElemSymVector(tuple(e))
    out, scale = [], 1
    for k, num in enumerate(e):
        out.append(Fraction(num, scale))
        scale *= (k + 1) * L
    return ElemSymVector(tuple(out))


def newton_p_from_e(e: ElemSymVector, n: int, K: int) -> PowerSumVector:
    """p_1 .. p_K of the n-element multiset determined by e.

    Uses the k <= n recursion while it applies, then the k > n variant in
    which e_j is zero for j > n.  Only e_1 .. e_{min(K, n)} are consulted.
    Both are homogeneous, so exact values run on the integers E_j = L^j e_j
    (``_graded``) with no division, and p_k = P_k / L^k.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if K < 1:
        raise DomainError("K must be a positive integer")
    top = min(K, n)
    if e.order < top:
        raise DomainError(
            f"inconsistent e length: need entries through {top}, have {e.order}"
        )
    L, nums = _graded(e.entries[1 : top + 1])
    E = [1, *nums]  # E[0] is never consulted
    p: list[Scalar] = [n]  # p_0 = n by convention, never consulted
    for k in range(1, K + 1):
        if k <= n:
            acc: Scalar = 0
            for i in range(1, k):
                term = E[k - i] * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            rhs = k * E[k] - acc
            p.append(rhs if k % 2 == 1 else -rhs)
        else:
            acc = 0
            for i in range(k - n, k):
                term = E[k - i] * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            p.append(-acc if k % 2 == 1 else acc)
    return PowerSumVector(tuple(_over(L, p[1:], 1)))


def power_scales(values: Sequence[Scalar], weights=None) -> Callable[[int], float]:
    """k -> ``power_scale(values, k, weights)``, the same floats, with each
    value and weight converted to a float once rather than once per k."""
    xs = [abs(float(x)) for x in values]
    if weights is None:
        return lambda k: 1.0 + sum(x**k for x in xs)
    ws = [abs(float(w)) for w in weights]
    return lambda k: 1.0 + sum(x**k * w for x, w in zip(xs, ws))


def power_scale(values: Sequence[Scalar], k: int, weights=None) -> float:
    """Scale 1 + sum |w_i| |x_i|^k of approximate zero tests; w_i = 1 unless given."""
    return power_scales(values, weights)(k)


def odd_moments(
    values: Sequence[Scalar], weights: Sequence[Scalar], m: int, tol: float | None
) -> tuple[list[Scalar], int | None]:
    """Residuals sum_i w_i x_i^k for k = 1, 3, ..., 2m-1, and the first k
    whose residual is not zero (None if all are): the test of the interval
    theorem, that the points and weights make a T_m design.

    The zero test is r == 0 when ``tol is None``, else ``near`` at tol and
    scale ``power_scale(values, k, weights)``.  Exact values and weights
    run on integers: with a_i = L x_i and b_i = W w_i cleared separately,
    the k-th residual is sum a_i^k b_i / (L^k W), and the integer sum comes
    folded by |a_i| (``folded_odd_sums``); no value is converted to a float
    unless ``tol`` is given.  Other input runs the power loop on the values
    as they are.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    residuals = []
    if all_exact(values) and all_exact(weights):
        L, a = clear_denominators(values)
        W, b = clear_denominators(weights)
        den, step = L * W, L * L
        for r in folded_odd_sums(a, b, m):
            residuals.append(Fraction(r, den))
            den *= step
    else:
        powers = list(values)
        for k in range(1, 2 * m):
            if k > 1:
                powers = list(map(mul, powers, values))
            if k % 2 == 1:
                residuals.append(sum(map(mul, powers, weights)))
    scale = None if tol is None else power_scales(values, weights)
    for k, r in zip(range(1, 2 * m, 2), residuals):
        if not (r == 0 if scale is None else near(r, 0, tol, scale(k))):
            return residuals, k
    return residuals, None


@dataclass(frozen=True)
class OddEquivalence:
    odd_p_all_zero: bool
    odd_e_all_zero: bool


def odd_equivalence_check(
    values: Sequence[Scalar], m: int, tol: float = DEFAULT_TOL
) -> OddEquivalence:
    """Whether the odd power sums / odd elementary symmetric values through
    index 2m-1 all vanish.

    Requires 2m-1 <= n; under that hypothesis the two booleans always agree,
    so a mismatch in exact arithmetic is a defect.  The power sums are
    tested by ``odd_moments`` at unit weights.
    """
    vals = tuple(values)
    n = len(vals)
    if 2 * m - 1 > n:
        raise PreconditionError(f"requires 2m-1 <= n; got 2m-1={2 * m - 1} > n={n}")
    if not vals:
        raise DomainError("power sums of an empty multiset are undefined")
    e = elementary_symmetric(vals, 2 * m - 1)
    exact = all_exact(vals)
    tol = None if exact else tol
    p_zero = odd_moments(vals, (1,) * n, m, tol)[1] is None
    # The scale of e_k is 1 + e_k(|x_1|, ..., |x_n|), built in approximate
    # mode only: near ignores it in exact mode, where the float of a value
    # can overflow.
    abs_e = (
        None if exact else elementary_symmetric([abs(float(v)) for v in vals], 2 * m - 1)
    )
    e_zero = all(
        near(e.e(k), 0, tol, 1.0 if exact else 1.0 + float(abs_e.e(k)))
        for k in range(1, 2 * m, 2)
    )
    if exact and p_zero != e_zero:
        raise InternalDefectError(
            "odd power sums and odd elementary symmetric values disagree "
            "under exact arithmetic"
        )
    return OddEquivalence(p_zero, e_zero)


def extend_odd_power_sums(
    values: Sequence[Scalar], m: int, K: int, tol: float | None = DEFAULT_TOL
) -> tuple[Scalar, ...]:
    """Odd power sums p_1, p_3, ..., p_{2K-1}, all certified zero.

    Hypothesis: |values| <= 2m and p_{2k-1} = 0 for k = 1..m, tested by
    ``odd_moments`` at unit weights and tolerance ``tol`` (scale-aware for
    a float, exactly for None).  The odd sums past 2m-1 are then forced:
    for 2k-1 > n the k >= n recursion splits into a sum of odd-index e's
    times even-index p's and a sum of even-index e's times lower odd-index
    p's, and both families of odd-index factors vanish.  K <= m asks for
    the hypothesis alone; K > m also runs that recursion, on the values of
    the e's and of the even sums through 2K-2.

    Exact values under ``tol`` None also have the odd e_1, e_3, ...
    through e_n checked on the cleared numerators E_j = L^j e_j, or
    ``InternalDefectError`` is raised.  Other values skip the check, as
    rounded e's need not vanish.  Each extended sum is then exactly zero:
    every product in it has a zero factor, an odd-index e or a lower odd
    sum.

    Returns the K odd sums in order; entry k-1 is p_{2k-1}, the residual of
    ``odd_moments`` for k <= m.  Raises with the smallest violating odd
    index if the hypothesis fails.
    """
    vals = tuple(values)
    n = len(vals)
    if n == 0:
        raise DomainError("empty multiset")
    if K < 1:
        raise DomainError("K must be a positive integer")
    if n > 2 * m:
        raise PreconditionError(f"requires |values| <= 2m; got n={n} > 2m={2 * m}")
    exact = tol is None and all_exact(vals)
    odd, idx = odd_moments(vals, (1,) * n, m, tol)
    if idx is not None:
        raise HypothesisError(
            f"odd power sum p_{idx} = {odd[idx // 2]} is nonzero", failing_index=idx
        )
    # The e's are built only where they are tested (exact) or used (K > m).
    if K <= m and not exact:
        return tuple(odd[:K])
    L, nums = _numerators(vals)
    E = _elem_nums(nums, n)
    if exact:
        for j in range(1, n + 1, 2):
            if E[j] != 0:
                raise InternalDefectError(
                    f"e_{j} nonzero although all odd power sums through "
                    f"{2 * m - 1} vanish"
                )
    if K <= m:
        return tuple(odd[:K])
    e, P = _over(L, E, 0), _over(L, _power_sum_nums(nums, 2 * K - 2), 1)

    def e_at(j: int) -> Scalar:
        return e[j] if j <= n else 0

    for k in range(m + 1, K + 1):
        acc: Scalar = 0
        for i in range(1, m + 1):
            acc = acc + e_at(2 * i - 1) * P[2 * (k - i) - 1]
            acc = acc - e_at(2 * i) * odd[k - i - 1]
        odd.append(acc)
    return tuple(odd)
