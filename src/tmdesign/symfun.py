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
test.  Float input runs the same loops on the values themselves.  Exact
inputs yield exact outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    exact: bool = True

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
    exact: bool = True

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
    return PowerSumVector(tuple(_over(L, _power_sum_nums(nums, K), 1)), L is not None)


def elementary_symmetric(values: Sequence[Scalar], K: int) -> ElemSymVector:
    """e_0 .. e_K by incremental expansion of prod (T - x_i).

    Entries with index above the multiset size come out exactly zero.
    """
    vals = tuple(values)
    if K < 1:
        raise DomainError("K must be a positive integer")
    L, nums = _numerators(vals)
    return ElemSymVector(tuple(_over(L, _elem_nums(nums, K), 0)), L is not None)


def newton_e_from_p(p: PowerSumVector, K: int) -> ElemSymVector:
    """e_1 .. e_K from power sums via k*e_k = sum (-1)^(i-1) e_{k-i} p_i.

    Valid for K up to the size of the originating multiset.
    """
    if K < 1:
        raise DomainError("K must be a positive integer")
    if len(p) < K:
        raise DomainError(f"need power sums through {K}, have {len(p)}")
    e: list[Scalar] = [1]
    for k in range(1, K + 1):
        acc: Scalar = 0
        for i in range(1, k + 1):
            term = e[k - i] * p.p(i)
            acc = acc + term if i % 2 == 1 else acc - term
        e.append(Fraction(acc, k) if p.exact else acc / k)
    return ElemSymVector(tuple(e), p.exact)


def newton_p_from_e(e: ElemSymVector, n: int, K: int) -> PowerSumVector:
    """p_1 .. p_K of the n-element multiset determined by e.

    Uses the k <= n recursion while it applies, then the k > n variant in
    which e_j is zero for j > n.  Only e_0 .. e_{min(K, n)} are consulted.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if K < 1:
        raise DomainError("K must be a positive integer")
    if e.order < min(K, n):
        raise DomainError(
            f"inconsistent e length: need entries through {min(K, n)}, have {e.order}"
        )

    def e_at(j: int) -> Scalar:
        return e.e(j) if j <= min(e.order, n) else 0

    p: list[Scalar] = [n]  # p_0 = n by convention
    for k in range(1, K + 1):
        if k <= n:
            acc: Scalar = 0
            for i in range(1, k):
                term = e_at(k - i) * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            rhs = k * e_at(k) - acc
            p.append(rhs if k % 2 == 1 else -rhs)
        else:
            acc = 0
            for i in range(k - n, k):
                term = e_at(k - i) * p[i]
                acc = acc + term if i % 2 == 1 else acc - term
            p.append(-acc if k % 2 == 1 else acc)
    return PowerSumVector(tuple(p[1:]), e.exact)


def power_scale(values: Sequence[Scalar], k: int, weights=None) -> float:
    """Scale 1 + sum |w_i| |x_i|^k of approximate zero tests; w_i = 1 unless given."""
    if weights is None:
        return 1.0 + sum(abs(float(x)) ** k for x in values)
    return 1.0 + sum(abs(float(x)) ** k * abs(float(w)) for x, w in zip(values, weights))


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
    so a mismatch in exact arithmetic is a defect.
    """
    vals = tuple(values)
    n = len(vals)
    if 2 * m - 1 > n:
        raise PreconditionError(f"requires 2m-1 <= n; got 2m-1={2 * m - 1} > n={n}")
    exact = all_exact(vals)
    tol = None if exact else tol
    p = power_sums(vals, 2 * m - 1)
    e = elementary_symmetric(vals, 2 * m - 1)
    odd = range(1, 2 * m, 2)
    # near ignores the scale in exact mode.
    p_zero = all(
        near(p.p(k), 0, tol, 1.0 if exact else power_scale(vals, k)) for k in odd
    )
    e_zero = all(
        near(e.e(k), 0, tol, 1.0 if exact else _elem_scale(vals, k)) for k in odd
    )
    if exact and p_zero != e_zero:
        raise InternalDefectError(
            "odd power sums and odd elementary symmetric values disagree "
            "under exact arithmetic"
        )
    return OddEquivalence(p_zero, e_zero)


def _elem_scale(values: Sequence[Scalar], k: int) -> float:
    abs_e = elementary_symmetric([abs(float(v)) for v in values], k)
    return 1.0 + float(abs_e.e(k))


def extend_odd_power_sums(
    values: Sequence[Scalar], m: int, K: int, tol: float | None = DEFAULT_TOL
) -> tuple[Scalar, ...]:
    """Odd power sums p_1, p_3, ..., p_{2K-1}, all certified zero.

    Hypothesis: |values| <= 2m and p_{2k-1} = 0 for k = 1..m (verified here
    with ``near`` at tolerance ``tol``: scale-aware for a float, exactly for
    None, which also checks that the forced odd e's and p's come out zero).
    The remaining odd sums are then forced: for 2k-1 > n the k >= n
    recursion splits into a sum of odd-index e's times even-index p's and a
    sum of even-index e's times lower odd-index p's, and both families of
    odd-index factors vanish.

    Exact values run on their cleared numerators P_k = L^k p_k and
    E_j = L^j e_j.  The recursion is homogeneous of degree 2k-1 in them, so
    it yields L^(2k-1) p_(2k-1), and every exact zero test is an integer one.

    Returns the K odd sums in order; entry k-1 is p_{2k-1}.  Raises with the
    smallest violating odd index if the hypothesis fails.
    """
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

    def value(num: Scalar, k: int) -> Scalar:
        return num if L is None else Fraction(num, L**k)

    P = _power_sum_nums(nums, max(2 * K - 2, 2 * m - 1, 1))
    for k in range(1, m + 1):
        idx = 2 * k - 1
        if exact:
            ok = P[idx - 1] == 0
        else:
            ok = near(value(P[idx - 1], idx), 0, tol, power_scale(vals, idx))
        if not ok:
            raise HypothesisError(
                f"odd power sum p_{idx} = {value(P[idx - 1], idx)} is nonzero",
                failing_index=idx,
            )

    # The e's are built only where they are tested (exact) or used (K > m).
    E = _elem_nums(nums, n) if exact or K > m else []
    if exact:
        for j in range(1, n + 1, 2):
            if E[j] != 0:
                raise InternalDefectError(
                    f"e_{j} nonzero although all odd power sums through "
                    f"{2 * m - 1} vanish"
                )

    def e_at(j: int) -> Scalar:
        return E[j] if j <= n else 0

    out: list[Scalar] = [P[2 * k - 2] for k in range(1, min(m, K) + 1)]
    for k in range(m + 1, K + 1):
        acc: Scalar = 0
        for i in range(1, m + 1):
            acc = acc + e_at(2 * i - 1) * P[2 * (k - i) - 1]
            acc = acc - e_at(2 * i) * out[k - i - 1]
        out.append(acc)
        if exact and acc != 0:
            raise InternalDefectError(f"extended odd power sum p_{2 * k - 1} nonzero")
    return tuple(value(num, 2 * k - 1) for k, num in enumerate(out, 1))
