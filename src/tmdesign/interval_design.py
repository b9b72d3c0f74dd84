"""Interval design candidates on [-1, 1] with odd harmonic indices.

A multiset X in [-1, 1] satisfies the index set T_m = {1, 3, ..., 2m-1} when
its odd power sums p_1, p_3, ..., p_{2m-1} vanish (the matching uniform
moments on [-1, 1] are all zero, so the usual 1/n averaging drops out).  For
such an X with at most 2m points, symmetry X = -X is forced, and this module
produces the witness: an explicit involutive pairing of positions.  The same
is done for weighted supports, where at most m nonzero support points force
the weight function to be even.

Multisets are kept as position-indexed tuples (repeats allowed, input order
preserved) so certificates can cite positions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
    ToleranceError,
)
from .scalars import (
    DEFAULT_TOL,
    Arithmetic,
    Scalar,
    all_exact,
    clear_denominators,
    format_scalar,
    in_unit_interval,
    near,
    read_document,
    resolve_mode,
)
from .symfun import extend_odd_power_sums, power_scale


@dataclass(frozen=True)
class Configuration(Arithmetic):
    """Finite multiset of points in [-1, 1], in input order.

    ``mode`` is "exact" when every point is rational and arithmetic should be
    exact, "approximate" for tolerance-based work; "auto" picks by inspecting
    the points.  Rational points may be forced into approximate mode (useful
    for rational approximations of irrational data).
    """

    points: tuple[Scalar, ...]
    tolerance: float = DEFAULT_TOL
    mode: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self, "mode", resolve_mode(self.mode, self.points, "points")
        )
        for x in self.points:
            if not in_unit_interval(x, self.near_tol):
                raise DomainError(f"point {format_scalar(x)} outside [-1, 1]")

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "points": [format_scalar(x) for x in self.points],
            "mode": self.mode,
        }

    @staticmethod
    def from_json(doc: dict) -> "Configuration":
        settings, parse = read_document(doc, ("points",))
        return Configuration(tuple(parse(x) for x in doc["points"]), **settings)


@dataclass(frozen=True)
class WeightedConfiguration(Arithmetic):
    """Distinct support points in [-1, 1] with aligned nonzero weights."""

    support: tuple[Scalar, ...]
    weights: tuple[Scalar, ...]
    tolerance: float = DEFAULT_TOL
    mode: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.support) != len(self.weights):
            raise DomainError("support and weights must have equal lengths")
        values = self.support + self.weights
        object.__setattr__(self, "mode", resolve_mode(self.mode, values, "values"))
        tol = self.near_tol
        for x in self.support:
            if not in_unit_interval(x, tol):
                raise DomainError(f"support point {format_scalar(x)} outside [-1, 1]")
        # Each message names the first support point that recurs later.
        if tol is None:  # exact values are equal iff they count as one key
            count = Counter(self.support)
            dups = [x for x in self.support if count[x] > 1]
        else:
            dups = [
                xi
                for i, xi in enumerate(self.support)
                if any(near(xi, xj, tol) for xj in self.support[i + 1 :])
            ]
        if dups:
            raise DomainError(f"duplicate support point {format_scalar(dups[0])}")
        if any(isinstance(w, float) and not math.isfinite(w) for w in self.weights):
            raise DomainError("weights must be finite")
        if any(near(w, 0, tol) for w in self.weights):
            raise DomainError("weights must be nonzero")

    def __len__(self) -> int:
        return len(self.support)

    def to_json(self) -> dict:
        return {
            "support": [format_scalar(x) for x in self.support],
            "weights": [format_scalar(w) for w in self.weights],
            "mode": self.mode,
        }

    @staticmethod
    def from_json(doc: dict) -> "WeightedConfiguration":
        settings, parse = read_document(doc, ("support", "weights"))
        return WeightedConfiguration(
            tuple(parse(x) for x in doc["support"]),
            tuple(parse(w) for w in doc["weights"]),
            **settings,
        )


@dataclass(frozen=True)
class SymmetryCertificate:
    """Involution on positions witnessing X = -X (or an even weight function).

    ``pairs`` are (i, j) with value_i = -value_j; ``fixed`` positions carry
    the value 0 (for a weighted support, the weight at 0 is unconstrained).
    The certificate is checkable without re-running the certifier.
    """

    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...] = ()

    def covers(self, n: int) -> bool:
        seen = sorted([i for p in self.pairs for i in p] + list(self.fixed))
        return seen == list(range(n))

    def check_multiset(self, points: Sequence[Scalar], tol: float | None = None) -> bool:
        """``check_weighted`` at unit weights."""
        return self.check_weighted(points, (1,) * len(points), tol)

    def check_weighted(
        self,
        support: Sequence[Scalar],
        weights: Sequence[Scalar],
        tol: float | None = None,
    ) -> bool:
        if not self.covers(len(support)):
            return False
        return all(
            near(support[i], -support[j], tol)
            and near(weights[i], weights[j], tol, 1 + abs(float(weights[i])))
            for i, j in self.pairs
        ) and all(near(support[i], 0, tol) for i in self.fixed)

    def to_json(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs], "fixed": list(self.fixed)}


@dataclass(frozen=True)
class DesignReport:
    """Residuals of the odd-index design condition and the verdict."""

    index_set: tuple[int, ...]
    residuals: tuple[Scalar, ...]
    verdict: bool
    tolerance: float | None = None  # None: exact-arithmetic zero tests
    failing_index: int | None = None  # first failing index, None iff verdict

    def to_json(self) -> dict:
        return {
            "index_set": list(self.index_set),
            "residuals": [format_scalar(r) for r in self.residuals],
            "verdict": self.verdict,
            "tolerance": None if self.tolerance is None else repr(self.tolerance),
        }


def _sorted_pairs(pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


def verify_interval_design(config: Configuration, m: int) -> DesignReport:
    """Residuals p_1, p_3, ..., p_{2m-1} of the points, and whether all vanish.

    A multiset is the weighted design with unit weights, so this is
    ``verify_weighted_design`` with every weight 1.
    """
    if m > 0 and len(config) == 0:
        raise DomainError("empty configuration")
    return _odd_moments(config.points, (1,) * len(config), m, config.near_tol)


def _odd_moments(
    xs: Sequence[Scalar], ws: Sequence[Scalar], m: int, tol: float | None
) -> DesignReport:
    """Residuals sum_i w_i x_i^k for k = 1, 3, ..., 2m-1, and the first k
    whose residual is not zero at scale ``power_scale(xs, k, ws)``.

    Exact values run on integers: with a_i = L x_i and b_i = W w_i cleared
    separately, the k-th residual is sum a_i^k b_i / (L^k W).
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    exact = all_exact(xs) and all_exact(ws)
    if exact:
        L, a = clear_denominators(xs)
        W, b = clear_denominators(ws)
    else:
        a, b = xs, ws
    index_set = tuple(range(1, 2 * m, 2))
    residuals = []
    powers = list(a)
    for k in range(1, 2 * m):
        if k > 1:
            powers = list(map(mul, powers, a))
        if k % 2 == 1:
            r = sum(map(mul, powers, b))
            residuals.append(Fraction(r, L**k * W) if exact else r)
    # near ignores the scale in exact mode.
    tests = (
        near(r, 0, tol, 1.0 if tol is None else power_scale(xs, k, ws))
        for k, r in zip(index_set, residuals)
    )
    failing = next((k for k, ok in zip(index_set, tests) if not ok), None)
    return DesignReport(index_set, tuple(residuals), failing is None, tol, failing)


def pair_negations(values: Sequence[Scalar], tol: float | None) -> SymmetryCertificate:
    """Pair each value with its negation: the one move of the forcing argument.

    Values are taken largest |value| first (ties by position).  A zero is
    fixed; any other value is paired with a remaining one at gap |x + y|:
    the first exact negation in exact mode (``tol is None``), the nearest in
    float otherwise.  A best gap within 10*tol fails as "pairing ambiguous",
    anything worse as "hypothesis approximately violated".  In exact mode a
    value without its negation is an internal defect: callers pair only
    values whose symmetry a verified design forces.
    """
    exact = tol is None
    remaining = sorted(
        range(len(values)),
        key=lambda i: (-abs(values[i] if exact else float(values[i])), i),
    )
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []
    while remaining:
        i = remaining.pop(0)
        v = values[i]
        if near(v, 0, tol):
            fixed.append(i)
            continue
        if exact:
            j = next((c for c in remaining if values[c] == -v), None)
            if j is None:
                raise InternalDefectError(
                    f"verified design has no partner for value {format_scalar(v)}"
                )
        else:
            gap, j = min(
                ((abs(float(v) + float(values[c])), c) for c in remaining),
                default=(float("inf"), None),
            )
            if j is None or gap > tol:
                reason = (
                    "pairing ambiguous"
                    if gap <= 10 * tol
                    else "hypothesis approximately violated"
                )
                raise ToleranceError(
                    f"no partner for {v!r} within {tol} (best gap {gap:.3e})",
                    reason=reason,
                )
        remaining.remove(j)
        pairs.append((i, j))
    return SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))


def certify_symmetry(config: Configuration, m: int) -> SymmetryCertificate:
    """Symmetry certificate for a T_m multiset with at most 2m points.

    Follows the forcing argument: first the odd power sums are extended to
    all orders (they vanish identically once the first m do; checked in
    exact mode), then ``pair_negations`` removes points from the top of the
    |value| order, each as a zero or together with its antipodal partner.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    n = len(config)
    if n == 0:
        return SymmetryCertificate((), ())
    if n > 2 * m:
        raise PreconditionError(f"requires n <= 2m; got n={n} > 2m={2 * m}")
    # Verifies the design hypothesis (raising with the smallest failing odd
    # index); in exact mode it also certifies that all higher odd power sums
    # vanish with it, which approximate mode has no test for.
    K = n if config.is_exact else m
    extend_odd_power_sums(config.points, m, K, tol=config.near_tol)
    return pair_negations(config.points, config.near_tol)


def verify_weighted_design(wconfig: WeightedConfiguration, m: int) -> DesignReport:
    """Residuals sum_x x^(2k-1) f(x) for k = 1..m, and whether all vanish.

    The 1/n averaging of the general definition is omitted: the uniform odd
    moments are zero, so it cannot affect the verdict.  Approximate mode
    tests at scale 1 + sum |w| |x|^k; unit weights give the multiset check.
    """
    return _odd_moments(wconfig.support, wconfig.weights, m, wconfig.near_tol)


def certify_weighted_symmetry(
    wconfig: WeightedConfiguration, m: int
) -> SymmetryCertificate:
    """Evenness certificate for a weighted T_m design with small support.

    Requires at most m nonzero support points and vanishing residuals.  The
    point 0 (if present) never constrains anything and is reported as fixed.
    ``pair_negations`` pairs the rest of the support, and then each pair's
    two weights must agree: merging a pair into a single point with the
    difference as weight would otherwise leave an unpaired support point in
    a smaller design.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    xs, ws = wconfig.support, wconfig.weights
    tol = wconfig.near_tol
    active = sum(not near(x, 0, tol) for x in xs)
    if active > m:
        raise PreconditionError(
            f"requires at most m nonzero support points; got {active} > m={m}"
        )
    k = verify_weighted_design(wconfig, m).failing_index
    if k is not None:
        raise HypothesisError(
            f"weighted design residual at index {k} is nonzero", failing_index=k
        )

    cert = pair_negations(xs, tol)
    for a, b in cert.pairs:
        if not near(ws[a], ws[b], tol, 1 + abs(float(ws[a]))):
            if wconfig.is_exact:
                raise InternalDefectError(
                    "antipodal support pair of a verified design has unequal weights"
                )
            raise ToleranceError(
                f"weights at +-{xs[a]!r} differ by {float(ws[a] - ws[b]):.3e}",
                reason="hypothesis approximately violated",
            )
    return cert


def is_symmetric(
    obj: Configuration | WeightedConfiguration,
) -> tuple[bool, SymmetryCertificate | None]:
    """Direct symmetry check, independent of any design hypothesis.

    For a Configuration: is the multiset equal to its negation, multiplicity
    included.  For a WeightedConfiguration: does every support point have its
    negation in the support with the same weight.  Returns the witnessing
    pairing when the answer is yes.
    """
    if isinstance(obj, Configuration):
        return _is_symmetric_multiset(obj)
    if isinstance(obj, WeightedConfiguration):
        return _is_symmetric_weighted(obj)
    raise DomainError("expected a Configuration or WeightedConfiguration")


def _is_symmetric_multiset(config: Configuration):
    pts, tol = config.points, config.near_tol
    n = len(pts)
    order = sorted(range(n), key=lambda i: (float(pts[i]), i))
    lo, hi = 0, n - 1
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []
    while lo <= hi:
        if lo == hi:
            i = order[lo]
            if not near(pts[i], 0, tol):
                return False, None
            fixed.append(i)
            break
        i, j = order[lo], order[hi]
        if not near(pts[i], -pts[j], tol):
            return False, None
        if near(pts[i], 0, tol) and near(pts[j], 0, tol):
            # both ends are zeros; report them as fixed points
            fixed.extend([i, j])
        else:
            pairs.append((i, j))
        lo += 1
        hi -= 1
    return True, SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))


def _is_symmetric_weighted(w: WeightedConfiguration):
    xs, ws = w.support, w.weights
    tol = w.near_tol
    n = len(xs)
    used = [False] * n
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        if near(xs[i], 0, tol):
            fixed.append(i)
            continue
        free = [j for j in range(n) if not used[j]]
        if w.is_exact:
            j = next((j for j in free if xs[j] == -xs[i]), None)
        else:
            j = min(free, key=lambda j: abs(float(xs[i]) + float(xs[j])), default=None)
        if (
            j is None
            or not near(xs[i], -xs[j], tol)
            or not near(ws[i], ws[j], tol, 1 + abs(float(ws[i])))
        ):
            return False, None
        used[j] = True
        pairs.append((i, j))
    return True, SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))
