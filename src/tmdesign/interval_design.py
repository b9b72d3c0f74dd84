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
from dataclasses import dataclass
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
    clear_denominators,
    format_scalar,
    in_unit_interval,
    near,
    read_document,
    resolve_mode,
)
from .symfun import extend_odd_power_sums, odd_moments


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
        # The message names the first support point that recurs later, the
        # earlier position of some pair of neighbours in key order (ties by
        # position): equal exact values share (p, q), and float subtraction
        # rounds monotonically, so a point between two near points is near
        # both.
        xs = self.support
        key = (
            (lambda i: (xs[i].numerator, xs[i].denominator, i))
            if tol is None
            else (lambda i: (float(xs[i]), i))
        )
        order = sorted(range(len(xs)), key=key)
        pairs = zip(order, order[1:])
        firsts = [min(i, j) for i, j in pairs if near(xs[i], xs[j], tol)]
        if firsts:
            raise DomainError(f"duplicate support point {format_scalar(xs[min(firsts)])}")
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
            and _same_weight(weights[min(i, j)], weights[max(i, j)], tol)
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


def _same_weight(u: Scalar, w: Scalar, tol: float | None) -> bool:
    """Equal weights: exactly, or within tol at scale 1 + |u|, where u is the
    weight at the earlier position of a pair.  The scale is built only in
    float, where every weight converts (``resolve_mode``)."""
    return u == w if tol is None else near(u, w, tol, 1 + abs(float(u)))


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
    """The test of ``symfun.odd_moments`` as a report over T_m."""
    residuals, failing = odd_moments(xs, ws, m, tol)
    index_set = tuple(range(1, 2 * m, 2))
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

    Exact values are cleared to integers and grouped by value, each group
    in the same |value| order.  The rule above then pairs the k-th
    position of a group with the k-th position of its negation's group, so
    the pairs come from one pass over the groups, and the first group (in
    that order) whose negation's group differs in size has the value
    without a partner.
    """
    if tol is None:
        return _pair_exact(values)
    remaining = sorted(range(len(values)), key=lambda i: (-abs(float(values[i])), i))
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []
    while remaining:
        i = remaining.pop(0)
        v = values[i]
        if near(v, 0, tol):
            fixed.append(i)
            continue
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


def _pair_exact(values: Sequence[Scalar]) -> SymmetryCertificate:
    """``pair_negations`` in exact mode."""
    _, a = clear_denominators(values)
    groups: dict[int, list[int]] = {}
    for i in sorted(range(len(a)), key=lambda i: -abs(a[i])):  # stable: ties by position
        groups.setdefault(a[i], []).append(i)
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = groups.get(0, [])
    for v, own in groups.items():
        if v == 0 or (v < 0 and -v in groups):  # paired from the positive side
            continue
        other = groups.get(-v, [])
        if len(own) != len(other):
            longer = own if len(own) > len(other) else other
            i = longer[min(len(own), len(other))]
            raise InternalDefectError(
                f"verified design has no partner for value {format_scalar(values[i])}"
            )
        pairs += zip(own, other)
    return SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))


def certify_symmetry(config: Configuration, m: int) -> SymmetryCertificate:
    """Symmetry certificate for a T_m multiset with at most 2m points.

    Follows the forcing argument: ``extend_odd_power_sums`` with K = m
    verifies the hypothesis, that p_1, p_3, ..., p_{2m-1} vanish, and in
    exact mode also that the odd elementary symmetric values e_1, e_3, ...
    vanish with them, which forces every higher odd power sum to vanish;
    then ``pair_negations`` removes points from the top of the |value|
    order, each as a zero or together with its antipodal partner.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    n = len(config)
    if n == 0:
        return SymmetryCertificate((), ())
    if n > 2 * m:
        raise PreconditionError(f"requires n <= 2m; got n={n} > 2m={2 * m}")
    # Raises with the smallest failing odd index.
    extend_odd_power_sums(config.points, m, m, tol=config.near_tol)
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
        if not _same_weight(ws[a], ws[b], tol):
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

    Is the weight function even: does every point have its negation, with
    the same weight (``_same_weight``)?  A Configuration is read as its
    points with unit weights, so for a multiset this asks whether it equals
    its negation, multiplicity included.  Returns the witnessing pairing
    when the answer is yes.

    One routine serves both: sort the positions by value (exact value in
    exact mode, float otherwise, ties by position), pair the k-th smallest
    with the k-th largest, fix a middle value and two ends that are both
    near 0 (the rule ``check_weighted`` holds fixed positions to), and let
    ``check_weighted`` judge that pairing.  No other pairing needs a try.
    An exact multiset equals its negation iff its sorted pairing does.
    Support points lie more than tol apart, so pairs
    (x, y) and (x', y') with x < x' and y < y' cannot both lie within tol:
    x' + y' exceeds x + y by more than 2 tol.  So if any pairing within tol
    exists, the sorted one does.
    """
    if isinstance(obj, Configuration):
        xs, ws = obj.points, (1,) * len(obj)
    elif isinstance(obj, WeightedConfiguration):
        xs, ws = obj.support, obj.weights
    else:
        raise DomainError("expected a Configuration or WeightedConfiguration")
    tol = obj.near_tol
    n = len(xs)
    # exact values that round to one float must still sort by value
    key = (lambda i: (xs[i], i)) if tol is None else (lambda i: (float(xs[i]), i))
    order = sorted(range(n), key=key)
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []
    for i, j in zip(order[: (n + 1) // 2], reversed(order)):
        if i == j:
            fixed.append(i)
        elif near(xs[i], 0, tol) and near(xs[j], 0, tol):
            fixed += [i, j]
        else:
            pairs.append((i, j))
    cert = SymmetryCertificate(_sorted_pairs(pairs), tuple(sorted(fixed)))
    return (True, cert) if cert.check_weighted(xs, ws, tol) else (False, None)
