"""Spherical configurations with odd harmonic indices.

A finite set X on the unit sphere S^(d-1) satisfies harmonic index t when
the pair sum of the degree-t sphere polynomial vanishes,

    sum_{x,y in X} Q_{d,t}(<x, y>) = 0,

and the odd index set T_m = {1, 3, ..., 2m-1} when this holds for every odd
t through 2m-1.  For odd t the condition is equivalent to the vanishing of
all degree-t moments sum_x <x, a>^t, which is what ties these sets to the
interval machinery: projecting X onto any unit direction gives a multiset in
[-1, 1] with vanishing odd power sums.  A T_m set with at most 2m points is
therefore antipodal (x in X forces -x in X), and this module produces the
explicit pairing.

Verification reports both routes - the Gegenbauer pair sum and a
deterministic moment probe (all coordinate vectors plus the sign vectors
with a_1 = +1, with the full symmetric moment tensor assembled when d <= 4)
- and requires agreement.  Each route makes one pass for all of T_m.  In
exact mode the pair sums come first and spare the probes what they already
prove.  For odd t, sum_{x,y} <x, y>^t is the squared Frobenius norm of the
moment tensor sum_x x^(tensor t) (Delsarte, Goethals and Seidel, 1977), and
s^t is a combination of the Q_{d,k} with k <= t of the same parity.  So
when the exact pair sums vanish at every odd k <= t, every degree-t probe
sum and tensor entry is exactly 0.  The probes run only from t0, the first
index of T_m whose exact pair sum is nonzero; each index before it reports
moment residual 0, the value the probes would give, and a design runs no
probe at all.  Float input, and rational points in forced approximate mode,
run the probes at every index: their residuals are rounded values, and the
two routes can part there.  Both
arithmetics read the sphere polynomials from one table per dimension: their
integer coefficient lists and the float steps of their recurrence, grown to
the largest degree asked for.  Exact input is cleared of denominators by
each routine that reads it, and nothing is kept between calls: with L the
lcm of all coordinate denominators, one pass over the upper triangle of
the integer Gram matrix G = <Lx, Ly> gives its power sums
S_k = sum_{x,y} G[x][y]^k, and every pair sum is sum_k q_{t,k} S_k / L^(2k)
(q_{t,k} the monomial coefficients of Q_{d,t}).  Float input runs the
recurrence one degree at a time over the upper triangle of Gram entries
<x, y>, keeping two degrees; only the degrees asked for are divided by their
value at 1 and summed, their n^2 terms in the row order of the full matrix.
Every float kernel keeps the operations, terms and order of a plain
per-pair or per-point loop, with ``sum()`` and ``reduce(add, ..., 0)`` where
that loop has them.  ``sum()`` is compensated from CPython 3.12 on, so the
two are not interchangeable, but on every CPython each result is the float
the plain loop gives there.  In both arithmetics the antipodal pairing pairs
the values of row i of the Gram matrix at the unmatched points, their
projection onto x_i, by negation; in exact mode the folded odd power sums
of the whole row must vanish first.  The moment probes work on coordinate
columns (of the cleared integer points in exact mode): a coordinate probe's
inner products are its column, and a sign probe's are the sums of the first
column and the other columns or their negations, the same terms in the same
order as a per-point inner product.  The sign vectors with a_1 = -1 are
left out: each is -a for one with a_1 = +1, whose inner products are the exact
negations (x * -1 is exact and rounding is symmetric), so its odd power sums
are exact negations too and its even ones are equal; it could never change a
worst entry or a verdict.  The classical t-design check is the pair-sum route
alone, over every index 1..t, even ones included.  Sphere polynomials are
normalized to Q_{d,t}(1) = 1; zero sets and parity do not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, product, repeat, zip_longest
from operator import add, itemgetter, mul, neg
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DomainError,
    HypothesisError,
    InternalDefectError,
    PreconditionError,
    ToleranceError,
)
from .interval_design import Configuration, DesignReport, pair_negations
from .scalars import (
    Arithmetic,
    Scalar,
    clear_denominators,
    cos_turns,
    format_scalar,
    in_unit_interval,
    is_exact,
    mode_zero,
    near,
    read_document,
    resolve_mode,
    sin_turns,
)
from .symfun import folded_odd_sums

#: Default tolerance for unit-norm and residual checks at double precision.
DEFAULT_SPHERE_TOL = 1e-9

Point = tuple[Scalar, ...]


@dataclass(frozen=True)
class SphericalConfig(Arithmetic):
    """Nonempty list of unit vectors of a common dimension d >= 2."""

    points: tuple[Point, ...]
    tolerance: float = DEFAULT_SPHERE_TOL
    mode: str = "auto"

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DomainError("empty configuration")
        d = len(pts[0])
        if d < 2:
            raise DomainError("dimension must be at least 2")
        if any(len(p) != d for p in pts):
            raise DomainError("points must share one dimension")
        flat = [c for p in pts for c in p]
        object.__setattr__(self, "mode", resolve_mode(self.mode, flat, "coordinates"))
        tol = self.near_tol
        for p in pts:
            if not near(sum(map(mul, p, p)), 1, tol):
                raise DomainError(f"point {p!r} is not a unit vector")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [[format_scalar(c) for c in p] for p in self.points],
            "mode": self.mode,
        }

    @staticmethod
    def from_json(doc: dict) -> "SphericalConfig":
        settings, parse = read_document(doc, ("points",))
        if not all(isinstance(p, list) for p in doc["points"]):
            raise DomainError("each point must be a list of coordinates")
        pts = tuple(tuple(map(parse, p)) for p in doc["points"])
        X = SphericalConfig(pts, **settings)
        dim = doc.get("dim", X.dim)
        if type(dim) is not int or dim != X.dim:  # a bool is not a dimension
            raise DomainError(f"dim {dim!r} does not match the points' dimension {X.dim}")
        return X


def _dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(map(mul, a, b))


def _coincide(p: Point, q: Point, tol: float | None) -> bool:
    return all(near(a, b, tol) for a, b in zip(p, q))


def _are_negations(p: Point, q: Point, tol: float | None) -> bool:
    return all(near(a, -b, tol) for a, b in zip(p, q))


def _cleared(pts: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """Rational points with their denominators cleared: L, the lcm of all
    coordinate denominators, and the integer points Lx."""
    d = len(pts[0])
    L, flat = clear_denominators(c for p in pts for c in p)
    return L, [tuple(flat[i : i + d]) for i in range(0, len(flat), d)]


def _gram_power_sums(pts: Sequence[Point], top: int) -> tuple[int, list[int]]:
    """L and S_k = sum_{x,y} <Lx, Ly>^k for k = 0..top, the power sums of the
    cleared Gram matrix G, in one pass over its upper triangle: each
    off-diagonal G_ij^k counts twice and the diagonal once, and S_0 = n^2.
    So sum_{x,y} <x, y>^k is S_k / L^(2k)."""
    L, ipts = _cleared(pts)
    sums = [len(ipts) ** 2] + [0] * top
    for i, x in enumerate(ipts):
        upper = [sum(map(mul, x, y)) for y in ipts[i:]]  # _dot, inline; G_ii first
        power = upper
        for k in range(1, top + 1):
            if k > 1:
                power = list(map(mul, power, upper))
            sums[k] += 2 * sum(power) - power[0]
    return L, sums


# ---------------------------------------------------------------------------
# Sphere polynomials
# ---------------------------------------------------------------------------


# d -> (P_0..P_T, the float steps (a_j, b_j, c_j, raw_j(1)) for j = 0..T).  A
# longer table replaces a shorter one whole, so a caller keeps a whole table.
_TABLES: dict[int, tuple[list[list[int]], list[tuple[float, ...]]]] = {}


def _sphere_table(d: int, top: int) -> tuple[list[list[int]], list[tuple[float, ...]]]:
    """The table of the degree-t sphere polynomials on S^(d-1) through degree
    top at least, built on first use and grown to the largest degree asked.

    d = 2 has the cosine polynomials T_t (value cos(t*theta) at cos(theta));
    d >= 3 the classical three-term recurrence with parameter (d - 2)/2,
    raw_j = (a_j s raw_(j-1) - b_j raw_(j-2)) / c_j.  Its integer form, with
    the divisions by c_j deferred, is P_j = a_j s P_(j-1) - b_j c_(j-1) P_(j-2),
    so Q_{d,t}(s) = P_t(s) / P_t(1) and raw_j(1) = P_j(1) / (c_1 ... c_j).
    Odd t gives an odd polynomial.
    """
    if d < 2:
        raise DomainError("dimension must be at least 2")
    if top < 0:
        raise DomainError("degree must be nonnegative")
    polys, steps = _TABLES.get(d, ([[1]], [(0.0, 0.0, 1.0, 1.0)]))
    if len(polys) > top:
        return polys, steps
    polys, steps = list(polys), list(steps)
    c_prev = c_prod = 1
    for j in range(1, top + 1):
        a, b, c = (2 * j + d - 4, j + d - 4, j) if d > 2 else (min(j, 2), 1, 1)
        c_prod *= c
        if j == len(polys):
            older = zip_longest([0] + polys[-1], polys[-2] if j > 1 else [], fillvalue=0)
            polys.append([a * hi - b * c_prev * lo for hi, lo in older])
            steps.append((float(a), float(b), float(c), sum(polys[-1]) / c_prod))
        c_prev = c
    _TABLES[d] = polys, steps
    return polys, steps


def _rational_value(poly: list[int], s: Scalar) -> Scalar:
    """P(s) / P(1) at a rational s = N/D, as sum_k P[k] N^k D^(t-k) over
    P(1) D^t for t = len(poly) - 1: a Fraction, and the int 1 at t = 0."""
    if len(poly) == 1:
        return 1
    s = Fraction(s)
    N, D, t = s.numerator, s.denominator, len(poly) - 1
    return Fraction(sum(p * N**k * D ** (t - k) for k, p in enumerate(poly)), sum(poly) * D**t)


def _columns(
    steps: Sequence[tuple[float, ...]], ts: Sequence[int], ss: Sequence[float]
) -> Iterator[tuple[int, list[float]]]:
    """Q_{d,t}(s) at every float s in ss at the degrees in ts, from the float
    steps of the table: runs the recurrence one degree at a time through
    max(ts) and yields (t, [Q_{d,t}(s) for s in ss]) for each t in ts, lowest
    first, each a new list.  Only those degrees are divided by their value
    at 1.  Step 1 is a_1 s: with the step's u = 1, p = 0 and c = 1 the
    general step gives the same value, bit for bit (a s * 1.0 - 0.0 is a s,
    also when a s is -0.0)."""
    top = max(ts, default=0)
    wanted = set(ts)
    cur = [1.0] * len(ss)
    if 0 in wanted:
        yield 0, list(cur)
    for j, (a, b, c, norm) in enumerate(steps[1 : top + 1], 1):
        if j == 1:
            prev, cur = cur, [a * s for s in ss]
        else:
            prev, cur = cur, [(a * s * u - b * p) / c for s, u, p in zip(ss, cur, prev)]
        if j in wanted:
            yield j, [u / norm for u in cur]


def gegenbauer_value(
    d: int, t: int, s: Scalar, tol: float = DEFAULT_SPHERE_TOL
) -> Scalar:
    """Q_{d,t}(s) under the Q(1) = 1 normalization: a float at a float s,
    otherwise exact.  An exact s must lie in [-1, 1], a float s within tol
    of it (the rule of ``Configuration``)."""
    if not in_unit_interval(s, None if is_exact(s) else tol):
        raise DomainError(f"argument {s!r} outside [-1, 1]")
    polys, steps = _sphere_table(d, t)
    if isinstance(s, float):
        return next(_columns(steps, (t,), [s]))[1][0]
    return _rational_value(polys[t], s)


def _pair_sums(X: SphericalConfig, ts: Sequence[int]) -> list[Scalar]:
    """Ordered pair sums of Q_{d,t} for each t in ts.  Exact configurations
    read them off the Gram power sums, sum_k q_{t,k} S_k / L^(2k); the
    others run the float recurrence one degree at a time over the upper
    triangle of the Gram matrix, normalize only the degrees in ts, and add
    the n^2 terms of each such degree in row order with
    ``reduce(add, ..., 0)``, as a double loop would.  The types are tested
    on the coordinates: all floats make every Gram entry a float.  Otherwise
    (possible in forced approximate mode) each Gram entry that is not a
    float is evaluated exactly, P_t(s) / P_t(1), and substituted into the
    degree's column before it is added."""
    top = max(ts, default=0)
    polys, steps = _sphere_table(X.dim, top)
    if X.is_exact:
        L, sums = _gram_power_sums(X.points, top)
        L2, out = L**2, []
        for t in ts:  # sum_k P_t[k] S_k / L^(2k), over P_t(1)
            terms = enumerate(zip(polys[t], sums))
            num = sum(p * s_k * L2 ** (t - k) for k, (p, s_k) in terms)
            out.append(Fraction(num, sum(polys[t]) * L2**t))
        return out
    pts, n = X.points, len(X)
    grams = [sum(map(mul, x, y)) for i, x in enumerate(pts) for y in pts[i:]]  # _dot
    exact = {}
    if not all(map(isinstance, chain.from_iterable(pts), repeat(float))):
        exact = {k: s for k, s in enumerate(grams) if not isinstance(s, float)}
        grams = [0.0 if k in exact else s for k, s in enumerate(grams)]
    start = [i * n - i * (i + 1) // 2 for i in range(n)]  # (i, j), i <= j: start[i] + j
    order = []
    for i in range(n):  # row i: the pairs (j, i) for j < i, then (i, j) for j >= i
        order += [s + i for s in start[:i]]
        order += range(start[i] + i, start[i] + n)
    # itemgetter of one index returns the item itself; at n = 1 the column is the row
    gather = itemgetter(*order) if n > 1 else tuple
    sums = {}
    for t, col in _columns(steps, ts, grams):  # one degree kept at a time
        for k, s in exact.items():
            col[k] = _rational_value(polys[t], s)
        sums[t] = reduce(add, gather(col), 0)
    return [sums[t] for t in ts]


def harmonic_index_residual(X: SphericalConfig, t: int) -> Scalar:
    """The raw pair sum over ordered pairs (diagonal included) of Q_{d,t}."""
    return _pair_sums(X, (t,))[0]


# ---------------------------------------------------------------------------
# Moment probes
# ---------------------------------------------------------------------------


def _moment_residuals(X: SphericalConfig, ts: Sequence[int]) -> list[Scalar]:
    """The worst degree-t moment entry for each t in ts: the first of largest
    modulus among the probe sums sum_x <x, a>^t and, when d <= 4, the full
    symmetric tensor sum_x x^alpha (|alpha| = t), which makes the check
    complete.  Approximate entries are divided by n alone (the probes have
    max-norm 1), so zero-padding into a larger dimension keeps them.

    The probes a are the d coordinate vectors, then the 2^(d-1) sign vectors
    with a_1 = +1 in ``product((1, -1))`` order, read off the coordinate
    columns: each value is ``_dot(x, a)``, except that a coordinate column
    may hold -0.0 where ``_dot`` sums to 0.0, which no power sum tells
    apart.  Points that mix floats with rationals round inside ``_dot``'s
    coordinate sums, so their coordinate probes keep it.  The sign vectors
    with a_1 = -1 would only repeat values after their twins (see the
    module docstring), so no first-of-largest choice could pick them.

    The tensor is built one degree at a time as columns over the points.
    Each tensor entry adds its terms in point order with
    ``reduce(add, ..., 0)`` and each power sum with ``sum()``.  For floats
    the two differ from CPython 3.12 on, where ``sum()`` is compensated, so
    neither can stand in for the other without changing printed residuals.
    A t = 1 power sum adds the values themselves: pow(v, 1) is v for an
    int, a Fraction and a float (-0.0 and subnormals included), so ``sum()``
    sees the same terms."""
    d, top, pts = X.dim, max(ts, default=0), X.points
    if X.is_exact:  # cleared points: every entry is an integer over L^t
        L, pts = _cleared(pts)
    cols = [list(col) for col in zip(*pts)]
    coords = cols
    if len({type(c) for col in cols for c in col}) > 1:  # mixed points round in _dot
        eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        coords = [[_dot(x, e) for x in pts] for e in eye]
    signed = product(*[(col, list(map(neg, col))) for col in cols[1:]])
    probes = chain(coords, (list(map(sum, zip(cols[0], *s))) for s in signed))
    raws: dict[int, list] = {t: [] for t in ts}
    for ip in probes:
        for t in ts:
            raws[t].append(sum(ip) if t == 1 else sum(map(pow, ip, repeat(t))))
    if d <= 4:  # x^alpha over the points, in combinations_with_replacement order
        level = [(col, i) for i, col in enumerate(cols)]  # (x^alpha, last index)
        for k in range(1, top + 1):
            if k > 1:
                level = [
                    (list(map(mul, v, cols[i])), i) for v, lo in level for i in range(lo, d)
                ]
            if k in raws:
                raws[k] += [reduce(add, v, 0) for v, _ in level]
    if X.is_exact:
        return [Fraction(max([0] + raws[t], key=abs), L**t) for t in ts]
    nf = float(len(X))
    return [max([0] + [r / nf for r in raws[t]], key=abs) for t in ts]


@dataclass(frozen=True)
class SphericalIndexCheck:
    t: int
    gegenbauer_residual: Scalar  # pair sum / n^2
    moment_residual: Scalar  # worst normalized probe / tensor entry
    gegenbauer_ok: bool
    moment_ok: bool


@dataclass(frozen=True)
class SphericalDesignReport:
    """Two-route verification record for the odd index set T_m.

    ``gegenbauer_verdict`` and ``moment_verdict`` summarize each route over
    the whole index set; a mismatch lands in ``diagnostics``.  The pair sums
    characterize a T_m design; the moment probes do so for d <= 4 only, so
    for d >= 5 a set can pass the probes and fail the pair sums.  The
    per-index flags need not match pairwise: the pair sum at t sees only the
    degree-t component, while the degree-t moment also carries every lower
    odd component, so e.g. a set can pass the pair sum at t = 5 yet fail the
    t = 5 moment through a surviving degree-3 part.  The other way round
    holds in exact mode: a pair sum that vanishes at t and at every odd
    index below it makes the degree-t moment exactly 0, so an exact report
    gives moment residual 0 there without running the probes (see
    ``verify_spherical_Tm``).
    """

    index_set: tuple[int, ...]
    checks: tuple[SphericalIndexCheck, ...]
    verdict: bool
    gegenbauer_verdict: bool
    moment_verdict: bool
    tolerance: float | None
    conventions: tuple[tuple[str, str], ...]
    diagnostics: tuple[str, ...] = ()
    failing_index: int | None = None  # first t either route fails, None iff verdict

    def to_json(self) -> dict:
        return {
            "index_set": list(self.index_set),
            "checks": [
                {
                    "t": c.t,
                    "gegenbauer_residual": format_scalar(c.gegenbauer_residual),
                    "moment_residual": format_scalar(c.moment_residual),
                    "gegenbauer_ok": c.gegenbauer_ok,
                    "moment_ok": c.moment_ok,
                }
                for c in self.checks
            ],
            "verdict": self.verdict,
            "gegenbauer_verdict": self.gegenbauer_verdict,
            "moment_verdict": self.moment_verdict,
            "tolerance": None if self.tolerance is None else repr(self.tolerance),
            "conventions": dict(self.conventions),
            "diagnostics": list(self.diagnostics),
        }


_CONVENTIONS = (
    ("gegenbauer_normalization", "value 1 at argument 1"),
    ("moment_probes", "coordinate vectors, sign vectors, full tensor for d <= 4"),
)


def verify_spherical_Tm(X: SphericalConfig, m: int) -> SphericalDesignReport:
    """Check the odd index set T_m by Gegenbauer pair sums and moment probes.

    The verdict requires both routes to pass for every index; a disagreement
    between the routes is recorded in ``diagnostics``.  The zero tests use
    the configuration's tolerance: exact configurations get exact zero tests
    (tolerance None in the report), float ones X.tolerance.

    Exact configurations compute the pair sums first.  Before t0, the first
    index whose exact pair sum is nonzero, every pair sum through t vanishes,
    which makes every degree-t moment exactly 0 (module docstring), so the
    moment residual there is 0 and the probes run on the indices from t0
    only; for a design they do not run.  Approximate configurations run the
    probes at every index.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    tol, n, ts = X.near_tol, len(X), range(1, 2 * m, 2)
    pairs = _pair_sums(X, ts)
    t0 = 0
    if X.is_exact:
        t0 = next((i for i, pair in enumerate(pairs) if pair), len(ts))
    moments = [Fraction(0)] * t0
    if t0 < len(ts):
        moments += _moment_residuals(X, ts[t0:])
    checks, diagnostics = [], []
    for t, pair, worst in zip(ts, pairs, moments):
        geg_res = pair / (n * n)
        geg_ok, mom_ok = near(geg_res, 0, tol), near(worst, 0, tol)
        if mom_ok and not geg_ok:
            # the probes are not a complete family for d >= 5: there a
            # degree-t moment form can vanish at every coordinate and sign
            # vector while the pair sum, a complete test, does not
            diagnostics.append(
                f"t={t}: moment residual passed while the pair sum failed"
            )
        checks.append(SphericalIndexCheck(t, geg_res, worst, geg_ok, mom_ok))
    geg_verdict = all(c.gegenbauer_ok for c in checks)
    mom_verdict = all(c.moment_ok for c in checks)
    if geg_verdict != mom_verdict:
        diagnostics.append(
            f"route verdicts disagree over T_{m}: pair sums "
            f"{'pass' if geg_verdict else 'fail'}, moments "
            f"{'pass' if mom_verdict else 'fail'}"
        )
    failing = next((c.t for c in checks if not (c.gegenbauer_ok and c.moment_ok)), None)
    return SphericalDesignReport(
        tuple(ts), tuple(checks), failing is None, geg_verdict, mom_verdict, tol,
        _CONVENTIONS, tuple(diagnostics), failing,
    )


def verify_spherical_t_design_full(X: SphericalConfig, t: int) -> DesignReport:
    """Check the classical degree-t design condition, every k = 1..t.

    X is a spherical t-design exactly when the pair sum of Q_{d,k} vanishes
    for k = 1..t (Delsarte, Goethals and Seidel, 1977), odd and even k
    alike, so the check is complete in every dimension.  The residuals are
    the pair sums over n^2, the rule and scale of the Gegenbauer route of
    ``verify_spherical_Tm`` at the configuration's tolerance: exact
    configurations pass only exact identities (tolerance None in the report),
    and float ones test the squared scale |pair sum| / n^2 <= X.tolerance,
    which stays at rounding level on exactly antipodal float input where its
    square root would not.
    """
    if t < 1:
        raise DomainError("t must be a positive integer")
    tol, n, ks = X.near_tol, len(X), range(1, t + 1)
    residuals = tuple(s / (n * n) for s in _pair_sums(X, ks))
    failing = next((k for k, r in zip(ks, residuals) if not near(r, 0, tol)), None)
    return DesignReport(tuple(ks), residuals, failing is None, tol, failing)


# ---------------------------------------------------------------------------
# Projection and antipodality
# ---------------------------------------------------------------------------


def project_to_line(X: SphericalConfig, a: Sequence[Scalar]) -> Configuration:
    """The multiset {<x, a> : x in X} in [-1, 1], for a unit direction a."""
    a = tuple(a)
    if len(a) != X.dim:
        raise DomainError("direction dimension mismatch")
    values = tuple(_dot(x, a) for x in X.points)
    return Configuration(values, tolerance=max(X.tolerance, 1e-15), mode=X.mode)


@dataclass(frozen=True)
class AntipodalCertificate:
    """Perfect pairing of positions with x_i = -x_j, coordinatewise."""

    pairs: tuple[tuple[int, int], ...]

    def check(self, X: SphericalConfig) -> bool:
        """Whether the pairs cover X and each pair is a negation, coordinate
        by coordinate, at the configuration's tolerance."""
        seen = sorted(i for p in self.pairs for i in p)
        if seen != list(range(len(X))):
            return False
        tol = X.near_tol
        return all(_are_negations(X.points[i], X.points[j], tol) for i, j in self.pairs)

    def to_json(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs]}


def is_antipodal(X: SphericalConfig) -> tuple[bool, AntipodalCertificate | None]:
    """Direct check that X is a union of pairs {x, -x} (design-free oracle),
    coordinate by coordinate at the configuration's tolerance."""
    tol, n = X.near_tol, len(X)
    used = [False] * n
    pairs = []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        x = X.points[i]
        free = (j for j in range(i + 1, n) if not used[j])
        partner = next((j for j in free if _are_negations(x, X.points[j], tol)), None)
        if partner is None:
            return False, None
        used[partner] = True
        pairs.append((i, partner))
    return True, AntipodalCertificate(tuple(sorted(pairs)))


def certify_antipodal(X: SphericalConfig, m: int) -> AntipodalCertificate:
    """Antipodal pairing of a T_m configuration with at most 2m points.

    Mirrors the forcing argument: for each unmatched x_i, project the
    unmatched points onto the direction x_i.  Removing antipodal pairs from
    a T_m set leaves a T_m set, so the projection is a T_m multiset of at
    most 2m values; it is symmetric and pairs the value <x_i, x_i> = 1 with
    a value -1, and the point realizing -1 is -x_i itself (equality in
    Cauchy-Schwarz).  The projection is part of row i of the Gram matrix,
    <Lx_i, Lx_j> on the cleared integer points in exact mode and
    <x_i, x_j> in float, and ``pair_negations`` names the partner.  In
    exact mode the whole row, the projection of X onto x_i, must first fold
    to nothing (``folded_odd_sums``): a verified design has no nonzero odd
    power sum there.  Each pair is then checked coordinatewise, the rule of
    ``AntipodalCertificate.check``.  Every test uses the configuration's
    tolerance.  An exact X that is not a T_m design fails at t0, the index
    of its first nonzero pair sum (``verify_spherical_Tm``), so the pair
    sums alone name that index and no moment probe runs.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    tol, n = X.near_tol, len(X)
    if n > 2 * m:
        raise PreconditionError(f"requires n <= 2m; got n={n} > 2m={2 * m}")
    if X.is_exact:  # T_m fails first at t0, the first nonzero pair sum
        ts = range(1, 2 * m, 2)
        bad = next((t for t, pair in zip(ts, _pair_sums(X, ts)) if pair), None)
    else:
        bad = verify_spherical_Tm(X, m).failing_index
    if bad is not None:
        raise HypothesisError(
            f"configuration fails the design condition at index {bad}",
            failing_index=bad,
        )

    def fail(message: str, reason: str):
        if X.is_exact:
            return InternalDefectError(f"verified design: {message}")
        return ToleranceError(message, reason=reason)

    pts = _cleared(X.points)[1] if X.is_exact else X.points
    matched = [False] * n
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        if matched[i]:
            continue
        row = [_dot(pts[i], y) for y in pts]
        if X.is_exact and any(folded_odd_sums(row, [1] * n, m)):
            raise InternalDefectError(
                f"verified design projects onto point {i} with a nonzero odd power sum"
            )
        free = [j for j in range(i, n) if not matched[j]]  # i first
        cert = pair_negations([row[j] for j in free], tol)
        partner = next((free[b] for a, b in cert.pairs if a == 0), None)
        if partner is None:
            raise fail(
                f"projection onto point {i} does not pair it with a partner",
                "pairing ambiguous",
            )
        if not _are_negations(X.points[i], X.points[partner], tol):
            raise fail(
                f"points {i} and {partner} are not negations within tolerance",
                "hypothesis approximately violated",
            )
        matched[i] = matched[partner] = True
        pairs.append((i, partner))
    return AntipodalCertificate(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# Constructions on the circle, embeddings, padding
# ---------------------------------------------------------------------------


def polygon_on_circle(m: int, rotation: float = 0.0) -> SphericalConfig:
    """The regular (2m+1)-gon on the unit circle, optionally rotated.

    Its vertices satisfy every index t = 1..2m, in particular the odd set
    T_m, and an odd-size set is never antipodal.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    q = 2 * m + 1
    turns = range(q)
    pts = tuple(zip(cos_turns(turns, q, rotation), sin_turns(turns, q, rotation)))
    return SphericalConfig(pts, mode="approximate")


def embed(X: SphericalConfig, d_target: int) -> SphericalConfig:
    """Zero-pad the coordinates into dimension d_target > d.

    Inner products are unchanged, so every T_m verdict survives verbatim.
    """
    if d_target <= X.dim:
        raise DomainError(f"target dimension must exceed {X.dim}")
    pad = (mode_zero(X.mode),) * (d_target - X.dim)
    return replace(X, points=tuple(p + pad for p in X.points))


def pad_with_antipodal_pairs_spherical(
    X: SphericalConfig, pairs: Iterable[Sequence[Scalar]]
) -> SphericalConfig:
    """Append {v, -v} per supplied unit vector; odd residuals are unchanged."""
    new_points = list(X.points)
    for v in pairs:
        vv = tuple(v)
        if len(vv) != X.dim:
            raise DomainError("pair vector dimension mismatch")
        for w in (vv, tuple(-c for c in vv)):
            if any(_coincide(w, p, X.near_tol) for p in new_points):
                raise DomainError(f"duplicate point {w!r}")
            new_points.append(w)
    return replace(X, points=tuple(new_points))


def escalation_diagnostic(
    X: SphericalConfig, x: Sequence[Scalar], K: int
) -> tuple[float, ...]:
    """The sequence s_k = sum_y <x, y>^(2k-1), k = 1..K, for x in X.

    When -x is not in X, every off-diagonal inner product has modulus < 1 and
    the sequence converges to 1; the diagnostic is undefined when -x is
    present (its term contributes a persistent -1).
    """
    if K < 1:
        raise DomainError("K must be a positive integer")
    xv = tuple(x)
    if len(xv) != X.dim:
        raise DomainError("dimension mismatch")
    if not any(_coincide(xv, p, X.near_tol) for p in X.points):
        raise DomainError("x must belong to the configuration")
    if any(_are_negations(xv, p, X.near_tol) for p in X.points):
        raise PreconditionError(
            "diagnostic not applicable: -x belongs to the configuration"
        )
    ips = [_dot(y, xv) for y in X.points]
    return tuple(float(sum(s ** (2 * k - 1) for s in ips)) for k in range(1, K + 1))


# ---------------------------------------------------------------------------
# Six-point search on the circle
# ---------------------------------------------------------------------------

_SEARCH_ITERS = 900
_SEARCH_STEP0 = 0.1
_SEARCH_DECAY = 0.997
_PROJECTION_SWEEPS = 12
_LOW_RESIDUAL_KEEP = 5


# The index pairs of six angles, in the order the projection sweeps them.
_PAIRS = tuple(combinations(range(6), 2))


def _t2_residual(angles: Sequence[float]) -> float:
    """max over t in {1, 3} of the normalized pair sum |sum e^(i t theta)|^2/n^2."""
    triple = [3 * t for t in angles]
    c1, s1 = sum(map(math.cos, angles)), sum(map(math.sin, angles))
    c3, s3 = sum(map(math.cos, triple)), sum(map(math.sin, triple))
    n2 = float(len(angles)) ** 2
    return max(c1 * c1 + s1 * s1, c3 * c3 + s3 * s3) / n2


def _descend(angles: list[float], margin: float) -> list[float]:
    """One search trial: projected gradient descent on
    |sum e^(i theta)|^2 + |sum e^(3i theta)|^2 over six angles.  Project the
    start onto the margin, then take up to _SEARCH_ITERS gradient steps,
    projecting after each, with a step length that starts at _SEARCH_STEP0
    and decays by _SEARCH_DECAY.

    The angles, their cos t, sin t, cos 3t and sin 3t (a, b, c, d) and the
    four sums are locals.  Each sum adds its six values with sum() in angle
    order, so every float is the one the list form gives, also under the
    compensated sum() of CPython 3.12 on.

    At margin 0 nothing is projected, and the trial ends at the first step
    that leaves all six angles unchanged bit for bit, sign of zero included.
    Every later step would be a no-op too: it sees the same angles and
    gradient, its step is shorter, and rounding is monotone, so each
    t - step * g still rounds to t.  The angles returned are the ones the
    last of the _SEARCH_ITERS steps would give.  A NaN never compares
    equal, so a trial gone NaN runs to the end."""
    cos, sin, copysign = math.cos, math.sin, math.copysign
    project = _margin_projection(margin)
    if project is not None:
        angles = project(angles)
    step = _SEARCH_STEP0
    for _ in range(_SEARCH_ITERS):
        t0, t1, t2, t3, t4, t5 = angles
        u0, u1, u2, u3, u4, u5 = 3 * t0, 3 * t1, 3 * t2, 3 * t3, 3 * t4, 3 * t5
        a0, b0, c0, d0 = cos(t0), sin(t0), cos(u0), sin(u0)
        a1, b1, c1, d1 = cos(t1), sin(t1), cos(u1), sin(u1)
        a2, b2, c2, d2 = cos(t2), sin(t2), cos(u2), sin(u2)
        a3, b3, c3, d3 = cos(t3), sin(t3), cos(u3), sin(u3)
        a4, b4, c4, d4 = cos(t4), sin(t4), cos(u4), sin(u4)
        a5, b5, c5, d5 = cos(t5), sin(t5), cos(u5), sin(u5)
        sa = sum((a0, a1, a2, a3, a4, a5))
        sb = sum((b0, b1, b2, b3, b4, b5))
        sc = sum((c0, c1, c2, c3, c4, c5))
        sd = sum((d0, d1, d2, d3, d4, d5))
        moved = [
            t0 - step * (2.0 * (sb * a0 - sa * b0) + 6.0 * (sd * c0 - sc * d0)),
            t1 - step * (2.0 * (sb * a1 - sa * b1) + 6.0 * (sd * c1 - sc * d1)),
            t2 - step * (2.0 * (sb * a2 - sa * b2) + 6.0 * (sd * c2 - sc * d2)),
            t3 - step * (2.0 * (sb * a3 - sa * b3) + 6.0 * (sd * c3 - sc * d3)),
            t4 - step * (2.0 * (sb * a4 - sa * b4) + 6.0 * (sd * c4 - sc * d4)),
            t5 - step * (2.0 * (sb * a5 - sa * b5) + 6.0 * (sd * c5 - sc * d5)),
        ]
        if project is not None:
            angles = project(moved)
        elif moved == angles and all(
            copysign(1.0, x) == copysign(1.0, t) for x, t in zip(moved, angles)
        ):
            break
        else:
            angles = moved
        step *= _SEARCH_DECAY
    return angles


def _margin_projection(margin: float) -> Callable[[list[float]], list[float]] | None:
    """The projection of six angles onto the margin, set up once per trial,
    or None at margin 0, where it would move nothing.

    The projection pushes each pair with
    ||x_i + x_j|| = 2|cos((theta_i - theta_j)/2)| < margin out to the margin,
    sweeping over all pairs until a sweep changes no angle or
    _PROJECTION_SWEEPS sweeps have run.  A push counts as a change when an
    angle it writes differs from the float it replaces (a NaN always does),
    so a quiet sweep ends with the angles it started with.  (A sweep with
    changes can end there too, if a later push restores an angle exactly;
    the next sweep then repeats it and ends on the same angles.)  A later
    pair can push an earlier one back inside, so the margin holds to
    rounding after a quiet sweep and may be missed (by about 1e-5 at worst
    seen, margin 1) at the cap.

    A pair is pushed when |remainder(d, tau)| > psi_max, where
    d = theta_i - theta_j and psi_max = 2 acos(margin/2).  remainder is
    exact, so |remainder(d, tau)| = min(r, tau - r) for the exact residue r
    of d mod tau in [0, tau), and a push needs psi_max < r < tau - psi_max.
    d % tau is r to within an ulp of tau (fmod is exact, and adding tau to a
    negative fmod rounds once), so a pair whose d % tau lies outside
    [psi_max - 1e-9, tau - psi_max + 1e-9] cannot be pushed and skips
    remainder."""
    if margin <= 0:
        return None
    psi_max = 2.0 * math.acos(min(1.0, margin / 2.0))
    tau = math.tau
    low, high = psi_max - 1e-9, tau - psi_max + 1e-9
    remainder, copysign, pairs = math.remainder, math.copysign, _PAIRS

    def project(angles: list[float]) -> list[float]:
        for _ in range(_PROJECTION_SWEEPS):
            changed = False
            for i, j in pairs:
                d = angles[i] - angles[j]
                if not low <= d % tau <= high:
                    continue
                psi = remainder(d, tau)
                if abs(psi) > psi_max:
                    delta = (copysign(psi_max, psi) - psi) / 2.0
                    x, y = angles[i], angles[j]
                    angles[i] = xi = x + delta
                    angles[j] = yj = y - delta
                    if xi != x or yj != y:
                        changed = True
            if not changed:
                break
        return angles

    return project


def _project_margin(angles: list[float], margin: float) -> list[float]:
    """``angles`` projected onto the margin (see ``_margin_projection``)."""
    project = _margin_projection(margin)
    return angles if project is None else project(angles)


def _min_pair_distance(angles: Sequence[float]) -> float:
    return min(2.0 * abs(math.cos((a - b) / 2.0)) for a, b in combinations(angles, 2))


def _perfect_matchings(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, second in enumerate(rest):
        for sub in _perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, second)] + sub


def antipodal_defect(angles: Sequence[float]) -> float:
    """Distance to the nearest antipodal configuration: the smallest, over
    perfect matchings into pairs, of sqrt(sum ||x_i + x_j||^2)."""
    pts = [(math.cos(t), math.sin(t)) for t in angles]
    best = float("inf")
    for matching in _perfect_matchings(list(range(len(pts)))):
        acc = 0.0
        for i, j in matching:
            acc += (pts[i][0] + pts[j][0]) ** 2 + (pts[i][1] + pts[j][1]) ** 2
        best = min(best, acc)
    return math.sqrt(best)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    residual: float
    min_pair_distance: float
    defect: float

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "residual": repr(self.residual),
            "min_pair_distance": repr(self.min_pair_distance),
            "antipodal_defect": repr(self.defect),
        }


@dataclass(frozen=True)
class SixPointSearchReport:
    """Outcome of the seeded constrained search for a six-point T_2 set.

    Each trial runs projected gradient descent on the squared T_2 residual
    over six circle angles, projecting onto the non-antipodality margin
    after every step.  The projection is a capped sequence of pairwise
    sweeps, so the margin holds only approximately; min_pair_distance
    records what each trial attains.  The projection calls the exact
    math.remainder only for pairs whose float d % tau falls in a band around
    the margin; outside that band the remainder provably calls for no push,
    so the pushes are those of the plain remainder test.  Randomness is derived from
    (seed, trial index), so the report is byte-reproducible.
    """

    trials: int
    seed: int
    margin: float
    tolerance: float
    best: TrialResult
    best_angles: tuple[float, ...]
    lowest: tuple[TrialResult, ...]
    found_below_tolerance: bool

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "margin": repr(self.margin),
            "tolerance": repr(self.tolerance),
            "best": self.best.to_json(),
            "best_angles": [repr(a) for a in self.best_angles],
            "lowest": [t.to_json() for t in self.lowest],
            "found_below_tolerance": self.found_below_tolerance,
        }


def six_point_search(
    trials: int, seed: int, margin: float, tolerance: float = DEFAULT_SPHERE_TOL
) -> SixPointSearchReport:
    """Seeded local minimization of the six-point T_2 residual on the circle.

    With margin > 0 no configuration can reach residual 0 (a six-point T_2
    set is necessarily antipodal, and antipodality means some pair attains
    ||x_i + x_j|| = 0 < margin); the report records how close the search
    gets.  With margin = 0 the antipodal minimizers are reachable and the
    best residual drops to rounding level.
    """
    if trials < 1:
        raise DomainError("trials must be a positive integer")
    if not margin >= 0:
        raise DomainError("margin must be nonnegative")
    if margin > 2:  # ||x_i + x_j|| <= 2, so no configuration could meet it
        raise DomainError("margin must be at most 2")
    results: list[tuple[TrialResult, tuple[float, ...]]] = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        start = [rng.uniform(0.0, math.tau) for _ in range(6)]
        angles = _descend(start, margin)
        res = TrialResult(
            trial,
            _t2_residual(angles),
            _min_pair_distance(angles),
            antipodal_defect(angles),
        )
        results.append((res, tuple(angles)))
    ordered = sorted(results, key=lambda r: (r[0].residual, r[0].trial))
    best, best_angles = ordered[0]
    lowest = tuple(r for r, _ in ordered[:_LOW_RESIDUAL_KEEP])
    return SixPointSearchReport(
        trials=trials,
        seed=seed,
        margin=margin,
        tolerance=tolerance,
        best=best,
        best_angles=best_angles,
        lowest=lowest,
        found_below_tolerance=best.residual < tolerance,
    )
