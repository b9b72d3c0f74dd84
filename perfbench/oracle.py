"""Outcome oracle, run outside the timer.

Each check re-parses one job's stdout and tests it against the facts fixed
when the input was generated.  Certificates are re-checked with the
package's own checkers (``SymmetryCertificate.check_multiset``,
``AntipodalCertificate.check``) and against the design-free symmetry tests
``is_symmetric`` and ``is_antipodal``; residuals and moments are recomputed
here with plain ``Fraction``/``float`` arithmetic.  A check returns ``None``
when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from tmdesign.interval_design import (
    Configuration,
    SymmetryCertificate,
    WeightedConfiguration,
    is_symmetric,
)
from tmdesign.spherical import AntipodalCertificate, SphericalConfig, is_antipodal

from workloads import TOL, Job


def _scalar(text: str, exact: bool):
    return Fraction(text) if exact else float(text)


def _odd_sums_vanish(points: list[float], top: int, rel: float) -> bool:
    for k in range(1, top + 1, 2):
        total = sum(x**k for x in points)
        if abs(total) > rel * (1 + sum(abs(x) ** k for x in points)):
            return False
    return True


def _perturbed(job: Job, doc: dict) -> str | None:
    m = job.facts["m"]
    if doc["certificate"] != ["0"] * m:
        return "certificate is not all zero"
    if doc["verification"]["verdict"] is not True:
        return "self-verification verdict is not true"
    points = [float(x) for x in doc["points"]]
    if len(points) != 2 * m + 1:
        return f"{len(points)} points, expected {2 * m + 1}"
    if not _odd_sums_vanish(points, 2 * m - 1, 1e-8):
        return "odd power sums of the emitted points do not vanish"
    if is_symmetric(Configuration(tuple(points), tolerance=1e-9, mode="approximate"))[0]:
        return "perturbed design is symmetric"
    return None


def _binomial(job: Job, doc: dict) -> str | None:
    n = job.facts["n"]
    xs = [Fraction(x) for x in doc["support"]]
    ws = [Fraction(w) for w in doc["weights"]]
    if len(xs) != n or doc["verification"]["verdict"] is not True:
        return "wrong support size or verdict"
    for k in range(1, 2 * n, 2):
        moment = sum(w * x**k for x, w in zip(xs, ws))
        if (moment == 0) != (k <= 2 * n - 3):
            return f"odd moment {k} is {'zero' if moment == 0 else 'nonzero'}"
    if is_symmetric(WeightedConfiguration(tuple(xs), tuple(ws), mode="exact"))[0]:
        return "binomial design is even"
    return None


def _newton(job: Job, doc: dict) -> str | None:
    roots = job.facts["roots"]
    k = len(roots)
    p = [str(sum(r**j for r in roots)) for j in range(1, k + 1)]
    if doc["consistent"] is not True or doc["p"] != p or doc["p_from_e"] != p:
        return "power sums differ from the direct sums"
    if doc["e_from_p"] != doc["e"]:
        return "Newton round trip changed e"
    return None


def _quadrature(job: Job, doc: dict) -> str | None:
    n = job.facts["n"]
    if doc["verdict"] is not True or len(doc["nodes"]) != n:
        return "wrong verdict or node count"
    if len(doc["checks"]) != 2 * n - 1:
        return "wrong number of moment checks"
    for c in doc["checks"]:
        s, mean = c["s"], float(c["node_mean"])
        target = 0.0 if s % 2 else comb(s, s // 2) / 2**s
        if (s % 2 and mean != 0.0) or abs(mean - target) > 1e-12:
            return f"moment {s} mean {mean} misses {target}"
    return None


def _interval(job: Job, doc: dict) -> str | None:
    exact, symmetric = job.facts["exact"], job.facts["symmetric"]
    tol = None if exact else float(TOL)
    mode = "exact" if exact else "approximate"
    weighted = "support" in job.doc
    if weighted:
        xs = tuple(_scalar(x, exact) for x in job.doc["support"])
        ws = tuple(_scalar(w, exact) for w in job.doc["weights"])
        config = WeightedConfiguration(xs, ws, mode=mode, tolerance=float(TOL))
    else:
        xs = tuple(_scalar(x, exact) for x in job.doc["points"])
        config = Configuration(xs, mode=mode, tolerance=float(TOL))
    if is_symmetric(config)[0] != symmetric:
        return "is_symmetric disagrees with the generator"
    if job.argv[0] == "verify":
        if doc["verdict"] is not symmetric:
            return f"verdict {doc['verdict']}, expected {symmetric}"
        if exact and not weighted and doc["residuals"][0] != str(sum(xs)):
            return "p_1 residual differs from the direct sum"
        return None
    if not symmetric:
        return None if doc.get("type") == "HypothesisError" else "asymmetric input not refused"
    cert = SymmetryCertificate(
        tuple(tuple(p) for p in doc["pairs"]), tuple(doc["fixed"])
    )
    ok = cert.check_weighted(xs, ws, tol) if weighted else cert.check_multiset(xs, tol)
    return None if ok else "certificate does not check"


def _spherical(job: Job, doc: dict) -> str | None:
    exact, antipodal = job.facts["exact"], job.facts["antipodal"]
    points = tuple(tuple(_scalar(c, exact) for c in p) for p in job.doc["points"])
    X = SphericalConfig(points, tolerance=float(TOL), mode="exact" if exact else "approximate")
    if is_antipodal(X)[0] != antipodal:
        return "is_antipodal disagrees with the generator"
    if job.argv[0] == "verify":
        verdicts = (doc["verdict"], doc["gegenbauer_verdict"], doc["moment_verdict"])
        if verdicts != (antipodal,) * 3 or doc["diagnostics"]:
            return f"verdicts {verdicts}, expected {antipodal}"
        return None
    cert = AntipodalCertificate(tuple(tuple(p) for p in doc["pairs"]))
    return None if cert.check(X) else "antipodal certificate does not check"


def _six_point(job: Job, doc: dict) -> str | None:
    margin, trials = job.facts["margin"], job.facts["trials"]
    if doc["trials"] != trials or doc["seed"] != job.facts["seed"]:
        return "report echoes the wrong trials or seed"
    if margin > 0:
        if doc["found_below_tolerance"] is not False:
            return "margin search reached the tolerance"
        worst = min(float(t["min_pair_distance"]) for t in doc["lowest"])
        if worst < margin - 1e-9:
            return f"min pair distance {worst} below margin {margin}"
    elif doc["found_below_tolerance"] is not True:
        return "margin-0 search missed the tolerance"
    return None


_CHECKS = {
    "perturbed": _perturbed,
    "binomial": _binomial,
    "newton": _newton,
    "quadrature": _quadrature,
    "certify-symmetry": _interval,
    "verify-interval": _interval,
    "certify-weighted-symmetry": _interval,
    "verify-weighted": _interval,
    "verify-spherical": _spherical,
    "certify-antipodal": _spherical,
    "six-point": _six_point,
}


def check(job: Job, code: int | None, out: str, error: str | None) -> str | None:
    """Why this outcome is wrong, or None when it is what was expected."""
    if error is not None:
        return f"raised {error}"
    if code != job.expect:
        return f"exit {code}, expected {job.expect}"
    if job.kind == "malformed":
        return None if out == "" else "malformed input produced output"
    try:
        doc = json.loads(out)
        return _CHECKS[job.kind](job, doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
