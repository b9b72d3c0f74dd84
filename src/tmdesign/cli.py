"""Batch command line with JSON input/output.

Subcommands: construct, verify, certify, identities, search.  Exit codes:
0 = verified/certified, 1 = mathematically negative result (failed verdict,
violated hypothesis or precondition), 2 = usage or parse error.  All numbers
in emitted JSON are strings ("p/q" for exact values, shortest round-trip
decimals for floats) so that certificates survive round trips; output for a
fixed invocation is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .constructions import (
    binom_alternating_sum,
    binomial_weighted_design,
    chebyshev_gauss_check,
    perturbed_interval_design,
    polygon_weighted_design,
)
from .errors import (
    DesignError,
    DomainError,
    HypothesisError,
    PreconditionError,
    ToleranceError,
)
from .interval_design import (
    Configuration,
    WeightedConfiguration,
    certify_symmetry,
    certify_weighted_symmetry,
    verify_interval_design,
    verify_weighted_design,
)
from .scalars import DEFAULT_TOL, format_scalar, parse_nonnegative, parse_scalar
from .spherical import (
    DEFAULT_SPHERE_TOL,
    SphericalConfig,
    certify_antipodal,
    polygon_on_circle,
    six_point_search,
    verify_spherical_Tm,
)
from .symfun import elementary_symmetric, newton_e_from_p, newton_p_from_e, power_sums


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write output {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read JSON input {path!r}: {exc}") from exc


def _document(args) -> dict:
    """The input document, with --mode applied.

    A tolerance comes from --tol or from the document, never from both;
    approximate mode needs one.
    """
    doc = _load(args.file)
    if isinstance(doc, dict):  # anything else is rejected by from_json
        if "tolerance" in doc and args.tol is not None:
            raise DomainError("tolerance given both by --tol and in the document")
        if args.mode == "approximate" and "tolerance" not in doc and args.tol is None:
            raise DomainError("approximate mode requires an explicit --tol")
        if args.mode:
            doc = dict(doc, mode=args.mode)
    return doc


def _tolerance(args, default: float) -> float:
    return default if args.tol is None else parse_nonnegative(args.tol, "--tol")


def cmd_construct(args) -> int:
    if args.kind == "perturbed":
        if args.m is None:
            raise DomainError("construct perturbed requires --m")
        eps = parse_scalar(args.epsilon, exact_only=True) if args.epsilon else None
        precision = (
            parse_scalar(args.precision, exact_only=True)
            if args.precision
            else Fraction(1, 10**12)
        )
        result = perturbed_interval_design(args.m, eps, precision)
        report = verify_interval_design(result.points, args.m)
        doc = result.to_json()
        doc["kind"] = "perturbed"
        doc["verification"] = report.to_json()
        ok = report.verdict and all(r == 0 for r in result.certificate)
        _emit(doc, args.out)
        return 0 if ok else 1
    if args.kind == "binomial":
        if args.n is None:
            raise DomainError("construct binomial requires --n")
        design = binomial_weighted_design(args.n)
        report = verify_weighted_design(design, args.n - 1)
        doc = design.to_json()
        doc["kind"] = "binomial"
        doc["verification"] = report.to_json()
        _emit(doc, args.out)
        return 0 if report.verdict else 1
    if args.kind == "polygon-weighted":
        if args.n is None:
            raise DomainError("construct polygon-weighted requires --n")
        design = polygon_weighted_design(args.n)
        report = verify_weighted_design(design, args.n - 1)
        doc = design.to_json()
        doc["kind"] = "polygon-weighted"
        doc["verification"] = report.to_json()
        _emit(doc, args.out)
        return 0 if report.verdict else 1
    # spherical-polygon, the one kind left
    if args.m is None:
        raise DomainError("construct spherical-polygon requires --m")
    config = polygon_on_circle(args.m)
    report = verify_spherical_Tm(config, args.m)
    doc = config.to_json()
    doc["kind"] = "spherical-polygon"
    doc["verification"] = report.to_json()
    _emit(doc, args.out)
    return 0 if report.verdict else 1


def cmd_verify(args) -> int:
    if args.m is None:
        raise DomainError("verify requires --m")
    doc = _document(args)
    if args.kind == "interval":
        config = Configuration.from_json(doc, tolerance=_tolerance(args, DEFAULT_TOL))
        report = verify_interval_design(config, args.m)
    elif args.kind == "weighted":
        wconfig = WeightedConfiguration.from_json(
            doc, tolerance=_tolerance(args, DEFAULT_TOL)
        )
        report = verify_weighted_design(wconfig, args.m)
    else:  # spherical
        sconfig = SphericalConfig.from_json(
            doc, tolerance=_tolerance(args, DEFAULT_SPHERE_TOL)
        )
        report = verify_spherical_Tm(sconfig, args.m)
    _emit(report.to_json(), args.out)
    return 0 if report.verdict else 1


def cmd_certify(args) -> int:
    if args.m is None:
        raise DomainError("certify requires --m")
    doc = _document(args)
    try:
        if args.kind == "symmetry":
            config = Configuration.from_json(
                doc, tolerance=_tolerance(args, DEFAULT_TOL)
            )
            cert = certify_symmetry(config, args.m)
        elif args.kind == "weighted-symmetry":
            wconfig = WeightedConfiguration.from_json(
                doc, tolerance=_tolerance(args, DEFAULT_TOL)
            )
            cert = certify_weighted_symmetry(wconfig, args.m)
        else:  # antipodal
            sconfig = SphericalConfig.from_json(
                doc, tolerance=_tolerance(args, DEFAULT_SPHERE_TOL)
            )
            cert = certify_antipodal(sconfig, args.m)
    except (PreconditionError, HypothesisError, ToleranceError) as exc:
        payload = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, HypothesisError) and exc.failing_index is not None:
            payload["failing_index"] = exc.failing_index
        if isinstance(exc, ToleranceError):
            payload["reason"] = exc.reason
        _emit(payload, args.out)
        return 1
    _emit(cert.to_json(), args.out)
    return 0


def cmd_identities(args) -> int:
    if args.kind == "binom-sum":
        if args.n is None or args.n < 1:
            raise DomainError("identities binom-sum requires --n >= 1")
        doc = {
            f"s={s}": format_scalar(binom_alternating_sum(args.n, s))
            for s in range(args.n)
        }
        _emit(doc, args.out)
        return 0
    # newton, the one kind left
    if not args.roots:
        raise DomainError("identities newton requires --roots")
    roots = [parse_scalar(r, exact_only=True) for r in args.roots.split(",")]
    n = len(roots)
    K = args.k if args.k is not None else n
    p = power_sums(roots, max(K, 1))
    e = elementary_symmetric(roots, max(K, 1))
    e_round = newton_e_from_p(p, min(K, n))
    p_round = newton_p_from_e(e, n, K)
    consistent = all(
        e.e(j) == e_round.e(j) for j in range(min(K, n) + 1)
    ) and all(p.p(k) == p_round.p(k) for k in range(1, K + 1))
    doc = {
        "roots": [format_scalar(r) for r in roots],
        "p": [format_scalar(p.p(k)) for k in range(1, K + 1)],
        "e": [format_scalar(e.e(j)) for j in range(K + 1)],
        "e_from_p": [format_scalar(e_round.e(j)) for j in range(min(K, n) + 1)],
        "p_from_e": [format_scalar(p_round.p(k)) for k in range(1, K + 1)],
        "consistent": consistent,
    }
    _emit(doc, args.out)
    return 0 if consistent else 1


def cmd_search(args) -> int:
    tol = _tolerance(args, DEFAULT_SPHERE_TOL)
    margin = parse_nonnegative(args.margin, "--margin")
    report = six_point_search(args.trials, args.seed, margin, tol)
    _emit(report.to_json(), args.out)
    return 0


def cmd_quadrature(args) -> int:
    if args.n is None:
        raise DomainError("quadrature requires --n")
    s_max = args.k if args.k is not None else 2 * args.n - 1
    report = chebyshev_gauss_check(args.n, s_max)
    _emit(report.to_json(), args.out)
    return 0 if report.verdict else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmdesign",
        description="Construct, verify and certify designs with odd harmonic indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_arg=False):
        if file_arg:
            p.add_argument("file", help="JSON input document")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--tol", default=None, help="tolerance for approximate mode")
        p.add_argument("--mode", choices=["exact", "approximate"], default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("construct", help="build a design and self-verify it")
    p.add_argument(
        "kind",
        choices=["perturbed", "binomial", "polygon-weighted", "spherical-polygon"],
    )
    common(p)
    p.add_argument("--epsilon", default=None, help="rational perturbation, e.g. 3/16")
    p.add_argument("--precision", default=None, help="rational output precision")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a design from a JSON file")
    p.add_argument("kind", choices=["interval", "weighted", "spherical"])
    common(p, file_arg=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="produce a symmetry/antipodality certificate")
    p.add_argument("kind", choices=["symmetry", "weighted-symmetry", "antipodal"])
    common(p, file_arg=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("identities", help="identity tables (Newton, binomial sums)")
    p.add_argument("kind", choices=["newton", "binom-sum"])
    common(p)
    p.add_argument("--roots", default=None, help="comma-separated rationals")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("search", help="seeded constrained residual search")
    p.add_argument("kind", choices=["six-point"])
    common(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--margin", default="0.1")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("quadrature", help="equal-weight arcsine moment check")
    common(p)
    p.add_argument("--k", type=int, default=None, help="largest degree to check")
    p.set_defaults(func=cmd_quadrature)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DesignError as exc:
        print(f"negative result: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
