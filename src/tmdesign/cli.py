"""Batch command line with JSON input/output.

Subcommands: construct, verify, certify, identities, search, quadrature.  Each
registers only the options its handler reads, so any other exits 2.  A call
builds the parser of its own command only; --help, an unknown command and an
empty command line build all six, with the same output either way.  Exit
codes: 0 = verified/certified, 1 = mathematically negative result (failed
verdict, violated hypothesis or precondition), 2 = usage or parse error.  All
numbers in emitted JSON are strings ("p/q" for exact values, shortest
round-trip decimals for floats) so that certificates survive round trips;
output for a fixed invocation is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, interval_design, spherical, symfun
from .errors import (
    DesignError,
    DomainError,
    HypothesisError,
    PreconditionError,
    ToleranceError,
)
from .scalars import format_scalar, parse_nonnegative, parse_scalar


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
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # Python's digit limit; RecursionError a nesting too deep to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read JSON input {path!r}: {exc}") from exc


def _document(args) -> dict:
    """The input document, with --mode and --tol applied.

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
        if args.tol is not None:
            doc = dict(doc, tolerance=parse_nonnegative(args.tol, "--tol"))
    return doc


# The options each construct and identities kind reads, the required one first
_READS = {
    "perturbed": ("m", "epsilon", "precision"), "spherical-polygon": ("m",),
    "binomial": ("n",), "polygon-weighted": ("n",), "binom-sum": ("n",),
    "newton": ("roots", "k"),
}


def _resolve(*paths: str) -> list:
    """The objects named "module.name" in this package, looked up when called,
    so a module runs on its first use and a replaced function is the one run."""
    return [getattr(globals()[module], name) for module, name in (p.split(".") for p in paths)]


# construct kind: (build, self-check, index offset); the self-check runs at
# the value of the kind's option plus the offset
_BUILDS = {
    "binomial": (
        "constructions.binomial_weighted_design", "interval_design.verify_weighted_design", -1
    ),
    "polygon-weighted": (
        "constructions.polygon_weighted_design", "interval_design.verify_weighted_design", -1
    ),
    "spherical-polygon": ("spherical.polygon_on_circle", "spherical.verify_spherical_Tm", 0),
}


def cmd_construct(args) -> int:
    if args.kind == "perturbed":
        eps = parse_scalar(args.epsilon, exact_only=True) if args.epsilon else None
        precision = (
            parse_scalar(args.precision, exact_only=True)
            if args.precision
            else constructions.DEFAULT_PRECISION
        )
        result = constructions.perturbed_interval_design(args.m, eps, precision)
        report = interval_design.verify_interval_design(result.points, args.m)
        doc = result.to_json()
        ok = report.verdict and all(r == 0 for r in result.certificate)
    else:
        *functions, offset = _BUILDS[args.kind]
        build, check = _resolve(*functions)
        value = getattr(args, _READS[args.kind][0])
        design = build(value)
        report = check(design, value + offset)
        doc = design.to_json()
        ok = report.verdict
    doc["kind"] = args.kind
    doc["verification"] = report.to_json()
    _emit(doc, args.out)
    return 0 if ok else 1


# verify and certify kind: (configuration class, check)
_CHECKS = {
    "interval": ("interval_design.Configuration", "interval_design.verify_interval_design"),
    "weighted": (
        "interval_design.WeightedConfiguration", "interval_design.verify_weighted_design"
    ),
    "spherical": ("spherical.SphericalConfig", "spherical.verify_spherical_Tm"),
    "symmetry": ("interval_design.Configuration", "interval_design.certify_symmetry"),
    "weighted-symmetry": (
        "interval_design.WeightedConfiguration", "interval_design.certify_weighted_symmetry"
    ),
    "antipodal": ("spherical.SphericalConfig", "spherical.certify_antipodal"),
}


def _check(args):
    """The kind's check of the document's configuration at --m.  Without
    --tol, the configuration class's own default tolerance applies."""
    if args.m is None:
        raise DomainError(f"{args.command} requires --m")
    cls, check = _resolve(*_CHECKS[args.kind])
    return check(cls.from_json(_document(args)), args.m)


def cmd_verify(args) -> int:
    report = _check(args)
    _emit(report.to_json(), args.out)
    return 0 if report.verdict else 1


def cmd_certify(args) -> int:
    try:
        cert = _check(args)
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
        if args.n < 1:
            raise DomainError("identities binom-sum requires --n >= 1")
        doc = {
            f"s={s}": format_scalar(constructions.binom_alternating_sum(args.n, s))
            for s in range(args.n)
        }
        _emit(doc, args.out)
        return 0
    # newton, the one kind left
    roots = [parse_scalar(r, exact_only=True) for r in args.roots.split(",")]
    n = len(roots)
    K = args.k if args.k is not None else n
    p = symfun.power_sums(roots, max(K, 1))
    e = symfun.elementary_symmetric(roots, max(K, 1))
    e_round = symfun.newton_e_from_p(p, min(K, n))
    p_round = symfun.newton_p_from_e(e, n, K)
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
    tol = {} if args.tol is None else {"tolerance": parse_nonnegative(args.tol, "--tol")}
    margin = parse_nonnegative(args.margin, "--margin")
    report = spherical.six_point_search(args.trials, args.seed, margin, **tol)
    _emit(report.to_json(), args.out)
    return 0


def cmd_quadrature(args) -> int:
    if args.n is None:
        raise DomainError("quadrature requires --n")
    s_max = args.k if args.k is not None else 2 * args.n - 1
    report = constructions.chebyshev_gauss_check(args.n, s_max)
    _emit(report.to_json(), args.out)
    return 0 if report.verdict else 1


# Every option, registered only on the commands whose handler reads it.
_OPTIONS = {
    "--m": {"type": int},
    "--n": {"type": int},
    "--tol": {"help": "tolerance for approximate mode"},
    "--mode": {"choices": ["exact", "approximate"]},
    "--epsilon": {"help": "rational perturbation, e.g. 3/16"},
    "--precision": {"help": "rational output precision"},
    "--roots": {"help": "comma-separated rationals"},
    "--k": {"type": int, "help": "largest degree"},
    "--trials": {"type": int, "default": 200},
    "--seed": {"type": int, "default": 7},
    "--margin": {"default": "0.1"},
    "--out": {"help": "output path (default stdout)"},
}


def _check_kind(args) -> None:
    """Refuse, as argparse would, an option the kind does not read; require its own."""
    reads = _READS.get(getattr(args, "kind", None))
    if reads is None:
        return
    given = [o[2:] for o in _OPTIONS if getattr(args, o[2:], None) is not None]
    unread = [f"--{o} {getattr(args, o)}" for o in given if o not in (*reads, "out")]
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    if getattr(args, reads[0]) is None:
        raise DomainError(f"{args.command} {args.kind} requires --{reads[0]}")


# command: (handler, summary, kinds, options besides --out, reads a document)
_COMMANDS = {
    "construct": (
        cmd_construct, "build a design and self-verify it",
        ["perturbed", *_BUILDS], ("--m", "--n", "--epsilon", "--precision"), False,
    ),
    "verify": (
        cmd_verify, "verify a design from a JSON file",
        ["interval", "weighted", "spherical"], ("--m", "--tol", "--mode"), True,
    ),
    "certify": (
        cmd_certify, "produce a symmetry/antipodality certificate",
        ["symmetry", "weighted-symmetry", "antipodal"], ("--m", "--tol", "--mode"), True,
    ),
    "identities": (
        cmd_identities, "identity tables (Newton, binomial sums)",
        ["newton", "binom-sum"], ("--n", "--roots", "--k"), False,
    ),
    "search": (
        cmd_search, "seeded constrained residual search",
        ["six-point"], ("--tol", "--trials", "--seed", "--margin"), False,
    ),
    "quadrature": (
        cmd_quadrature, "equal-weight arcsine moment check", None, ("--n", "--k"), False,
    ),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command, or with the command ``only`` alone.

    A usage error that no command takes is reported with the top-level
    usage, which names the registered commands; with one registered, that
    list is spelled out, so the message is the full parser's.
    """
    # No abbreviations: an option is read under its full name only, so an
    # option a command does not read (--m on search) never stands for one it
    # does (--margin).
    parser = argparse.ArgumentParser(
        prog="tmdesign",
        description="Construct, verify and certify designs with odd harmonic indices.",
        allow_abbrev=False,
    )
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, summary, kinds, options, document) in _COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if kinds:
            p.add_argument("kind", choices=kinds)
        if document:
            p.add_argument("file", help="JSON input document")
        for option in (*options, "--out"):
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the invoked command's parser is built; --help, a bad command and
    # an empty argv need them all.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _check_kind(args)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DesignError as exc:
        print(f"negative result: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
