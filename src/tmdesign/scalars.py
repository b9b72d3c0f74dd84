"""Scalar plumbing: exact rationals, approximate floats, parsing, formatting.

Exact values are ``int`` / ``fractions.Fraction``; anything float-valued is
approximate.  A computation is exact iff all of its inputs are, and exact
arithmetic never rounds, so certificates built from rational data are
unconditional.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeAlias

from .errors import DomainError

Scalar: TypeAlias = int | Fraction | float

#: Default tolerance of scale-aware zero tests in approximate mode.
DEFAULT_TOL = 1e-10

#: Working precision (bits) for trigonometric constants before rounding.
_TRIG_PREC = 80

_MODES = ("auto", "exact", "approximate")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(is_exact(v) for v in values)


def resolve_mode(mode: str, values: Sequence[Scalar], what: str) -> str:
    """"exact" or "approximate": ``mode``, with "auto" decided by ``values``.

    Approximate mode compares values as floats, so it rejects a rational too
    large to convert to one.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}")
    if mode == "auto":
        mode = "exact" if all_exact(values) else "approximate"
    elif mode == "exact" and not all_exact(values):
        raise DomainError(f"exact mode rejects float {what}")
    if mode == "approximate":
        try:
            for v in values:
                float(v)
        except OverflowError:
            raise DomainError(f"{what} too large for approximate mode") from None
    return mode


def mode_zero(mode: str) -> Scalar:
    """The zero of a mode's arithmetic: Fraction(0) when exact, else 0.0."""
    return Fraction(0) if mode == "exact" else 0.0


def near(a: Scalar, b: Scalar, tol: float | None, scale: float = 1.0) -> bool:
    """The one comparison rule of both modes.

    ``tol is None`` (exact mode) means equality; otherwise the operands are
    converted to float and compared as |a - b| <= tol * scale.
    """
    if tol is None:
        return a == b
    return abs(float(a) - float(b)) <= tol * scale


def clear_denominators(values: Iterable[int | Fraction]) -> tuple[int, list[int]]:
    """(L, [L*x for x in values]) with L the lcm of the denominators.

    Exact values over one common denominator: integer kernels run on the
    numerators and divide by a power of L once per result.
    """
    vals = list(values)
    L = math.lcm(*(v.denominator for v in vals))
    return L, [v.numerator * (L // v.denominator) for v in vals]


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_scalar(text: str, *, exact_only: bool = False) -> Scalar:
    """Parse ``"p/q"``, integer, or decimal literals.

    ``"p/q"`` and plain integers parse to Fraction; anything else parses to
    a finite float unless ``exact_only``, in which case it is rejected.
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        pass
    if exact_only:
        raise DomainError(f"exact mode rejects non-rational literal {text!r}")
    try:
        value = float(s)
    except ValueError:
        raise DomainError(f"cannot parse scalar literal {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"non-finite scalar literal {text!r}")
    return value


def parse_nonnegative(text: str, what: str) -> float:
    """A finite, nonnegative scalar literal (a tolerance, a margin) as a float."""
    value = parse_scalar(text)
    if value < 0:
        raise DomainError(f"{what} {text!r} is negative")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} {text!r} is too large") from None


def read_document(
    doc: object, fields: tuple[str, ...], tolerance: float
) -> tuple[str, float, Callable[[object], Scalar]]:
    """(mode, tolerance, entry parser) of a JSON configuration document.

    The document must be an object holding a list under each name in
    ``fields``.  Its optional "tolerance" overrides ``tolerance``; the entry
    parser is ``parse_scalar``, exact-only when the document asks for exact
    mode.
    """
    if not isinstance(doc, dict):
        raise DomainError("input document must be a JSON object")
    for name in fields:
        if not isinstance(doc.get(name), list):
            raise DomainError(f"input document needs a list {name!r}")
    mode = doc.get("mode", "auto")
    if "tolerance" in doc:
        tolerance = parse_nonnegative(str(doc["tolerance"]), "tolerance")
    exact_only = mode == "exact"
    return mode, tolerance, lambda x: parse_scalar(str(x), exact_only=exact_only)


def format_scalar(x: Scalar) -> str:
    """Render exact values as ``"p"`` / ``"p/q"``, floats as shortest repr."""
    if is_exact(x):
        f = Fraction(x)
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def decimal_string(x: Scalar, digits: int = 17) -> str:
    """Fixed-precision decimal rendering (JSON output of approximate data)."""
    if isinstance(x, float):
        return repr(x)
    f = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def cos_turn(j: int, q: int, offset: float = 0.0) -> float:
    """cos(offset + 2*pi*j/q), computed at 80-bit precision, one rounding."""
    import mpmath  # on first use: most commands never need it

    with mpmath.workprec(_TRIG_PREC):
        return float(mpmath.cos(offset + 2 * mpmath.pi * mpmath.mpf(j) / q))


def sin_turn(j: int, q: int, offset: float = 0.0) -> float:
    """sin(offset + 2*pi*j/q), computed at 80-bit precision, one rounding."""
    import mpmath

    with mpmath.workprec(_TRIG_PREC):
        return float(mpmath.sin(offset + 2 * mpmath.pi * mpmath.mpf(j) / q))
