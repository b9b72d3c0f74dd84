"""Scalar plumbing: exact rationals, approximate floats, parsing, formatting.

Exact values are ``int`` / ``fractions.Fraction``; anything float-valued is
approximate.  A computation is exact iff all of its inputs are, and exact
arithmetic never rounds, so certificates built from rational data are
unconditional.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeAlias

from .errors import DomainError

Scalar: TypeAlias = int | Fraction | float

#: Default tolerance of scale-aware zero tests in approximate mode.
DEFAULT_TOL = 1e-10

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


def in_unit_interval(x: Scalar, tol: float | None) -> bool:
    """x lies in [-1, 1]: exactly when ``tol is None`` (x = p/q in lowest
    terms, q > 0, with |p| <= q), else within tol."""
    if tol is None:
        return abs(x.numerator) <= x.denominator
    return near(x, max(-1, min(x, 1)), tol)


class Arithmetic:
    """The arithmetic of a configuration dataclass with fields ``mode``
    (resolved to "exact" or "approximate") and ``tolerance``."""

    mode: str
    tolerance: float

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    @property
    def near_tol(self) -> float | None:
        """The ``near`` tolerance: None in exact mode, else ``tolerance``."""
        return None if self.is_exact else self.tolerance


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


_SIGNED_DIGITS = re.compile(r"\s*[+-]?[0-9]+\s*")


def _digits(n: int) -> str:
    """Decimal digits of n, also past Python's int-to-str digit limit, where
    ``str`` raises ValueError; ``Decimal`` is exact for integers."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _parse_int(text: str) -> int:
    """``int(text)``, also for a signed digit string past the digit limit."""
    try:
        return int(text)
    except ValueError:
        if not _SIGNED_DIGITS.fullmatch(text):
            raise
        return int(Decimal(text))


def parse_scalar(text: str, *, exact_only: bool = False) -> Scalar:
    """Parse ``"p/q"``, integer, or decimal literals.

    ``"p/q"`` and plain integers parse to Fraction, however many digits they
    have; anything else parses to a finite float unless ``exact_only``, in
    which case it is rejected.
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(_parse_int(num), _parse_int(den))
        # int() rejects any text holding ".", "e" or "E": such text is a
        # decimal literal or nothing, so it goes straight to float().
        if "." not in s and "e" not in s and "E" not in s:
            return Fraction(_parse_int(s))
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
    doc: object, fields: tuple[str, ...]
) -> tuple[dict, Callable[[object], Scalar]]:
    """(settings, entry parser) of a JSON configuration document.

    The document must be an object holding a list under each name in
    ``fields``.  The settings are its "mode" and any "tolerance", as keyword
    arguments of the configuration class (whose default tolerance applies
    otherwise); the entry parser is ``parse_scalar``, exact-only in exact mode.
    """
    if not isinstance(doc, dict):
        raise DomainError("input document must be a JSON object")
    for name in fields:
        if not isinstance(doc.get(name), list):
            raise DomainError(f"input document needs a list {name!r}")
    settings = {"mode": doc.get("mode", "auto")}
    if "tolerance" in doc:
        settings["tolerance"] = parse_nonnegative(str(doc["tolerance"]), "tolerance")
    exact_only = settings["mode"] == "exact"
    return settings, lambda x: parse_scalar(str(x), exact_only=exact_only)


def format_scalar(x: Scalar) -> str:
    """Render exact values as ``"p"`` / ``"p/q"``, floats as shortest repr."""
    if is_exact(x):  # an int or a Fraction: both carry numerator, denominator
        if x.denominator == 1:
            return _digits(x.numerator)
        return f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    return repr(float(x))


def decimal_string(x: Fraction, digits: int) -> str:
    """A rational rounded to ``digits`` significant decimal digits (JSON
    output of approximate data)."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def cos_turns(js: range, q: int, offset: float = 0.0) -> list[float]:
    """cos(offset + 2*pi*j/q) for each j of the run ``js``, correctly rounded."""
    from ._trig import turns  # on first use: most commands never need it

    return turns(js, q, offset, 0)


def sin_turns(js: range, q: int, offset: float = 0.0) -> list[float]:
    """sin(offset + 2*pi*j/q) for each j of the run ``js``, correctly rounded."""
    from ._trig import turns

    return turns(js, q, offset, 1)


def cos_turn(j: int, q: int, offset: float = 0.0) -> float:
    """cos(offset + 2*pi*j/q), correctly rounded; exactly 0.0 at its zeros."""
    return cos_turns(range(j, j + 1), q, offset)[0]


def sin_turn(j: int, q: int, offset: float = 0.0) -> float:
    """sin(offset + 2*pi*j/q), correctly rounded; exactly 0.0 at its zeros."""
    return sin_turns(range(j, j + 1), q, offset)[0]
