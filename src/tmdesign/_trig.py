"""Cosines and sines at rational turns, correctly rounded, on integers.

``turns`` gives cos or sin of offset + 2*pi*j/q for an arithmetic run of j:
e^(ia) at the first angle and e^(2*pi*i*step/q) are summed as Taylor series
on fixed-point integers, with pi from Machin's formula, and the run is
walked by complex rotation.  Each value carries an error bound and is
rounded once, by ``int / int``, when its bound cannot straddle a rounding
boundary, and recomputed at twice the precision when it can.  Only integer
arithmetic and that correctly rounded division are used, so the values are
the same on every CPython.  ``scalars.cos_turns`` and ``sin_turns`` import
this module on first use.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: (bits, pi at scale 2**bits) of the most precise pi computed so far.
_pi_table = (0, 0)


def _acot(x: int, one: int) -> int:
    """atan(1/x) at scale ``one``, term by term."""
    x2 = x * x
    power = total = one // x
    n = 1
    while power:
        power //= x2
        n += 2
        total += -(power // n) if n % 4 == 3 else power // n
    return total


def _pi(bits: int) -> int:
    """pi at scale 2**bits, within 2 units: Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) with guard bits on first need, cut down
    for fewer bits afterwards."""
    global _pi_table
    have, value = _pi_table
    if bits > have:
        have = bits + bits.bit_length() + 12
        one = 1 << have
        value = 4 * (4 * _acot(5, one) - _acot(239, one))
        _pi_table = have, value
    return value >> (have - bits)


def _cis(turn: int, q: int, num: int, den: int, bits: int) -> tuple[int, int, int]:
    """(c, s, err): c + i s is e^(ia), a = num/den + 2*pi*turn/q, at scale
    2**bits, with |c + i s - 2**bits e^(ia)| <= err.

    The angle, with guard bits for the multiples of pi/2 taken out of a
    large offset, is cut to a quarter turn k and a rest |r| <= pi/4; the
    Taylor series of e^(ir) is summed on integers and turned by i^k.
    """
    extra = 8 + (abs(num) // den).bit_length()
    work = bits + extra
    pi = _pi(work)
    half = pi >> 1
    angle = (num << work) // den + 2 * pi * (turn % q) // q
    k = (2 * angle + half) // (2 * half)
    r = (angle - k * half) >> extra
    one = 1 << bits
    c, s, term, n = one, 0, one, 0
    while term:
        n += 1
        term = term * r // (n << bits)
        if n % 4 == 1:
            s += term
        elif n % 4 == 2:
            c -= term
        elif n % 4 == 3:
            s -= term
        else:
            c += term
    # Each term is within 5 units and the tail past the last within 5; the
    # rest r is within 2, which moves e^(ir) by as much.
    err = 10 * n + 12
    return ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4] + (err,)


def turns(js: range, q: int, offset: float, part: int, bits: int = 0) -> list[float]:
    """Component ``part`` (0: cos, 1: sin) of e^(i(offset + 2*pi*j/q)) for
    each j of ``js``, correctly rounded.

    The run is walked by complex rotation from its first value, and each
    value keeps a bound on its error.  A value is returned when both ends
    of its error interval round to the same nonzero double (``int / int``
    rounds correctly); otherwise it is recomputed alone at twice the
    precision.  An interval about 0 never passes, so with no offset the
    zeros are read off (j, q): cos vanishes where 4j = q and sin where
    4j = 0 (mod 2q).  With a nonzero offset the angle is a nonzero rational
    plus a rational multiple of pi, whose cosine and sine are transcendental.
    """
    if q < 1:
        raise DomainError(f"q must be a positive integer; got {q}")
    if not math.isfinite(offset):
        raise DomainError(f"offset must be finite; got {offset!r}")
    if not js:
        return []
    num, den = float(offset).as_integer_ratio()
    shift = 0 if part else q
    bits = bits or 100 + len(js).bit_length()
    one = 1 << bits
    c, s, err = _cis(js.start, q, num, den, bits)
    wc, ws, werr = _cis(js.step, q, 0, 1, bits) if len(js) > 1 else (one, 0, 0)
    out = []
    for j in js:
        v = s if part else c
        lo, hi = (v - err) / one, (v + err) / one
        if num == 0 and (4 * j - shift) % (2 * q) == 0:
            out.append(0.0)
        elif lo == hi and lo:
            out.append(lo)
        else:
            out += turns(range(j, j + 1), q, offset, part, 2 * bits)
        # a step adds the step's error, the two floors (< sqrt 2) and the
        # product of the two errors (< 1 while err * werr < 2**bits)
        c, s = (c * wc - s * ws) >> bits, (c * ws + s * wc) >> bits
        err += werr + 3
    return out
