import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from tmdesign import (
    Configuration,
    DomainError,
    SphericalConfig,
    WeightedConfiguration,
    certify_antipodal,
    certify_symmetry,
    certify_weighted_symmetry,
    is_antipodal,
    is_symmetric,
    verify_interval_design,
    verify_spherical_Tm,
    verify_weighted_design,
)
from tmdesign.cli import main
from tmdesign.scalars import cos_turn, format_scalar, near, parse_scalar, sin_turn

#: Exact rationals; exact rationals forced into approximate mode; floats.
ARITHMETICS = ("exact", "forced", "float")


def _values(values, arith):
    return tuple(float(v) if arith == "float" else v for v in values)


def _mode(arith):
    return "approximate" if arith == "forced" else "auto"


def interval(arith, points, tol=1e-10):
    return Configuration(_values(points, arith), tolerance=tol, mode=_mode(arith))


def weighted(arith, support, weights, tol=1e-10):
    return WeightedConfiguration(
        _values(support, arith), _values(weights, arith), tolerance=tol, mode=_mode(arith)
    )


def sphere(arith, points, tol=1e-9):
    pts = tuple(_values(p, arith) for p in points)
    return SphericalConfig(pts, tolerance=tol, mode=_mode(arith))


def _symmetric_outcome(kind, arith):
    """(verdict, certificates) of one symmetric input of each kind."""
    if kind == "interval":
        X = interval(arith, (F(-3, 4), F(1, 4), 0, F(3, 4), 0, F(-1, 4)))
        return verify_interval_design(X, 3).verdict, (
            certify_symmetry(X, 3),
            is_symmetric(X),
        )
    if kind == "weighted":
        W = weighted(arith, (F(1, 2), 0, F(-1, 4), F(-1, 2), F(1, 4)), (3, 5, 2, 3, 2))
        return verify_weighted_design(W, 4).verdict, (
            certify_weighted_symmetry(W, 4),
            is_symmetric(W),
        )
    S = sphere(arith, ((1, 0), (F(3, 5), F(4, 5)), (-1, 0), (F(-3, 5), F(-4, 5))))
    return verify_spherical_Tm(S, 2).verdict, (certify_antipodal(S, 2), is_antipodal(S))


def _builds(make):
    try:
        make()
    except DomainError:
        return False
    return True


def _boundary_verdicts(kind, arith, tol):
    """Two verdicts, each on an input whose gap is exactly tol * scale when
    tol = 2**-20: a power-sum residual, then a point or pair gap."""
    if kind == "interval":
        # p_1 = 2**-19 against the scale 1 + |x_1| + |x_2| = 2
        residual = interval(arith, (F(1, 2) + F(1, 2**20), F(1, 2**20) - F(1, 2)), tol)
        # the pair gap |1/2 + (-1/2 + 2**-20)| against the scale 1
        pair = interval(arith, (F(1, 2), F(1, 2**20) - F(1, 2)), tol)
        return verify_interval_design(residual, 1).verdict, is_symmetric(pair)[0]
    if kind == "weighted":
        # the residual 2**-19 against the scale 1 + sum |x| |w| = 2
        residual = weighted(
            arith, (F(1, 2), F(-1, 2)), (1 + F(1, 2**19), 1 - F(1, 2**19)), tol
        )
        # the weights 1 and 1 + 2**-19 against the scale 1 + |1| = 2
        pair = weighted(arith, (F(1, 2), F(-1, 2)), (1, 1 + F(1, 2**19)), tol)
        return verify_weighted_design(residual, 1).verdict, is_symmetric(pair)[0]
    # |x|^2 = 1 + 2**-20 against the scale 1
    x = (1, F(1, 2**10))
    unit = _builds(lambda: sphere(arith, (x, tuple(-c for c in x)), tol))
    # the coordinate gap |0 + 2**-20| against the scale 1 (|x|^2 = 1 + 2**-40)
    pair = sphere(arith, ((1, 0), (-1, F(1, 2**20))), tol)
    return unit, is_antipodal(pair)[0]


@pytest.mark.parametrize("kind", ["interval", "weighted", "sphere"])
def test_one_comparison_rule_in_every_mode(kind):
    outcomes = [_symmetric_outcome(kind, arith) for arith in ARITHMETICS]
    assert outcomes[0][0] is True
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    tol = 2.0**-20
    for arith in ("forced", "float"):
        assert _boundary_verdicts(kind, arith, tol) == (True, True)
        assert _boundary_verdicts(kind, arith, math.nextafter(tol, 0)) == (False, False)


def test_near():
    assert near(F(1, 3), F(1, 3), None)
    assert not near(F(1, 3), F(1, 3) + F(1, 10**30), None)
    assert near(0.5, 0.5 + 2.0**-20, 2.0**-20)
    assert not near(0.5, 0.5 + 2.0**-19, 2.0**-20)
    assert near(1.0, 1.0 + 2.0**-19, 2.0**-20, scale=2.0)
    assert not near(float("nan"), 0.0, 1.0)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
def test_parse_scalar_rejects_non_finite(text):
    with pytest.raises(DomainError, match="non-finite"):
        parse_scalar(text)


def test_nan_points_rejected():
    nan = float("nan")
    with pytest.raises(DomainError, match="outside"):
        Configuration((nan, 0.5, -0.5), tolerance=1e-9)
    with pytest.raises(DomainError, match="unit vector"):
        SphericalConfig(((nan, 0.0), (1.0, 0.0)))


def test_approximate_mode_rejects_rationals_too_large_for_a_float():
    huge = F(10**400)
    with pytest.raises(DomainError, match="too large"):
        Configuration((0.5, huge))
    with pytest.raises(DomainError, match="too large"):
        WeightedConfiguration((0.5, -0.5), (1.0, huge))
    with pytest.raises(DomainError, match="too large"):
        SphericalConfig(((1.0, 0.0), (0.0, huge)))
    with pytest.raises(DomainError, match="outside"):
        Configuration((huge,))



_LONG = "1" * 5000


class TestParseScalarLiterals:
    """Integers and p/q parse to Fraction, decimal literals to finite floats,
    and everything else fails with the same message, whichever path a text
    takes."""

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1_000", F(1000)),
            (" 12 ", F(12)),
            ("+3", F(3)),
            ("-0", F(0)),
            ("6/-4", F(-3, 2)),
            (_LONG, F(int(_LONG[:4000]) * 10**1000 + int(_LONG[4000:]))),
        ],
    )
    def test_rationals(self, text, value):
        for exact_only in (False, True):
            got = parse_scalar(text, exact_only=exact_only)
            assert type(got) is F and got == value

    @pytest.mark.parametrize(
        "text, value",
        [
            ("0.5", 0.5),
            (" -1.25e-3 ", -0.00125),
            ("1e5", 100000.0),
            ("1E-5", 1e-05),
            (".5", 0.5),
            ("5.", 5.0),
            ("1_000.5", 1000.5),
            ("-0.0", -0.0),
            (_LONG + "e-4990", 1111111111.1111112),
        ],
    )
    def test_decimals(self, text, value):
        got = parse_scalar(text)
        assert type(got) is float and got.hex() == value.hex()
        with pytest.raises(DomainError, match="exact mode rejects non-rational"):
            parse_scalar(text, exact_only=True)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.5/2", "cannot parse"),
            ("1e3/2", "cannot parse"),
            ("1e", "cannot parse"),
            ("1.2.3", "cannot parse"),
            ("e5", "cannot parse"),
            ("0x1p3", "cannot parse"),
            ("nan", "non-finite"),
            ("inf", "non-finite"),
            ("-Infinity", "non-finite"),
            ("1e400", "non-finite"),
            (_LONG + ".5", "non-finite"),
            (_LONG + "E1", "non-finite"),
        ],
    )
    def test_rejected(self, text, message):
        with pytest.raises(DomainError, match=message):
            parse_scalar(text)
        with pytest.raises(DomainError, match="exact mode rejects non-rational"):
            parse_scalar(text, exact_only=True)


class TestLongIntegers:
    """Integers past Python's 4300-digit int-to-str limit print and parse
    exactly, through ``Decimal``; shorter ones keep their bytes."""

    BIG = 10**5000 + 7

    @pytest.mark.parametrize(
        "x", [F(BIG), F(-BIG), F(-7, BIG), F(BIG, 10**4400 + 1), F(10**4299 + 1, 3)]
    )
    def test_round_trip(self, x):
        text = format_scalar(x)
        assert parse_scalar(text, exact_only=True) == x
        assert parse_scalar(f" {text} ") == x

    def test_digits(self):
        assert format_scalar(F(-self.BIG, 9)) == "-1" + "0" * 4999 + "7/9"
        assert format_scalar(10**4299) == "1" + "0" * 4299
        assert parse_scalar("+" + "0" * 5000 + "12") == 12

    def test_non_integer_long_literals_still_rejected(self):
        for text in ("1" * 5000 + ".5", "1" * 5000 + "x", "1" * 5000 + "/0"):
            with pytest.raises(DomainError):
                parse_scalar(text, exact_only=True)

    def test_verify_weighted_prints_long_residuals(self, tmp_path, capsys):
        n = 10**400
        support = [f"1/{n + 1}", f"1/{n + 3}", f"1/{n + 7}", f"-1/{2 * (n + 1)}"]
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps({"support": support, "weights": [1, 1, 1, 1]}))
        assert main(["verify", "weighted", "--m", "3", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        assert max(len(r) for r in doc["residuals"]) > 4300
        for r in doc["residuals"]:
            assert format_scalar(parse_scalar(r, exact_only=True)) == r

def test_document_tolerance_parsed():
    doc = {"points": ["1/4", "-1/4"], "tolerance": "1e-9"}
    assert Configuration.from_json(doc).tolerance == 1e-9
    assert Configuration.from_json(dict(doc, tolerance=1e-7)).tolerance == 1e-7
    for bad in ("-1e-9", "nan", True):
        with pytest.raises(DomainError):
            Configuration.from_json(dict(doc, tolerance=bad))


@pytest.mark.parametrize(
    "cls, doc",
    [
        (Configuration, ["1/2", "-1/2"]),
        (Configuration, {"pts": ["1/2"]}),
        (Configuration, {"points": "1/2"}),
        (WeightedConfiguration, {"support": ["1/2"]}),
        (SphericalConfig, {"points": [["1", "0"], "0"]}),
    ],
)
def test_malformed_documents_rejected(cls, doc):
    with pytest.raises(DomainError):
        cls.from_json(doc)


class TestTrigTurns:
    #: (j, q, offset) -> (cos_turn, sin_turn), as computed with mpmath
    #: imported at module level.
    PINNED = {
        (0, 5, 0.0): (1.0, 0.0),
        (1, 5, 0.0): (0.30901699437494745, 0.9510565162951535),
        (2, 7, 0.0): (-0.2225209339563144, 0.9749279121818236),
        (3, 11, 0.4): (-0.516535271480183, 0.8562659127379144),
        (5, 13, -1.25): (0.3932710260251439, 0.9194225905910354),
        (1, 3, 0.0): (-0.5, 0.8660254037844386),
    }

    @pytest.mark.parametrize("args", sorted(PINNED))
    def test_values_unchanged(self, args):
        j, q, offset = args
        got = (cos_turn(j, q, offset=offset), sin_turn(j, q, offset=offset))
        assert got == self.PINNED[args]

    def test_cli_import_leaves_mpmath_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, tmdesign.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('mpmath')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"
