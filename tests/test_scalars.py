import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import struct
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
from tmdesign.scalars import (
    cos_turn,
    cos_turns,
    format_scalar,
    near,
    parse_scalar,
    sin_turn,
    sin_turns,
)

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


#: Prints the sha256 of every (cos_turn, sin_turn) over q = 1..600 and
#: j = 0..2q, as little-endian doubles, computed a run of j per q.
TRIG_GRID = """
import hashlib, struct
from tmdesign.scalars import cos_turns, sin_turns
digest = hashlib.sha256()
for q in range(1, 601):
    turns = range(2 * q + 1)
    for c, s in zip(cos_turns(turns, q), sin_turns(turns, q)):
        digest.update(struct.pack("<2d", c, s))
print(digest.hexdigest())
"""


def _trig_grid_digest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(TRIG_GRID, {})
    return out.getvalue().strip()


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

    #: ``TRIG_GRID``'s digest of the values of 80-bit mpmath, rounded once,
    #: with the exact zeros (where mpmath gives about 1e-24) set to 0.0.
    GRID_DIGEST = "146fc26f9e6c90055a5813997c1f15fdb2ec97233f638766261d979c1a7e776e"

    #: The digest of (cos_turn, sin_turn) at 2,000 seeded (j, q, offset) with
    #: offset in [-8, 8], from 80-bit mpmath.
    OFFSET_DIGEST = "2f506fd1faf7108bbf0fed1041df7a8a64e5ca85ef6e6ba3a6ab12992c7fb329"

    @pytest.mark.parametrize("args", sorted(PINNED))
    def test_values_unchanged(self, args):
        j, q, offset = args
        got = (cos_turn(j, q, offset=offset), sin_turn(j, q, offset=offset))
        assert got == self.PINNED[args]

    def test_grid_equals_mpmath(self):
        assert _trig_grid_digest() == self.GRID_DIGEST

    def test_offsets_equal_mpmath(self):
        rng = random.Random(1991)
        digest = hashlib.sha256()
        for _ in range(2000):
            q = rng.randint(1, 600)
            j = rng.randint(0, 2 * q)
            offset = rng.uniform(-8.0, 8.0)
            pair = (cos_turn(j, q, offset), sin_turn(j, q, offset))
            digest.update(struct.pack("<2d", *pair))
        assert digest.hexdigest() == self.OFFSET_DIGEST

    def test_exact_zeros_are_positive_zero(self):
        # cos vanishes at 4j = q (mod 2q), sin at 2j = 0 (mod q); repr tells -0.0
        for j, q in ((1, 4), (3, 4), (9, 12), (7, 4), (-1, 4), (150, 600)):
            assert repr(cos_turn(j, q)) == "0.0"
        for j, q in ((0, 1), (1, 2), (3, 6), (-4, 4), (600, 600), (1200, 600)):
            assert repr(sin_turn(j, q)) == "0.0"

    @pytest.mark.parametrize(
        "turns, q, offset",
        [
            (range(1, 40, 2), 80, 0.0),
            (range(-30, 30), 7, 0.0),
            (range(50, -50, -3), 101, 2.5),
            (range(0, 400, 7), 13, -1e-300),
            (range(5), 3, 1e300),
            (range(3), 1, 1.5707963267948966),
        ],
    )
    def test_a_run_equals_its_single_values(self, turns, q, offset):
        assert cos_turns(turns, q, offset) == [cos_turn(j, q, offset) for j in turns]
        assert sin_turns(turns, q, offset) == [sin_turn(j, q, offset) for j in turns]

    def test_values_near_zero_are_correctly_rounded(self):
        # the double nearest pi/2: cos is 6.123233995736766e-17, which the
        # first precision cannot place, so it is recomputed at a higher one
        tiny = 6.123233995736766e-17
        assert cos_turn(0, 1, math.pi / 2) == tiny
        assert cos_turns(range(2), 2, math.pi / 2) == [tiny, -tiny]
        assert sin_turn(1, 2, math.pi) == -1.2246467991473532e-16

    def test_empty_run(self):
        assert cos_turns(range(0), 5) == [] == sin_turns(range(3, 3), 5, 1.0)

    @pytest.mark.parametrize("q", [0, -1, -7])
    def test_q_below_one_rejected(self, q):
        for f in (cos_turn, sin_turn):
            with pytest.raises(DomainError, match="q must be a positive integer"):
                f(1, q)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, offset):
        for f in (cos_turns, sin_turns):
            with pytest.raises(DomainError, match="offset must be finite"):
                f(range(3), 5, offset)

    def test_cli_import_loads_only_stdlib_modules(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; before = set(sys.modules); import tmdesign.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] not in {'tmdesign', *sys.stdlib_module_names}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
    def test_other_interpreters_give_the_same_grid(self, python):
        # integer arithmetic and one correctly rounded division per value:
        # the values cannot depend on the interpreter's version
        path = shutil.which(python)
        runs = path and subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
        if not runs or runs.returncode != 0:
            pytest.skip(f"no working {python} on PATH")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [path, "-S", "-c", TRIG_GRID],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == self.GRID_DIGEST
