import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdesign import (
    AntipodalCertificate,
    Configuration,
    SphericalConfig,
    SymmetryCertificate,
    WeightedConfiguration,
)
from tmdesign import cli
from tmdesign.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestConstruct:
    def test_perturbed_m1(self, capsys):
        code, doc, _ = run_json(
            capsys, "construct", "perturbed", "--m", "1", "--epsilon", "3/16"
        )
        assert code == 0
        assert doc["epsilon"] == "3/16"
        assert doc["certificate"] == ["0"]
        assert len(doc["points"]) == 3
        assert doc["points"][-1] == "1"
        assert abs(float(doc["points"][0]) + 0.75) < 1e-11
        assert doc["verification"]["verdict"] is True

    @pytest.mark.parametrize("m, halvings", [(24, 65), (25, 68)])
    def test_perturbed_past_64_halvings(self, capsys, m, halvings):
        code, doc, _ = run_json(capsys, "construct", "perturbed", "--m", str(m))
        assert code == 0
        assert doc["epsilon"] == f"1/{16 * 2**halvings}"
        assert doc["certificate"] == ["0"] * m
        assert doc["verification"]["verdict"] is True

    def test_perturbed_m40(self, capsys):
        # 80 roots of g, isolated from brackets and refined, and the point 1
        code, doc, _ = run_json(capsys, "construct", "perturbed", "--m", "40")
        assert code == 0
        assert len(doc["points"]) == 81
        assert doc["certificate"] == ["0"] * 40
        assert doc["verification"]["verdict"] is True

    def test_binomial_n3(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "binomial", "--n", "3")
        assert code == 0
        assert doc["support"] == ["1/2", "-1/4", "-3/4"]
        assert doc["weights"] == ["12", "15", "3"]
        assert doc["verification"]["residuals"] == ["0", "0"]

    def test_spherical_polygon_m2(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "spherical-polygon", "--m", "2")
        assert code == 0
        assert doc["dim"] == 2
        assert len(doc["points"]) == 5
        for check in doc["verification"]["checks"]:
            assert abs(float(check["gegenbauer_residual"])) <= 1e-12

    def test_polygon_weighted(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "polygon-weighted", "--n", "3")
        assert code == 0
        assert doc["verification"]["verdict"] is True

    def test_missing_params_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "perturbed")
        assert code == 2
        assert "requires --m" in err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        # an output path that cannot be written is a usage error, not a
        # negative result, and gets one line instead of a traceback
        out = tmp_path / "missing" / "x.json"
        code, stdout, err = run(
            capsys, "construct", "binomial", "--n", "3", "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        assert not out.exists()


class TestVerify:
    def test_interval_true(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"points": ["1", "-1"], "mode": "exact"}))
        code, doc, _ = run_json(capsys, "verify", "interval", str(path), "--m", "3")
        assert code == 0
        assert doc["verdict"] is True
        assert doc["residuals"] == ["0", "0", "0"]

    def test_weighted_sharp_example_fails(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"support": ["2/3", "-1/3"], "weights": ["2", "4"]})
        )
        code, doc, _ = run_json(capsys, "verify", "weighted", str(path), "--m", "2")
        assert code == 1
        assert doc["verdict"] is False
        assert F(doc["residuals"][1]) == F(12, 27)

    def test_spherical_pentagon(self, tmp_path, capsys):
        code, pent, _ = run_json(capsys, "construct", "spherical-polygon", "--m", "2")
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps({"dim": pent["dim"], "points": pent["points"]}))
        code, doc, _ = run_json(capsys, "verify", "spherical", str(path), "--m", "2")
        assert code == 0
        assert doc["verdict"] is True

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "interval", str(path), "--m", "1")
        assert code == 2
        assert "error" in err

    def test_exact_mode_rejects_decimal_literals(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"points": ["0.5", "-0.5"], "mode": "exact"}))
        code, _, err = run(capsys, "verify", "interval", str(path), "--m", "1")
        assert code == 2

    def test_approximate_mode_requires_tol(self, tmp_path, capsys):
        path = tmp_path / "approx.json"
        path.write_text(json.dumps({"points": ["0.5", "-0.5"]}))
        code, _, err = run(
            capsys, "verify", "interval", str(path), "--m", "1", "--mode", "approximate"
        )
        assert code == 2
        assert "--tol" in err
        code, doc, _ = run_json(
            capsys,
            "verify",
            "interval",
            str(path),
            "--m",
            "1",
            "--mode",
            "approximate",
            "--tol",
            "1e-10",
        )
        assert code == 0 and doc["verdict"] is True


# The documents of the benchmark's known-defect probes for the certify
# workload, with the argv each probe runs.
MALFORMED = [
    ({"pts": ["1/2", "-1/2"]}, ["certify", "symmetry", "--m", "1"]),
    (["1/2", "-1/2"], ["verify", "interval", "--m", "1"]),
    (
        {"points": ["0.25", "-0.25"], "tolerance": "1e-9"},
        ["certify", "symmetry", "--m", "1", "--mode", "approximate", "--tol", "1e-9"],
    ),
    (
        {"points": ["nan", "0.5", "-0.5"]},
        ["verify", "interval", "--m", "2", "--mode", "approximate", "--tol", "1e-9"],
    ),
]


# Bytes that json cannot read: not UTF-8, nested past the recursion limit,
# and an integer past Python's digit limit for int-to-str conversions.
UNREADABLE = [
    (b'{"points": ["\xff"]}', ["certify", "symmetry", "--m", "1"]),
    (b"[" * 100000, ["verify", "interval", "--m", "1"]),
    (b'{"points": [' + b"7" * 5000 + b"]}", ["certify", "symmetry", "--m", "1"]),
]


@pytest.mark.parametrize(
    "doc, argv",
    MALFORMED + UNREADABLE,
    ids=["missing-points", "top-level-list", "tolerance-twice", "nan-point",
         "not-utf-8", "deep-nesting", "long-integer"],
)
def test_malformed_document_exits_two(tmp_path, capsys, doc, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code, out, err = run(capsys, *argv[:2], str(path), *argv[2:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("dim", [5, 1, "x", "2", None, True, 2.0])
@pytest.mark.parametrize("command, kind", [("verify", "spherical"), ("certify", "antipodal")])
def test_spherical_dim_must_match_the_points(tmp_path, capsys, dim, command, kind):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": dim, "points": [["1", "0"], ["-1", "0"]]}))
    code, out, err = run(capsys, command, kind, str(path), "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: dim ") and err.count("\n") == 1


class TestDocumentTolerance:
    def test_string_tolerance_is_used(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"points": ["0.25", "-0.25"], "tolerance": "1e-9"}))
        code, doc, _ = run_json(
            capsys, "certify", "symmetry", str(path), "--m", "1", "--mode", "approximate"
        )
        assert code == 0
        assert doc == {"pairs": [[0, 1]], "fixed": []}

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "1e-9x"])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, tol):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"points": ["0.25", "-0.25"], "tolerance": tol}))
        code, _, err = run(capsys, "verify", "interval", str(path), "--m", "1")
        assert code == 2
        assert err.startswith("error: ")


class TestCertify:
    def test_symmetry_pairs(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        path.write_text(
            json.dumps({"points": ["1/2", "-1/2", "3/4", "-3/4"], "mode": "exact"})
        )
        code, doc, _ = run_json(capsys, "certify", "symmetry", str(path), "--m", "2")
        assert code == 0
        assert doc == {"pairs": [[0, 1], [2, 3]], "fixed": []}

    def test_weighted_symmetry(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"support": ["0", "1/3", "-1/3"], "weights": ["5", "7", "7"]})
        )
        code, doc, _ = run_json(
            capsys, "certify", "weighted-symmetry", str(path), "--m", "2"
        )
        assert code == 0
        assert doc == {"pairs": [[1, 2]], "fixed": [0]}

    def test_weighted_symmetry_with_weights_past_float_range(self, tmp_path, capsys):
        # exact weight tests build no float scale, so 10^400 does not overflow
        path = tmp_path / "w.json"
        big = str(10**400)
        path.write_text(json.dumps({"support": ["1/2", "-1/2"], "weights": [big, big]}))
        code, doc, _ = run_json(
            capsys, "certify", "weighted-symmetry", str(path), "--m", "2"
        )
        assert code == 0
        assert doc == {"pairs": [[0, 1]], "fixed": []}

    def test_antipodal_cross(self, tmp_path, capsys):
        path = tmp_path / "cross.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "points": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
                }
            )
        )
        code, doc, _ = run_json(capsys, "certify", "antipodal", str(path), "--m", "2")
        assert code == 0
        assert doc == {"pairs": [[0, 1], [2, 3]]}

    def test_antipodal_pentagon_rejected(self, tmp_path, capsys):
        code, pent, _ = run_json(capsys, "construct", "spherical-polygon", "--m", "2")
        path = tmp_path / "pentagon.json"
        path.write_text(json.dumps({"dim": 2, "points": pent["points"]}))
        code, doc, _ = run_json(capsys, "certify", "antipodal", str(path), "--m", "2")
        assert code == 1
        assert "n=5 > 2m=4" in doc["error"]
        assert doc["type"] == "PreconditionError"

    def test_antipodal_pair_checked_at_tolerance(self, tmp_path, capsys):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"points": [["1.0", "0.0"], ["-1.0", "-1.5e-09"]]}))
        code, doc, _ = run_json(
            capsys, "certify", "antipodal", str(path), "--m", "1", "--tol", "1e-9"
        )
        assert code == 1
        assert doc["type"] == "ToleranceError"
        assert doc["reason"] == "hypothesis approximately violated"

    def test_hypothesis_error_carries_index(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": ["1", "2/3", "-3/4"], "mode": "exact"}))
        code, doc, _ = run_json(capsys, "certify", "symmetry", str(path), "--m", "2")
        assert code == 1
        assert doc["failing_index"] == 1


class TestIdentities:
    def test_binom_sum_table(self, capsys):
        code, doc, _ = run_json(capsys, "identities", "binom-sum", "--n", "3")
        assert code == 0
        assert doc == {"s=0": "-10", "s=1": "0", "s=2": "0"}

    def test_binom_sum_n2(self, capsys):
        code, doc, _ = run_json(capsys, "identities", "binom-sum", "--n", "2")
        assert code == 0
        assert doc == {"s=0": "-3", "s=1": "0"}

    def test_binom_sum_n0_exits_two(self, capsys):
        code, out, err = run(capsys, "identities", "binom-sum", "--n", "0")
        assert code == 2
        assert out == "" and "--n" in err

    def test_newton_tables(self, capsys):
        code, doc, _ = run_json(
            capsys, "identities", "newton", "--roots", "1,2,3", "--k", "3"
        )
        assert code == 0
        assert doc["p"] == ["6", "14", "36"]
        assert doc["e"] == ["1", "6", "11", "6"]
        assert doc["consistent"] is True


class TestSearch:
    def test_byte_determinism(self, capsys):
        args = ["search", "six-point", "--trials", "3", "--seed", "5", "--margin", "0.1"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_margin_zero_finds_antipodal_solution(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "search",
            "six-point",
            "--trials",
            "6",
            "--seed",
            "7",
            "--margin",
            "0",
        )
        assert code == 0
        assert doc["found_below_tolerance"] is True

    @pytest.mark.parametrize("margin", ["nan", "-0.1", "0.1x", "3", "2.5"])
    def test_bad_margin_exits_two(self, capsys, margin):
        code, out, err = run(capsys, "search", "six-point", "--margin", margin)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_margin_blocks_solution(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "search",
            "six-point",
            "--trials",
            "5",
            "--seed",
            "7",
            "--margin",
            "0.1",
        )
        assert code == 0
        assert doc["found_below_tolerance"] is False


class TestQuadrature:
    def test_flags_variant_formula(self, capsys):
        code, doc, _ = run_json(capsys, "quadrature", "--n", "2")
        assert code == 0
        assert doc["verdict"] is True
        assert abs(float(doc["variant_degree_one_mean"]) + 0.5) < 1e-15
        assert doc["variant_degree_one_ok"] is False


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = main(
        ["identities", "binom-sum", "--n", "2", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text()) == {"s=0": "-3", "s=1": "0"}


class _Stub:
    """A report or certificate that names the replaced function that made it."""

    verdict = True

    def __init__(self, name):
        self.name = name

    def to_json(self):
        return {"stub": self.name}


POINTS = {"points": ["1/2", "-1/2"]}
WEIGHTED = {"support": ["1/3", "-1/3"], "weights": ["1", "1"]}
SPHERE = {"dim": 2, "points": [["1", "0"], ["-1", "0"]]}
# a document of each verify and certify kind
DOCUMENTS = {
    "interval": POINTS, "symmetry": POINTS, "weighted": WEIGHTED,
    "weighted-symmetry": WEIGHTED, "spherical": SPHERE, "antipodal": SPHERE,
}

# argv (FILE stands for the kind's document), module, function that must run
LOOKED_UP = [
    (["certify", "symmetry", "FILE", "--m", "1"], "interval_design", "certify_symmetry"),
    (["verify", "interval", "FILE", "--m", "1"], "interval_design", "verify_interval_design"),
    (
        ["certify", "weighted-symmetry", "FILE", "--m", "1"],
        "interval_design",
        "certify_weighted_symmetry",
    ),
    (["verify", "weighted", "FILE", "--m", "1"], "interval_design", "verify_weighted_design"),
    (["certify", "antipodal", "FILE", "--m", "1"], "spherical", "certify_antipodal"),
    (["verify", "spherical", "FILE", "--m", "1"], "spherical", "verify_spherical_Tm"),
    (["construct", "binomial", "--n", "3"], "interval_design", "verify_weighted_design"),
    (["construct", "spherical-polygon", "--m", "2"], "spherical", "verify_spherical_Tm"),
    (["construct", "perturbed", "--m", "1"], "interval_design", "verify_interval_design"),
    (["search", "six-point", "--trials", "1"], "spherical", "six_point_search"),
    (["quadrature", "--n", "2"], "constructions", "chebyshev_gauss_check"),
]


@pytest.mark.parametrize(
    "argv, module, name", LOOKED_UP, ids=[" ".join(argv[:2]) for argv, *_ in LOOKED_UP]
)
def test_functions_are_looked_up_when_called(tmp_path, capsys, monkeypatch, argv, module, name):
    # a function replaced in its module after import is the one the command
    # runs, which a tracer that wraps module functions relies on
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOCUMENTS.get(argv[1])))
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        return _Stub(name)

    monkeypatch.setattr(importlib.import_module(f"tmdesign.{module}"), name, stub)
    code, doc, _ = run_json(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 0
    assert len(calls) == 1
    assert doc.get("verification", doc) == {"stub": name}


# The option names each subcommand registers: exactly the ones its handler
# reads (--help aside).
OPTIONS = {
    "construct": {"--m", "--n", "--epsilon", "--precision", "--out"},
    "verify": {"--m", "--tol", "--mode", "--out"},
    "certify": {"--m", "--tol", "--mode", "--out"},
    "identities": {"--n", "--roots", "--k", "--out"},
    "search": {"--tol", "--trials", "--seed", "--margin", "--out"},
    "quadrature": {"--n", "--k", "--out"},
}


def _commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_command_registers_the_options_it_reads():
    full = _commands(cli._build_parser())
    registered = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in full.items()
    }
    assert registered == OPTIONS
    assert sum(map(len, registered.values())) == 25
    # the parser built for one command holds that command alone, the same
    # as in the full parser
    for name, p in full.items():
        alone = _commands(cli._build_parser(name))
        assert list(alone) == [name]
        assert [a.option_strings for a in alone[name]._actions] == [
            a.option_strings for a in p._actions
        ]
        assert alone[name].format_help() == p.format_help()
        assert alone[name].format_usage() == p.format_usage()


# A stray positional after a valid invocation of each command; "DOC" stands
# for a valid document.
STRAY = [
    ["construct", "binomial", "--n", "3", "stray"],
    ["verify", "interval", "DOC", "--m", "1", "stray"],
    ["certify", "symmetry", "DOC", "--m", "1", "stray"],
    ["identities", "binom-sum", "--n", "3", "stray"],
    ["search", "six-point", "--trials", "1", "stray"],
    ["quadrature", "--n", "4", "stray"],
]


@pytest.mark.parametrize("argv", STRAY, ids=" ".join)
def test_stray_positional_reports_the_full_usage(tmp_path, capsys, argv):
    # argparse reports it with the top-level usage, which names all six
    # commands although main built the parser of one
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
    argv = [str(path) if a == "DOC" else a for a in argv]
    errors = []
    for parse in (main, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "{construct,verify,certify,identities,search,quadrature} ..." in errors[0]
    assert errors[0].endswith("tmdesign: error: unrecognized arguments: stray\n")


@pytest.mark.parametrize(
    "argv, only", [(["identities", "binom-sum", "--n", "3"], "identities"), (["--help"], None)]
)
def test_main_reads_sys_argv(capsys, monkeypatch, argv, only):
    # the console script and python -m tmdesign.cli call main() with no
    # arguments; it builds the parser of the command named in sys.argv
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: built.append(name) or build(name))

    def outcome(*args):
        try:
            code = main(*args)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    monkeypatch.setattr(sys, "argv", ["tmdesign", *argv])
    assert outcome() == outcome(argv)
    assert outcome()[0] == 0
    assert built == [only] * 3


# Invocations that add an option the command does not read; "DOC" stands for
# a valid document.
UNREAD = [
    ["construct", "perturbed", "--m", "1", "--tol", "5"],
    ["construct", "binomial", "--n", "3", "--mode", "exact"],
    # options that only another kind of the same command reads
    ["construct", "binomial", "--n", "3", "--epsilon", "1/2"],
    ["construct", "binomial", "--n", "3", "--precision", "1/8"],
    ["construct", "polygon-weighted", "--n", "3", "--m", "2"],
    ["construct", "perturbed", "--m", "1", "--n", "3"],
    ["construct", "spherical-polygon", "--m", "2", "--n", "3"],
    ["identities", "binom-sum", "--n", "3", "--roots", "1"],
    ["identities", "binom-sum", "--n", "3", "--k", "2"],
    ["identities", "newton", "--roots", "1,2", "--n", "3"],
    ["verify", "interval", "DOC", "--m", "1", "--n", "7"],
    ["certify", "symmetry", "DOC", "--m", "1", "--n", "7"],
    ["identities", "binom-sum", "--n", "3", "--m", "2"],
    ["identities", "binom-sum", "--n", "3", "--tol", "1"],
    ["identities", "newton", "--roots", "1,2", "--mode", "exact"],
    ["search", "six-point", "--trials", "1", "--m", "3"],
    ["search", "six-point", "--trials", "1", "--n", "3"],
    ["search", "six-point", "--trials", "1", "--mode", "exact"],
    ["quadrature", "--n", "3", "--m", "1"],
    ["quadrature", "--n", "3", "--tol", "1"],
    ["quadrature", "--n", "3", "--mode", "exact"],
]


@pytest.mark.parametrize("argv", UNREAD, ids=" ".join)
def test_unread_option_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
    argv = [str(path) if a == "DOC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # --m would otherwise stand for --margin, the one search option it prefixes
        ["search", "six-point", "--trials", "1", "--m", "1"],
        ["construct", "perturbed", "--m", "1", "--eps", "3/16"],
    ],
    ids=" ".join,
)
def test_options_are_not_abbreviated(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# A valid document of each certify kind, run with a negative --m.
NEGATIVE_M = [
    ({"points": ["1/2", "-1/2"]}, "symmetry", "-1"),
    ({"points": []}, "symmetry", "-2"),
    ({"support": ["0"], "weights": ["1"]}, "weighted-symmetry", "-3"),
    ({"support": ["1/2", "-1/2"], "weights": ["1", "1"]}, "weighted-symmetry", "-1"),
    (
        {"dim": 2, "points": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]},
        "antipodal",
        "-1",
    ),
]


@pytest.mark.parametrize("doc, kind, m", NEGATIVE_M)
def test_certify_negative_m_exits_two(tmp_path, capsys, doc, kind, m):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", kind, str(path), "--m", m)
    assert code == 2
    assert out == ""
    assert err == "error: m must be >= 0\n"


# Entries of the fuzzed documents: valid rationals and floats in [-1, 1] drawn
# twice as often as the rest, which holds bad literals, values out of range or
# too large for a float, and JSON values of other types.
_GOOD = ["1/2", "-1/2", "0", "1", "-1", "3/4", "-3/4", "1/3", "-1/3", "0.5", "-0.5",
         0.25, -0.25, 1, -1, 0]
_BAD = ["1/0", "nan", "inf", "-inf", "abc", "", "1e400", "2", 1e308, 10**30,
        10**400, None, True, [], {}]
_entries = st.one_of(st.sampled_from(_GOOD), st.sampled_from(_GOOD), st.sampled_from(_BAD))
_extras = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(["exact", "approximate", "auto", "bogus", None]),
        "tolerance": st.sampled_from(["1e-9", 0, 1e-12, 1e300, "-1", "nan", "x", None]),
    },
)
_bodies = {
    "interval": st.fixed_dictionaries({"points": st.lists(_entries, max_size=6)}),
    "weighted": st.integers(0, 4).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "support": st.lists(_entries, min_size=n, max_size=n),
                "weights": st.lists(_entries, min_size=n, max_size=n + 1),
            }
        )
    ),
    "spherical": st.integers(1, 3).flatmap(
        lambda d: st.fixed_dictionaries(
            {
                "dim": st.sampled_from([d, "2", None]),
                "points": st.lists(
                    st.one_of(
                        st.lists(_entries, min_size=d, max_size=d),
                        st.sampled_from(
                            [["1", "0"], ["-1", "0"], ["0", 1], ["0", -1],
                             ["3/5", "4/5"], ["-3/5", "-4/5"], [0.6, 0.8], "1", None]
                        ),
                    ),
                    max_size=6,
                ),
            }
        )
    ),
}
_KINDS = [
    ("verify", "interval", "interval"),
    ("verify", "weighted", "weighted"),
    ("verify", "spherical", "spherical"),
    ("certify", "symmetry", "interval"),
    ("certify", "weighted-symmetry", "weighted"),
    ("certify", "antipodal", "spherical"),
]


@st.composite
def _cli_runs(draw):
    command, kind, body = draw(st.sampled_from(_KINDS))
    doc = draw(
        st.one_of(
            st.tuples(_bodies[body], _extras).map(lambda t: {**t[0], **t[1]}),
            st.sampled_from([[], "x", 3, None, {"points": "1/2"}]),
        )
    )
    options = ["--m", str(draw(st.integers(-2, 4)))]
    if draw(st.booleans()):
        options += ["--mode", draw(st.sampled_from(["exact", "approximate", "auto"]))]
    if draw(st.booleans()):
        options += ["--tol", draw(st.sampled_from(["1e-9", "0", "-1", "nan", "1e400"]))]
    return [command, kind], doc, options


@given(_cli_runs())
@settings(max_examples=500, derandomize=True, deadline=None)
def test_fuzz_verify_and_certify_exit_codes(tmp_path_factory, run_):
    head, doc, options = run_
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main([*head, str(path), *options])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)
    if int(options[1]) < 0:
        assert code == 2


# Near-symmetric documents for the certifiers: each value or point comes
# with a partner that is its exact negation plus a noise of a few tolerances
# (in exact mode a rational noise of the same size), in shuffled order.
_TOL = F(1, 10**9)
# in units of the tolerance; 3/2 first, since a miss of a little more than
# the tolerance is where a pair test looser than the checker would show
_NOISE = [F(3, 2), 0, F(1, 2), 3, 30]
_VALUES = [F(1, 2), F(3, 4), F(1, 3), F(1), F(1, 100)]
_UNITS = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))]


@st.composite
def _certify_runs(draw):
    kind = draw(st.sampled_from(["symmetry", "weighted-symmetry", "antipodal"]))
    exact = draw(st.booleans())
    fmt = str if exact else (lambda v: repr(float(v)))

    def noise():
        return draw(st.sampled_from(_NOISE)) * draw(st.sampled_from([1, -1])) * _TOL

    if kind == "antipodal":
        points = []
        for x in draw(st.lists(st.sampled_from(_UNITS), min_size=1, max_size=3)):
            e = noise()  # along the direction orthogonal to x
            points += [x, (-x[0] - e * x[1], -x[1] + e * x[0])]
        doc = {"points": [[fmt(c) for c in p] for p in draw(st.permutations(points))]}
        m = len(points) // 2
    elif kind == "symmetry":
        values = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3))
        points = [v for x in values for v in (x, -x + noise())]
        doc = {"points": [fmt(v) for v in draw(st.permutations(points))]}
        m = len(points) // 2
    else:
        support = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2, unique=True))
        atoms = []
        for x in support:
            w = F(draw(st.integers(1, 3)))
            atoms += [(x, w), (-x + noise(), w + noise())]
        atoms = draw(st.permutations(atoms))
        doc = {"support": [fmt(x) for x, _ in atoms], "weights": [fmt(w) for _, w in atoms]}
        m = len(atoms)
    doc["mode"] = "exact" if exact else "approximate"
    if not exact:
        doc["tolerance"] = repr(float(_TOL))
    return kind, doc, m + draw(st.integers(0, 1))


@given(_certify_runs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_certify_exit_zero_means_the_certificate_checks(tmp_path_factory, run_):
    kind, doc, m = run_
    path = tmp_path_factory.getbasetemp() / "certify.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", kind, str(path), "--m", str(m)])
    assert code in (0, 1, 2)
    if code != 0:
        return
    cert = json.loads(out.getvalue())
    pairs = tuple(map(tuple, cert["pairs"]))
    if kind == "antipodal":
        assert AntipodalCertificate(pairs).check(SphericalConfig.from_json(doc))
        return
    sym = SymmetryCertificate(pairs, tuple(cert["fixed"]))
    if kind == "symmetry":
        config = Configuration.from_json(doc)
        assert sym.check_multiset(config.points, config.near_tol)
    else:
        w = WeightedConfiguration.from_json(doc)
        assert sym.check_weighted(w.support, w.weights, w.near_tol)


# The commands that read no document, fuzzed over small pools of good and bad
# option literals.  Each pool maps a literal to its value (None when it does
# not parse), so the test can name the inputs that must exit 2.
_MARGINS = {"0": 0.0, "0.1": 0.1, "1/3": 1 / 3, "1.9": 1.9, "2": 2.0, "2.5": 2.5,
            "3": 3.0, "-0.1": -0.1, "nan": None, "inf": None, "1e400": None, "x": None}
_TRIALS = {"-1": -1, "0": 0, "1": 1, "2": 2, "3": 3, "x": None}
_SMALL_INTS = ["-2", "-1", "0", "1", "2", "3", "4", "5", "6", "x"]
_RATIONALS = ["3/16", "1/64", "1/1000", "0", "1", "-1/2", "1/0", "0.1", "nan", "x", ""]
_ROOTS = ["1", "2", "-1/2", "3/4", "0", "1/0", "0.5", "nan", "x", ""]


@st.composite
def _argv_runs(draw):
    command = draw(st.sampled_from(["search", "construct", "identities", "quadrature"]))
    must_fail = False

    def option(flag, pool):
        return [flag, draw(st.sampled_from(pool))] if draw(st.booleans()) else []

    if command == "search":
        trials = draw(st.sampled_from(sorted(_TRIALS)))
        argv = ["search", "six-point", "--trials", trials]
        argv += option("--seed", ["0", "7", "-3", "x"])
        if draw(st.booleans()):
            margin = draw(st.sampled_from(sorted(_MARGINS)))
            argv += ["--margin", margin]
            must_fail = _MARGINS[margin] is not None and _MARGINS[margin] > 2
        argv += option("--tol", ["1e-9", "0", "-1", "nan"])
        must_fail |= _TRIALS[trials] is not None and _TRIALS[trials] < 1
    elif command == "construct":
        kinds = ["perturbed", "binomial", "polygon-weighted", "spherical-polygon", "bogus"]
        argv = ["construct", draw(st.sampled_from(kinds))]
        argv += option("--m", _SMALL_INTS) + option("--n", _SMALL_INTS)
        argv += option("--epsilon", _RATIONALS) + option("--precision", _RATIONALS)
    elif command == "identities":
        argv = ["identities", draw(st.sampled_from(["newton", "binom-sum", "bogus"]))]
        argv += option("--n", _SMALL_INTS) + option("--k", _SMALL_INTS)
        if draw(st.booleans()):
            roots = draw(st.lists(st.sampled_from(_ROOTS), min_size=1, max_size=5))
            argv += ["--roots", ",".join(roots)]
    else:
        argv = ["quadrature", *option("--n", _SMALL_INTS), *option("--k", _SMALL_INTS)]
    return argv, must_fail


@given(_argv_runs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzz_documentless_commands_exit_codes(run_):
    argv, must_fail = run_
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)
    if must_fail:
        assert code == 2


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _fresh_process(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "tmdesign.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


class TestSequentialCalls:
    """Calls of ``main`` in one process behave as fresh processes would: no
    default, option or output path carries over to the next call."""

    def test_calls_in_sequence_match_fresh_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # one help layout in both
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
        out_file = tmp_path / "out.json"
        sequence = [
            ["--help"],
            ["verify", "sideways", str(doc), "--m", "1"],
            ["identities", "binom-sum", "--n", "3", "--out", str(out_file)],
            ["search", "six-point", "--trials", "1", "--margin", "0.5"],
            ["search", "six-point", "--trials", "1"],
            ["certify", "symmetry", str(doc), "--m", "1"],
        ]
        fresh = []
        for argv in sequence:
            fresh.append(_fresh_process(argv, env))
            if "--out" in argv:
                expected_file = out_file.read_text()
                out_file.unlink()
        in_process = [_in_process(argv) for argv in sequence]
        assert in_process == fresh
        assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 0]
        assert in_process[0][1].startswith("usage: tmdesign")
        assert in_process[2][1] == "" and in_process[-1][1] != ""
        assert out_file.read_text() == expected_file
