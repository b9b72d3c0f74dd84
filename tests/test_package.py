"""What a fresh process runs, the package's public names, and the benchmark's
view of both.

Importing ``tmdesign`` registers its submodules as lazy modules, which run
on first use.  A lazy module is an instance of a subclass of
``types.ModuleType`` until it runs, so ``type(module) is types.ModuleType``
tells a module that ran from one that did not, without running it.  The
start-up checks run in a fresh interpreter, because this one has run every
module already.
"""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import tmdesign

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"

SUBMODULES = (
    "errors", "scalars", "symfun", "polyroot", "interval_design", "constructions", "spherical"
)

#: Notes the modules loaded at start-up, before the code under test.
START = "import sys\nSTARTUP = set(sys.modules)\n"

#: Reports which tmdesign modules ran, and which modules loaded since
#: ``START`` are neither tmdesign's nor the standard library's.
RAN = """
import json, sys, types
print(json.dumps({
    "ran": sorted(name for name, module in sys.modules.items()
                  if name.split(".")[0] == "tmdesign" and type(module) is types.ModuleType),
    "foreign": sorted(name for name in set(sys.modules) - STARTUP
                      if name.split(".")[0] not in {"tmdesign", *sys.stdlib_module_names}),
}))
"""


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that writes no bytecode cache."""
    return subprocess.run(
        [sys.executable, "-B", "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def _ran(argv: list[str]) -> dict:
    code = """
        import contextlib, io, sys
        import tmdesign.cli
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                tmdesign.cli.main(sys.argv[1:])
            except SystemExit:
                pass
        """
    proc = _fresh(START + textwrap.dedent(code) + RAN, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartUp:
    def test_import_runs_no_submodule(self):
        proc = _fresh(START + "import tmdesign" + RAN)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"ran": ["tmdesign"], "foreign": []}

    def test_help_runs_the_cli_and_its_support(self):
        ran = _ran(["--help"])
        expected = ["tmdesign", "tmdesign.cli", "tmdesign.errors", "tmdesign.scalars"]
        assert ran == {"ran": expected, "foreign": []}

    def test_interval_certificate_runs_no_spherical_or_root_code(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
        ran = _ran(["certify", "symmetry", str(doc), "--m", "1"])
        assert ran["foreign"] == []
        assert {"tmdesign.interval_design", "tmdesign.symfun"} <= set(ran["ran"])
        for name in ("spherical", "polyroot", "constructions"):
            assert f"tmdesign.{name}" not in ran["ran"]

    def test_each_command_gives_the_bytes_of_a_full_import(self, tmp_path):
        # the same invocation after every module has run, and before
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"dim": 2, "points": [["1", "0"], ["-1", "0"]]}))
        argv = ["certify", "antipodal", str(doc), "--m", "1"]
        code = """
            import sys
            import tmdesign.cli
            {}
            sys.exit(tmdesign.cli.main(sys.argv[1:]))
            """
        lazy = _fresh(code.format(""), *argv)
        full = _fresh(code.format("from tmdesign import *"), *argv)
        assert (lazy.returncode, lazy.stdout, lazy.stderr) == (
            full.returncode,
            full.stdout,
            full.stderr,
        )
        assert lazy.returncode == 0 and '"pairs"' in lazy.stdout

    def test_commands_run_on_the_standard_library_alone(self, tmp_path):
        # python -S leaves site-packages off the path, so a command that
        # imported a third-party module would fail there
        interval = tmp_path / "interval.json"
        interval.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
        sphere = tmp_path / "sphere.json"
        sphere.write_text(json.dumps({"dim": 2, "points": [["1", "0"], ["-1", "0"]]}))
        commands = [
            ["construct", "polygon-weighted", "--n", "4"],
            ["construct", "spherical-polygon", "--m", "3"],
            ["construct", "perturbed", "--m", "2"],
            ["verify", "interval", str(interval), "--m", "1"],
            ["certify", "antipodal", str(sphere), "--m", "1"],
            ["identities", "newton", "--roots=1,2,-1/2"],
            ["search", "six-point", "--trials", "2", "--seed", "1"],
            ["quadrature", "--n", "5"],
        ]
        for argv in commands:
            normal, bare = (
                subprocess.run(
                    [sys.executable, *flags, "-B", "-m", "tmdesign.cli", *argv],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "PYTHONPATH": str(SRC)},
                    timeout=120,
                )
                for flags in ([], ["-S"])
            )
            assert normal.returncode == 0 and normal.stdout, (argv, normal.stderr)
            assert (bare.returncode, bare.stdout) == (0, normal.stdout), (argv, bare.stderr)


class TestPublicNames:
    def test_sixty_seven_names_from_seven_submodules(self):
        assert len(tmdesign.__all__) == len(set(tmdesign.__all__)) == 67
        assert tuple(tmdesign._EXPORTS) == SUBMODULES

    @pytest.mark.parametrize("submodule", SUBMODULES)
    def test_names_are_the_submodules_objects(self, submodule):
        module = sys.modules[f"tmdesign.{submodule}"]
        assert getattr(tmdesign, submodule) is module
        for name in tmdesign._EXPORTS[submodule]:
            assert getattr(tmdesign, name) is getattr(module, name)

    def test_star_import_gives_the_public_names(self):
        # in a fresh interpreter, so the names resolve through lazy modules
        proc = _fresh(
            """
            import json, sys
            import tmdesign
            namespace = {}
            exec("from tmdesign import *", namespace)
            names = sorted(set(namespace) - {"__builtins__"})
            same = all(
                getattr(tmdesign, name) is getattr(sys.modules["tmdesign." + module], name)
                for module, names_ in tmdesign._EXPORTS.items()
                for name in names_
            )
            print(json.dumps([names, same]))
            """
        )
        assert proc.returncode == 0, proc.stderr
        names, same = json.loads(proc.stdout)
        assert set(names) == set(tmdesign.__all__)
        assert same

    def test_dir_lists_the_public_names(self):
        assert set(tmdesign.__all__) <= set(dir(tmdesign))
        assert set(SUBMODULES) <= set(dir(tmdesign))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            tmdesign.no_such_name
        with pytest.raises(ImportError):
            exec("from tmdesign import no_such_name", {})


def test_benchmark_tracer_wraps_and_restores_lazy_modules(tmp_path):
    # perfbench/run.py imports tmdesign.cli and the modules of its oracle,
    # then its tracer reads every layer from sys.modules and wraps each
    # public function wherever a tmdesign module binds it.  The perfbench
    # files are run the way tests/test_bench_digests.py runs them, so no
    # cache is written next to them.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"points": ["1/2", "-1/2"]}))
    proc = _fresh(
        """
        import contextlib, inspect, io, sys, types
        from pathlib import Path

        bench = Path(sys.argv[1])

        def load(name):
            path = bench / f"{name}.py"
            module = types.ModuleType(name)
            sys.modules[name] = module
            exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
            return module

        import tmdesign.cli
        load("workloads")
        load("oracle")
        spans = load("spans")
        assert type(sys.modules["tmdesign.polyroot"]) is not types.ModuleType

        def wrapped():
            return {
                (name, attr)
                for name, module in sys.modules.items()
                if name.split(".")[0] == "tmdesign"
                for attr, value in vars(module).items()
                if inspect.isfunction(value) and hasattr(value, "__wrapped__")
            }

        tracer = spans.Tracer()
        tracer.install()
        assert {
            ("tmdesign.cli", "main"),
            ("tmdesign.interval_design", "certify_symmetry"),
            ("tmdesign.polyroot", "sturm_root_count"),
            ("tmdesign.constructions", "sturm_root_count"),
        } <= wrapped()
        tracer.start_job(0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = tmdesign.cli.main(["certify", "symmetry", sys.argv[2], "--m", "1"])
        tracer.end_job()
        tracer.uninstall()
        assert code == 0
        assert tracer.calls["cli.main"] == 1
        assert tracer.calls["interval_design.certify_symmetry"] == 1
        assert wrapped() == set()
        """,
        str(BENCH),
        str(doc),
    )
    assert proc.returncode == 0, proc.stderr
