"""Every ``tmdesign ...`` line of the README's "Command line" block runs
through ``cli.main`` without a usage error, so an example that uses an option
its command does not read fails here."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from tmdesign.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# A small valid document for each kind that reads one.
POINTS = {"points": ["-1/2", "1/2"]}
WEIGHTED = {"support": ["1/2", "-1/2"], "weights": ["1", "1"]}
CROSS = {"dim": 2, "points": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}
DOCUMENTS = {
    "interval": POINTS,
    "symmetry": POINTS,
    "weighted": WEIGHTED,
    "weighted-symmetry": WEIGHTED,
    "spherical": CROSS,
    "antipodal": CROSS,
}


def _examples() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("tmdesign ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_has_examples():
    assert len(_examples()) >= 10


@pytest.mark.parametrize("argv", _examples(), ids=" ".join)
def test_readme_example_runs(argv, tmp_path):
    if argv[0] in ("verify", "certify"):  # argv[2] names the input document
        path = tmp_path / argv[2]
        path.write_text(json.dumps(DOCUMENTS[argv[1]]))
        argv = [*argv[:2], str(path), *argv[3:]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1), err.getvalue()
