"""The benchmark's seed-1 output digests, checked on every test run.

The CLI promises byte-identical output for a fixed invocation.  The
benchmark (``perfbench/``) pins that promise as sha256 digests over whole
job streams, recorded in ``perfbench/NOTES.md``; this test regenerates the
seed-1 stream of every workload, runs it through ``cli.main`` and hashes
it the way ``perfbench/run.py`` does.  The digests hold under CPython 3.11:
from 3.12 on ``sum()`` of floats is compensated, and the printed floats of
``construct``, ``certify``, ``sphere`` and ``search`` change (seed 1 of
``construct`` hashes to ``b20250dc...`` under CPython 3.12.1 and 3.13.0).
"""

import contextlib
import hashlib
import io
import re
import sys
import types
from pathlib import Path

import pytest

from tmdesign import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads() -> types.ModuleType:
    """``perfbench/workloads.py``, read and run without writing a cache."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _recorded_digests() -> dict[str, str]:
    text = (BENCH / "NOTES.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `(\w+)` \| `([0-9a-f]{64})` \|$", text, re.M))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["construct", "certify", "sphere", "search"])
def test_seed_one_digest(workload, tmp_path):
    expected = _recorded_digests()[workload]
    jobs, _ = _workloads().generate(workload, 1)
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        job.materialize(tmp_path / f"job-{i:03d}.json")
        code, out = _run(job.argv)
        digest.update(f"{i}\t{code}\n{out}".encode())
    assert digest.hexdigest() == expected
