"""Output digests of the benchmark's job streams, with the standard library only.

    python3 tests/digests.py --seeds 1 2 3

Run from any directory; the package is imported from the checkout's
``src/``.  For each workload and seed the script generates the job stream of
``perfbench/workloads.py``, runs each job once through ``cli.main`` and
prints one line, ``workload seed sha256``, hashed the way
``perfbench/run.py`` hashes its warm-up pass.  A seed-1 line also says
whether the digest equals the one recorded in ``perfbench/NOTES.md``; those
are the CPython 3.11 digests, so under 3.12 and later the float workloads
differ from them by design.  Two checkouts compare by the lines they print
under one interpreter.  ``tests/test_bench_digests.py`` runs the same
helpers under pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = ("construct", "certify", "sphere", "search")

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from tmdesign import cli  # noqa: E402


def load_workloads() -> types.ModuleType:
    """``perfbench/workloads.py``, read and run without writing a cache."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def recorded_digests() -> dict[str, str]:
    """The seed-1 digest of each workload, from ``perfbench/NOTES.md``."""
    text = (BENCH / "NOTES.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `(\w+)` \| `([0-9a-f]{64})` \|$", text, re.M))


def run_job(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one ``cli.main`` call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def stream_digest(workload: str, seed: int, workdir: Path):
    """The sha256 object over the stream's jobs in list order, each hashed as
    ``index \\t exit code \\n stdout``; the job documents go to workdir."""
    jobs, _ = load_workloads().generate(workload, seed)
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        job.materialize(workdir / f"job-{i:03d}.json")
        code, out = run_job(job.argv)
        digest.update(f"{i}\t{code}\n{out}".encode())
    return digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    recorded = recorded_digests()
    print(f"CPython {sys.version.split()[0]}")
    for workload in WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                hexdigest = stream_digest(workload, seed, Path(tmp)).hexdigest()
            note = ""
            if seed == 1:
                note = " recorded" if hexdigest == recorded[workload] else " differs from NOTES.md"
            print(f"{workload} {seed} {hexdigest}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
