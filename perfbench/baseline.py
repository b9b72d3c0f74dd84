"""One-shot re-timing of the ROADMAP baseline table (not a workload).

    python3 perfbench/run.py --baseline

Times each case BASELINE_REPEATS times in this process (the interpreter
start-up cases in fresh interpreters) and prints a markdown table with the
median and the quartiles.  Inputs are seeded; every call's result is checked
so that a broken case cannot pass for a fast one.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tmdesign.cli import main as cli_main
from tmdesign.constructions import perturbed_interval_design
from tmdesign.spherical import SphericalConfig, certify_antipodal, verify_spherical_Tm

from workloads import unit_exact, unit_float

SRC = Path(__file__).resolve().parent.parent / "src"

#: Timed calls per case, after one untimed warm-up call.
BASELINE_REPEATS = 5


def _antipodal(d: int, n: int, exact: bool, seed: int = 0) -> SphericalConfig:
    rng = random.Random(f"baseline:{d}:{n}:{exact}:{seed}")
    half, seen = [], set()
    while len(half) < n // 2:
        p = tuple(unit_exact(rng, d)) if exact else tuple(unit_float(rng, d))
        if p in seen:
            continue
        seen.update((p, tuple(-c for c in p)))
        half.append(p)
    pts = half + [tuple(-c for c in p) for p in half]
    return SphericalConfig(tuple(pts), mode="exact" if exact else "approximate")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"baseline case gave a wrong result: {what}")


def _verify(X, m):
    def call():
        _require(verify_spherical_Tm(X, m).verdict, "verdict false")
    return call


def _certify(X, m):
    def call():
        _require(len(certify_antipodal(X, m).pairs) == len(X) // 2, "pairing incomplete")
    return call


def _perturbed(m):
    def call():
        _require(all(r == 0 for r in perturbed_interval_design(m).certificate), "nonzero certificate")
    return call


def _cli(*argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            _require(cli_main(list(argv)) == 0, f"exit code of {argv}")
    return call


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def call():
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return call


def run() -> int:
    cases = [
        ("`verify_spherical_Tm`, float, d=3, n=200, m=3", lambda: _verify(_antipodal(3, 200, False), 3)),
        ("same, exact", lambda: _verify(_antipodal(3, 200, True), 3)),
        ("same, exact, d=10, n=20, m=3", lambda: _verify(_antipodal(10, 20, True), 3)),
        ("`certify_antipodal`, exact, d=4, n=20, m=10", lambda: _certify(_antipodal(4, 20, True), 10)),
        ("`certify_antipodal`, float, d=4, n=20, m=10", lambda: _certify(_antipodal(4, 20, False), 10)),
        ("`perturbed_interval_design`, m=10", lambda: _perturbed(10)),
        ("`perturbed_interval_design`, m=15", lambda: _perturbed(15)),
        ("`perturbed_interval_design`, m=20", lambda: _perturbed(20)),
        ("`search six-point` (CLI default)", lambda: _cli("search", "six-point")),
        ("`construct perturbed --m 10`", lambda: _cli("construct", "perturbed", "--m", "10")),
        ("fresh interpreter, `pass`", lambda: _fresh("pass")),
        ("fresh interpreter, `import mpmath`", lambda: _fresh("import mpmath")),
        ("fresh interpreter, `import tmdesign`", lambda: _fresh("import tmdesign")),
    ]
    print("| Case | median s | q1 s | q3 s | repeats |")
    print("| --- | --- | --- | --- | --- |")
    for name, prepare in cases:
        call = prepare()  # inputs are built outside the timer
        call()  # warm-up
        times = []
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4)
        print(f"| {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | {BASELINE_REPEATS} |", flush=True)
    return 0
