"""Run one workload on seeds 1..10 and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload sphere

Each run is the benchmark command of BENCHMARK.json with its run_seconds and
--trace 0.  Spread is the distance between the first and third quartile of
the ten values (``statistics.quantiles(values, n=4)``) as a share of their
median; it is compared with a third of the metric's bound.  Runs are
sequential, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = range(1, 11)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        digest = next((ln.split("=", 1)[1] for ln in lines if ln.startswith("output digest")), "-")
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={digest[:16]} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        print(f"{name}: median {med:.5g} spread {spread:.4f} bound/3 {bound / 3:.4f} "
              f"{'ok' if spread < bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
