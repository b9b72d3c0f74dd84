"""tmdesign CLI benchmark: seeded job streams through ``tmdesign.cli.main``.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --baseline

Run from the root of a checkout (the package is imported from ``src/``).
One process, one thread, one client, pinned to one CPU: a closed loop that
starts the next job only when the previous one has returned.  The workload's
documents are written before timing, one untimed pass warms up and feeds the
outcome oracle, and then whole passes over the same job list are timed until
at least ``--seconds`` have been planned and at least 100 jobs run.  Every
timed job must return the expected exit code and the byte-identical stdout
that passed the oracle.  Reported times are scaled to reference speed
(``ReferenceClock``, ``measure_setup``), because the speed of a shared
machine drifts by itself; the raw figures are printed beside them.

The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced loop, next to an
untraced one for the overhead) with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest timed jobs per run, so that >= 10 samples lie beyond p90.
MIN_JOBS = 100

#: Fresh ``tmdesign`` interpreters started per run to measure set-up time.
SETUP_REPEATS = 15

#: CPU time of a bare interpreter start (``python -c pass``) that defines
#: reference speed for ``setup_s``.
BARE_START_S = 0.05

#: Time of ``reference_loop`` that defines reference speed for job times.
#: On the 2-core machine this benchmark was written on, the loop's own time
#: moved between 0.2 and 0.4 ms on a scale of half a second, and unscaled
#: job times moved with it by up to 40% between runs.
REFERENCE_S = 300e-6

#: Reference loops whose median gives the machine's speed at one moment.
REFERENCE_WINDOW = 5

#: What a fresh ``tmdesign`` invocation pays before any work: interpreter
#: start, ``import tmdesign.cli`` and building the argparse parser.
SETUP_CODE = "import tmdesign.cli as c\ntry:\n    c.main(['--help'])\nexcept SystemExit:\n    pass\n"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def reference_loop() -> float:
    """Seconds taken by a fixed mix of Fraction, float and dict work (~0.3 ms).

    The garbage collector is off while it runs, so that its time depends on
    the machine alone and not on the heap that the code under test left.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        f = Fraction(1, 3)
        for i in range(1, 40):
            f = f * Fraction(i + 2, i + 1) - Fraction(1, i)
        x = 0.0
        for i in range(300):
            x += math.cos(i * 0.01)
        counts: dict[int, int] = {}
        for i in range(300):
            counts[i % 17] = counts.get(i % 17, 0) + i
        return time.perf_counter() - t0
    finally:
        gc.enable()


class ReferenceClock:
    """Scales each timing to reference speed.

    The machine's speed is the median of REFERENCE_WINDOW reference loops,
    taken before the first timing and after each one.  A timing is
    multiplied by REFERENCE_S over the mean of the speeds right before and
    right after it.  This takes out the speed changes of the machine itself,
    which move every timing alike, and keeps those of the code under test.
    The loops run in the benchmark process, between jobs, on the same CPU.
    """

    def __init__(self):
        self.loops = [self._speed()]

    @staticmethod
    def _speed() -> float:
        return statistics.median(reference_loop() for _ in range(REFERENCE_WINDOW))

    def scale(self, seconds: float) -> float:
        self.loops.append(self._speed())
        return seconds * REFERENCE_S * 2 / (self.loops[-2] + self.loops[-1])


def _child_cpu(code: str, env: dict) -> float:
    """User + system CPU seconds of one fresh interpreter running ``code``."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60,
    )
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) CPU seconds of a fresh ``tmdesign`` interpreter.

    Each ``tmdesign`` start is scaled by the bare interpreter starts
    (``python -c pass``) right before and after it, on the same CPU: its
    CPU time times BARE_START_S over their mean.  A reference loop in this
    process would not do, because the machine's speed changes within the
    time of one start, and differently for start-up work than for loops.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = [_child_cpu("pass", env)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_child_cpu(SETUP_CODE, env))
        bare.append(_child_cpu("pass", env))
        scaled.append(raw[-1] * BARE_START_S * 2 / (bare[-2] + bare[-1]))
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Timing:
    """Outcome of a timed loop: per-job raw and scaled seconds, pass flags."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    loops: list[float] = field(default_factory=list)
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def extend(self, other: "Timing") -> None:
        self.raw += other.raw
        self.scaled += other.scaled
        self.ok += other.ok
        self.loops += other.loops
        self.wall += other.wall


class Runner:
    """Runs jobs through ``tmdesign.cli.main`` and keeps the outcomes."""

    def __init__(self, cli):
        self.cli = cli  # the module: ``main`` is looked up per job, so tracing sees it

    def run(self, job) -> tuple[int | None, str, str | None, float]:
        """(exit code, stdout, escaped exception name, seconds) of one job.

        argparse usage errors leave main as SystemExit, which is the CLI's
        own exit path; any other exception counts as a failed job.
        """
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a failed job, keep looping
                code, error = None, type(exc).__name__
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), error, elapsed

    def loop(self, jobs, refs, passes, tracer=None) -> Timing:
        """Timed closed loop over ``passes`` passes of ``jobs``.

        A job passes when it returns the exit code and the exact stdout of
        its warm-up run, and that run passed the oracle (``refs[i]`` is the
        reference stdout, or None when the oracle refused it).
        """
        timing = Timing()
        clock = ReferenceClock()
        t0 = time.perf_counter()
        for _ in range(passes):
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.start_job(i)
                code, out, error, dt = self.run(job)
                if tracer is not None:
                    tracer.end_job()
                timing.raw.append(dt)
                timing.scaled.append(clock.scale(dt))
                timing.ok.append(
                    error is None and code == job.expect and refs[i] is not None and out == refs[i]
                )
        timing.wall = time.perf_counter() - t0
        timing.loops = clock.loops
        return timing


def _by_kind(jobs, latencies) -> None:
    kinds: dict[str, list[float]] = {}
    for i, dt in enumerate(latencies):
        kinds.setdefault(jobs[i % len(jobs)].kind, []).append(dt)
    print("raw median ms by kind: " + ", ".join(
        f"{k} {1e3 * statistics.median(v):.2f} ({len(v)} runs)" for k, v in sorted(kinds.items())))


def _rate_and_percentiles(latencies, ok) -> tuple[float, float, float]:
    """(passing jobs per second, p50, p90) of one list of job seconds.

    A failed job misses every latency limit: it ranks above all others and
    is reported as lasting the whole loop, so the JSON stays finite.
    """
    total = sum(latencies)
    ordered = sorted(v if good else total for v, good in zip(latencies, ok))
    return ok.count(True) / total, _percentile(ordered, 0.5), _percentile(ordered, 0.9)


def _end_to_end(t: Timing, setup: tuple[float, float], rss_kb: int) -> dict:
    n = len(t.ok)
    rate, p50, p90 = _rate_and_percentiles(t.scaled, t.ok)
    raw_rate, raw_p50, raw_p90 = _rate_and_percentiles(t.raw, t.ok)
    beyond = sum(1 for v in t.scaled if v > p90)
    print(f"timed jobs {n}, failed {t.failed} (failed_frac {t.failed / n:.6f}), "
          f"wall {t.wall:.3f} s, {beyond} samples beyond p90")
    print(f"reference loop {1e6 * statistics.median(t.loops):.1f} us median "
          f"({1e6 * min(t.loops):.1f}-{1e6 * max(t.loops):.1f}) vs {1e6 * REFERENCE_S:.0f} us")
    print(f"raw, unscaled: setup {setup[1]:.4f} s, {raw_rate:.4f} jobs/s, "
          f"p50 {1e3 * raw_p50:.3f} ms, p90 {1e3 * raw_p90:.3f} ms")
    return {
        "setup_s": (setup[0], "s"),
        "jobs_per_s": (rate, "1/s"),
        "job_p50_ms": (p50 * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["construct", "certify", "sphere", "search"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--baseline", action="store_true",
                    help="one-shot: re-time the ROADMAP baseline cases")
    args = ap.parse_args(argv)

    if not (SRC / "tmdesign" / "cli.py").is_file():
        print(f"error: no tmdesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.baseline:
        import baseline

        return baseline.run()
    if args.workload is None:
        ap.error("--workload is required")

    # One CPU for the whole run, set-up children included: the reference
    # timings then run where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import tmdesign.cli as cli
    import oracle
    from spans import Tracer
    from workloads import generate

    setup = measure_setup()
    jobs, probes = generate(args.workload, args.seed)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for i, job in enumerate(jobs + probes):
            job.materialize(workdir / f"job-{i:03d}.json")
        runner = Runner(cli)

        # Warm-up pass: outputs are checked by the oracle and become the
        # byte-exact references of the timed passes.
        refs, digest = [], hashlib.sha256()
        t0 = time.perf_counter()
        warm = [runner.run(job) for job in jobs]
        warm_s = time.perf_counter() - t0
        for i, (job, (code, out, error, _)) in enumerate(zip(jobs, warm)):
            digest.update(f"{i}\t{code}\n{out}".encode())
            why = oracle.check(job, code, out, error)
            if why is not None:
                print(f"FAIL job {i} {job.kind} {job.facts}: {why}")
            refs.append(out if why is None else None)
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
              f"warm-up pass {warm_s:.3f} s")
        print(f"output digest sha256={digest.hexdigest()}")

        passes = max(math.ceil(MIN_JOBS / len(jobs)), round(args.seconds / warm_s), 1)
        if args.trace == 0:
            timing = runner.loop(jobs, refs, passes)
            # Read before the probes run, so the peak covers set-up, the
            # warm-up pass and the timed passes over the same job list.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _by_kind(jobs, timing.raw)
            metrics = _end_to_end(timing, setup, rss_kb)
        else:
            # Untraced and traced passes alternate, so that both see the
            # same machine state and their ratio is the tracing overhead.
            half = max(1, math.ceil(passes / 2))
            tracer = Tracer()
            timing, traced_timing = Timing(), Timing()
            for _ in range(half):
                timing.extend(runner.loop(jobs, refs, 1))
                tracer.install()
                try:
                    traced_timing.extend(runner.loop(jobs, refs, 1, tracer))
                finally:
                    tracer.uninstall()
            untraced = timing.ok.count(True) / sum(timing.scaled)
            traced = traced_timing.ok.count(True) / sum(traced_timing.scaled)
            timing.extend(traced_timing)
            metrics = per_layer(jobs, refs, tracer, half)
            metrics["trace.jobs_per_s_untraced"] = (untraced, "1/s")
            metrics["trace.jobs_per_s_traced"] = (traced, "1/s")
            metrics["trace.overhead_pct"] = (100 * (untraced / traced - 1), "%")
            print(f"tracing overhead: {traced:.3f} jobs/s traced vs {untraced:.3f} untraced "
                  f"({metrics['trace.overhead_pct'][0]:+.1f}% time per job)")
            print(f"traced job wall time {tracer.root_ns / 1e9 / half:.4f} s per pass "
                  f"= 100% base of the self shares; root span covers "
                  f"{100 * tracer.root_ns / 1e9 / sum(traced_timing.raw):.2f}% of the timed latency")

        # Known defects run untimed, once per run, after the timed passes:
        # the timed stream holds only jobs that pass, but each probe's
        # outcome is shown here.
        still = 0
        for job in probes:
            code, out, error, _ = runner.run(job)
            why = oracle.check(job, code, out, error)
            still += why is not None
            print(f"known-defect probe {' '.join(job.argv[:2])} {job.facts}: "
                  f"{'now passes' if why is None else 'fails: ' + why}")
        if probes:
            share = still / (len(jobs) + len(probes))
            print(f"known-defect share: {still} of {len(jobs) + len(probes)} jobs per pass "
                  f"still fail ({share:.6f}) if the probes joined the stream")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": timing.failed == 0,
        "attempted": len(timing.ok),
        "failed": timing.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, span names summed, statistic); statistics are per pass.
_SPAN_METRICS = [
    ("cli.main.calls", ["cli.main"], "calls"),
    ("cli.main.self_s", ["cli.main"], "self"),
    ("scalars.parse_scalar.calls", ["scalars.parse_scalar"], "calls"),
    ("scalars.parse_scalar.busy_s", ["scalars.parse_scalar"], "busy"),
    ("scalars.format_scalar.busy_s", ["scalars.format_scalar"], "busy"),
    ("symfun.power_sums.calls", ["symfun.power_sums"], "calls"),
    ("symfun.power_sums.self_s", ["symfun.power_sums"], "self"),
    ("symfun.elementary_symmetric.self_s", ["symfun.elementary_symmetric"], "self"),
    ("symfun.extend_odd_power_sums.self_s", ["symfun.extend_odd_power_sums"], "self"),
    ("symfun.newton.self_s", ["symfun.newton_e_from_p", "symfun.newton_p_from_e"], "self"),
    ("interval_design.verify_interval_design.calls", ["interval_design.verify_interval_design"], "calls"),
    ("interval_design.verify_interval_design.self_s", ["interval_design.verify_interval_design"], "self"),
    ("interval_design.certify_symmetry.calls", ["interval_design.certify_symmetry"], "calls"),
    ("interval_design.certify_symmetry.self_s", ["interval_design.certify_symmetry"], "self"),
    ("interval_design.verify_weighted_design.self_s", ["interval_design.verify_weighted_design"], "self"),
    ("interval_design.certify_weighted_symmetry.self_s", ["interval_design.certify_weighted_symmetry"], "self"),
    ("polyroot.sturm_root_count.calls", ["polyroot.sturm_root_count"], "calls"),
    ("polyroot.sturm_root_count.self_s", ["polyroot.sturm_root_count"], "self"),
    ("polyroot.isolate_real_roots.self_s", ["polyroot.isolate_real_roots"], "self"),
    ("polyroot.refine_root.calls", ["polyroot.refine_root"], "calls"),
    ("polyroot.refine_root.self_s", ["polyroot.refine_root"], "self"),
    ("polyroot.evaluate.self_s", ["polyroot.evaluate"], "self"),
    ("polyroot.power_sums_from_coeffs.self_s", ["polyroot.power_sums_from_coeffs"], "self"),
    ("constructions.perturbed_interval_design.self_s", ["constructions.perturbed_interval_design"], "self"),
    ("constructions.choose_epsilon.self_s", ["constructions.choose_epsilon"], "self"),
    ("constructions.binomial_weighted_design.self_s", ["constructions.binomial_weighted_design"], "self"),
    ("spherical.verify_spherical_Tm.exact.self_s", ["spherical.verify_spherical_Tm.exact"], "self"),
    ("spherical.verify_spherical_Tm.float.self_s", ["spherical.verify_spherical_Tm.float"], "self"),
    ("spherical.harmonic_index_residual.exact.self_s", ["spherical.harmonic_index_residual.exact"], "self"),
    ("spherical.harmonic_index_residual.float.self_s", ["spherical.harmonic_index_residual.float"], "self"),
    ("spherical.harmonic_index_residual.calls",
     ["spherical.harmonic_index_residual.exact", "spherical.harmonic_index_residual.float"], "calls"),
    ("spherical.certify_antipodal.self_s", ["spherical.certify_antipodal"], "self"),
    ("spherical.project_to_line.calls", ["spherical.project_to_line"], "calls"),
    ("spherical.six_point_search.self_s", ["spherical.six_point_search"], "self"),
    ("spherical.antipodal_defect.self_s", ["spherical.antipodal_defect"], "self"),
]


def _t2_residual(angles) -> float:
    """max over t in {1, 3} of |sum e^(i t theta)|^2 / n^2, recomputed here."""
    n2 = float(len(angles)) ** 2
    worst = 0.0
    for t in (1, 3):
        c = sum(math.cos(t * a) for a in angles)
        s = sum(math.sin(t * a) for a in angles)
        worst = max(worst, (c * c + s * s) / n2)
    return worst


def _bits_max(rationals: list[str]) -> int:
    """Largest numerator + denominator bit length among "p/q" strings."""
    best = 0
    for text in rationals:
        num, _, den = text.partition("/")
        best = max(best, abs(int(num)).bit_length() + int(den or 1).bit_length())
    return best


def per_layer(jobs, refs, tracer, passes) -> dict:
    import tmdesign.spherical as spherical
    from spans import LAYERS

    stats = {"calls": tracer.calls, "self": tracer.self_ns, "busy": tracer.busy_ns}
    out = {}
    for metric, names, stat in _SPAN_METRICS:
        total = sum(stats[stat].get(n, 0) for n in names)
        if stat == "calls":
            out[metric] = (total / passes, "count")
        else:
            out[metric] = (total / 1e9 / passes, "s")

    searches = [j for j in jobs if j.kind == "six-point"]
    trials = sum(j.facts["trials"] for j in searches)
    busy = tracer.busy_ns.get("spherical.six_point_search", 0) / passes
    out["spherical.six_point_search.trial_ms"] = (busy / 1e6 / trials if trials else 0.0, "ms")
    out["spherical.six_point_search.trials"] = (trials, "count")
    out["spherical.six_point_search.iterations"] = (trials * getattr(spherical, "_SEARCH_ITERS", 0), "count")
    margin0 = [a for job_idx, a in tracer.search_angles if jobs[job_idx].facts["margin"] == 0]
    hits = sum(1 for a in margin0 if _t2_residual(a) < float(spherical.DEFAULT_SPHERE_TOL))
    out["spherical.six_point_search.hit_frac"] = (hits / len(margin0) if margin0 else 0.0, "frac")

    coeffs = [
        c
        for job, ref in zip(jobs, refs)
        if job.kind == "perturbed" and ref is not None
        for c in json.loads(ref)["g"]["coeffs"]
    ]
    out["polyroot.coeff_bits_max"] = (_bits_max(coeffs), "bits")
    constructions = tracer.calls.get("constructions.choose_epsilon", 0)
    out["constructions.epsilon_attempts"] = (
        tracer.epsilon_attempts / constructions if constructions else 0.0, "count")
    out["spherical.gegenbauer_evals"] = (tracer.gegenbauer_evals / passes, "count")
    coords = [
        c
        for job in jobs
        if job.kind == "certify-antipodal"
        for p in job.doc["points"]
        for c in p
    ]
    out["spherical.input_bits_max"] = (_bits_max(coords), "bits")

    base = tracer.root_ns
    for layer in LAYERS:
        own = sum(v for k, v in tracer.self_ns.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = (100 * own / base, "%")
    out["trace.job_wall_s"] = (base / 1e9 / passes, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
