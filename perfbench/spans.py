"""Spans around the public functions of each tmdesign layer.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces every public module-level function of each layer with a timing
wrapper, in its own module and wherever another tmdesign module has bound the
same function by name (``tmdesign.constructions.isolate_real_roots``, for
example), so nested calls become child spans; ``uninstall`` puts the
originals back.  The cli layer is entered through ``main`` only: its command
handlers, argparse and JSON load/emit count as ``cli.main`` self time.

A span is (name, start, end, parent, job).  Spans of one job stay in memory
until the job ends and are then folded into per-name totals.  The run is one
thread, so spans nest strictly and nothing waits on a queue: self time is a
span's duration minus the time its children cover, and the self times of a
job's spans add up to the duration of its root span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "scalars", "symfun", "polyroot", "interval_design", "constructions", "spherical")

#: Functions whose span name carries the arithmetic of their configuration.
_SPLIT = ("verify_spherical_Tm", "harmonic_index_residual")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.jobs = 0
        self.gegenbauer_evals = 0
        self.epsilon_attempts = 0
        self.search_angles: list = []  # (job, final angles) per search trial
        self._saved: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        short = fn.__name__
        tracer = self

        def span(*args, **kwargs):
            label = name
            if short in _SPLIT:
                label += ".exact" if args[0].is_exact else ".float"
                if short == "harmonic_index_residual":
                    tracer.gegenbauer_evals += len(args[0]) ** 2
            elif short == "antipodal_defect":
                tracer.search_angles.append((tracer.job, tuple(args[0])))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, tracer.job)

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tmdesign.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (layer != "cli" or attr == "main")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "tmdesign" and not modname.startswith("tmdesign."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- per-job folding ----------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.spans.clear()

    def end_job(self) -> int:
        """Fold this job's spans into the totals; returns the root duration.

        Raises if the spans do not nest inside one root, because then their
        self times would not partition the job's traced wall time.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        roots = 0
        for name, t0, t1, parent, _ in spans:
            if parent < 0:
                roots += t1 - t0
                continue
            _, p0, p1, _, _ = spans[parent]
            if not p0 <= t0 <= t1 <= p1:
                raise RuntimeError(f"span {name} escapes its parent")
            child_ns[parent] += t1 - t0
        in_choose = set()
        self_total = 0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            own = t1 - t0 - child_ns[i]
            self_total += own
            self.calls[name] += 1
            self.self_ns[name] += own
            self.busy_ns[name] += t1 - t0
            if name == "constructions.choose_epsilon" or parent in in_choose:
                in_choose.add(i)
                if name == "polyroot.sturm_root_count":
                    self.epsilon_attempts += 1
        if self_total != roots or sum(1 for s in spans if s[3] < 0) != 1:
            raise RuntimeError("span self times do not partition the job")
        self.root_ns += roots
        self.jobs += 1
        spans.clear()
        return roots
