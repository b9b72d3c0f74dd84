"""Seeded job streams for the four benchmark workloads.

A job is one invocation of ``tmdesign.cli.main(argv)`` together with the
outcome fixed when its input was generated: the exit code it must return and
the facts the oracle checks its output against.  Every generator draws from
``random.Random(f"{workload}:{seed}")`` only, so one seed always gives the
same jobs, documents and argv.

Sizes sit on fixed grids, so that every seed gets the same mix of cheap and
expensive jobs; the seed moves the values (points, weights, roots, search
seeds), not the sizes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: Token in a job's argv that is replaced by the path of its input document.
FILE = "{file}"

#: Tolerance passed with --tol to every approximate job.
TOL = "1e-9"


@dataclass
class Job:
    """One CLI job and the outcome expected of it."""

    kind: str
    argv: list[str]
    expect: int
    facts: dict = field(default_factory=dict)
    doc: object = None  # JSON document written before timing
    raw: str | None = None  # literal file text, for malformed documents

    def materialize(self, path: Path) -> None:
        """Write the input document (if any) and bind its path into argv."""
        if self.doc is None and self.raw is None:
            return
        text = self.raw if self.raw is not None else json.dumps(self.doc) + "\n"
        path.write_text(text, encoding="utf-8")
        self.argv = [str(path) if a == FILE else a for a in self.argv]


def _sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` evenly spaced integers from lo to hi."""
    return [round(lo + i * (hi - lo) / (count - 1)) for i in range(count)]


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def construct(rng: random.Random) -> list[Job]:
    jobs = [
        Job("perturbed", ["construct", "perturbed", "--m", str(m)], 0, {"m": m})
        for m in range(2, 13)
    ]
    for n in _sizes(8, 40, 11):
        jobs.append(Job("binomial", ["construct", "binomial", "--n", str(n)], 0, {"n": n}))
    for k in range(4, 15):
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(k)]
        arg = "--roots=" + ",".join(str(r) for r in roots)
        jobs.append(Job("newton", ["identities", "newton", arg], 0, {"roots": roots}))
    for n in _sizes(2, 40, 11):
        jobs.append(Job("quadrature", ["quadrature", "--n", str(n)], 0, {"n": n}))
    rng.shuffle(jobs)
    return jobs


def construct_defects() -> list[Job]:
    """Known defect: the epsilon search gives up at m >= 24 (exit 1, not 0)."""
    return [Job("perturbed", ["construct", "perturbed", "--m", "24"], 0, {"m": 24})]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _positives(rng: random.Random, count: int, exact: bool, distinct: bool) -> list:
    out: list = []
    seen = set()
    while len(out) < count:
        if exact:
            q = rng.randint(2, 64)
            v = Fraction(rng.randint(1, q), q)
        else:
            v = rng.uniform(0.05, 1.0)
        if distinct and v in seen:
            continue
        seen.add(v)
        out.append(v)
    return out


def _text(v, exact: bool) -> str:
    return str(v) if exact else repr(v)


def _multiset(rng: random.Random, n: int, exact: bool, symmetric: bool) -> list:
    """n points in [-1, 1]; symmetric ones are X = -X, the others are a
    symmetric set with one positive point halved, which leaves its negation
    unpaired and makes p_1 nonzero."""
    pos = _positives(rng, n // 2, exact, distinct=False)
    pts = pos + [-v for v in pos] + ([Fraction(0) if exact else 0.0] if n % 2 else [])
    if not symmetric:
        pts[0] = pts[0] / 2
    rng.shuffle(pts)
    return pts


def _weighted(rng: random.Random, n: int, exact: bool, symmetric: bool):
    """n distinct support points with weights, even in the symmetric case;
    otherwise the weight at one negative support point is raised by half."""
    pos = _positives(rng, n // 2, exact, distinct=True)
    if exact:
        ws = [Fraction(rng.randint(1, 50), rng.randint(1, 9)) for _ in pos]
    else:
        ws = [rng.uniform(0.5, 5.0) for _ in pos]
    support = pos + [-v for v in pos]
    weights = ws + ws
    if n % 2:
        support.append(Fraction(0) if exact else 0.0)
        weights.append(ws[0])
    if not symmetric:
        weights[len(pos)] = weights[len(pos)] * 3 / 2
    order = list(range(n))
    rng.shuffle(order)
    return [support[i] for i in order], [weights[i] for i in order]


_CERTIFY_KINDS = (
    ("certify", "symmetry"),
    ("verify", "interval"),
    ("certify", "weighted-symmetry"),
    ("verify", "weighted"),
)


def certify(rng: random.Random) -> list[Job]:
    jobs = []
    for command, kind in _CERTIFY_KINDS:
        weighted = "weighted" in kind
        for exact in (True, False):
            for symmetric in (True, False):
                for n in _sizes(2, 40, 10):
                    if weighted:
                        support, weights = _weighted(rng, n, exact, symmetric)
                        doc = {
                            "support": [_text(x, exact) for x in support],
                            "weights": [_text(w, exact) for w in weights],
                        }
                        m = n - n % 2  # every nonzero support point counts
                    else:
                        points = _multiset(rng, n, exact, symmetric)
                        doc = {"points": [_text(x, exact) for x in points]}
                        m = (n + 1) // 2
                    argv = [command, kind, FILE, "--m", str(m)]
                    if not exact:
                        argv += ["--mode", "approximate", "--tol", TOL]
                    jobs.append(
                        Job(
                            f"{command}-{kind}",
                            argv,
                            0 if symmetric else 1,
                            {"exact": exact, "symmetric": symmetric, "n": n, "m": m},
                            doc=doc,
                        )
                    )
    jobs += _malformed() * 2  # about 1 job in 20
    rng.shuffle(jobs)
    return jobs


def _malformed() -> list[Job]:
    """Malformed documents the CLI already rejects with exit 2."""
    return [
        Job("malformed", ["verify", "interval", FILE, "--m", "2"], 2,
            {"case": "truncated JSON"}, raw='{"points": ["1/2", '),
        Job("malformed", ["certify", "symmetry", FILE, "--m", "1"], 2,
            {"case": "decimal in exact mode"},
            doc={"points": ["1/2", "-0.5"], "mode": "exact"}),
        Job("malformed", ["verify", "weighted", FILE, "--m", "1"], 2,
            {"case": "support outside [-1, 1]"},
            doc={"support": ["3/2", "-3/2"], "weights": ["1", "1"]}),
        Job("malformed", ["certify", "symmetry", FILE, "--m", "1", "--mode", "approximate"], 2,
            {"case": "approximate mode without --tol"},
            doc={"points": ["0.25", "-0.25"]}),
    ]


def certify_defects() -> list[Job]:
    """Malformed documents that the CLI does not yet reject with exit 2."""
    approx = ["--mode", "approximate", "--tol", TOL]
    return [
        Job("malformed", ["certify", "symmetry", FILE, "--m", "1"], 2,
            {"case": "missing points (KeyError)"}, doc={"pts": ["1/2", "-1/2"]}),
        Job("malformed", ["verify", "interval", FILE, "--m", "1"], 2,
            {"case": "top-level list (AttributeError)"}, doc=["1/2", "-1/2"]),
        Job("malformed", ["certify", "symmetry", FILE, "--m", "1"] + approx, 2,
            {"case": "string tolerance (TypeError)"},
            doc={"points": ["0.25", "-0.25"], "tolerance": "1e-9"}),
        Job("malformed", ["verify", "interval", FILE, "--m", "2"] + approx, 2,
            {"case": "nan point (accepted, exit 1)"},
            doc={"points": ["nan", "0.5", "-0.5"]}),
    ]


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def unit_float(rng: random.Random, d: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def unit_exact(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    """Inverse stereographic projection of a seeded rational point of Q^(d-1)."""
    u = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d - 1)]
    s = sum(c * c for c in u)
    return tuple(2 * c / (s + 1) for c in u) + ((s - 1) / (s + 1),)


def sphere(rng: random.Random) -> list[Job]:
    jobs = []
    for d in (3, 5, 8):
        for n in (20, 26, 34, 40):
            half = [unit_float(rng, d) for _ in range(n // 2)]
            anti = half + [[-c for c in p] for p in half]
            rng.shuffle(anti)
            loose = [unit_float(rng, d) for _ in range(n)]
            for points, antipodal in ((anti, True), (loose, False)):
                jobs.append(
                    Job(
                        "verify-spherical",
                        ["verify", "spherical", FILE, "--m", "3", "--tol", TOL],
                        0 if antipodal else 1,
                        {"exact": False, "antipodal": antipodal, "d": d, "n": len(points)},
                        doc={"points": [[repr(c) for c in p] for p in points]},
                    )
                )
    for d in (3, 4, 6):
        for n in (10, 12):
            half: list = []
            seen = set()
            while len(half) < n // 2:
                p = unit_exact(rng, d)
                q = tuple(-c for c in p)
                if p in seen or q in seen:
                    continue
                seen.update((p, q))
                half.append(p)
            points = half + [tuple(-c for c in p) for p in half]
            rng.shuffle(points)
            jobs.append(
                Job(
                    "certify-antipodal",
                    ["certify", "antipodal", FILE, "--m", str(n // 2)],
                    0,
                    {"exact": True, "antipodal": True, "d": d, "n": n},
                    doc={"points": [[str(c) for c in p] for p in points]},
                )
            )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search(rng: random.Random) -> list[Job]:
    jobs = []
    for margin, trials in (("0.1", 8), ("0", 20)):
        for _ in range(10):
            s = rng.randrange(10**6)
            argv = ["search", "six-point", "--trials", str(trials), "--seed", str(s),
                    "--margin", margin]
            jobs.append(Job("six-point", argv, 0,
                            {"margin": float(margin), "trials": trials, "seed": s}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "construct": (construct, construct_defects),
    "certify": (certify, certify_defects),
    "sphere": (sphere, list),
    "search": (search, list),
}


def generate(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(timed jobs, known-defect probes) for one workload and seed."""
    make, defects = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}")), defects()
