"""The benchmark's workloads: the jobs each one runs and the inputs they need.

``build(workload, seed, workdir)`` is the set-up: it draws the seeded inputs,
writes every input file under ``workdir`` and returns the job list that each
pass runs, in order, as a closed loop with one client.  Jobs are in-process
calls into relconv: ``relconv.cli.main(argv)`` for the subcommands, and
``check_endpoint_reduction`` for the endpoint-reduction property, which has
no subcommand.  Both are looked up on their module at call time, so the
traced run sees them through its wrappers.

Why each workload exists:

* ``catalog`` -- one ``verify-catalog`` job per built-in fixture of order
  at most 16 and per order-20 stand-in for the two order-24 fixtures, in
  seeded order.  The isoperimetry subset search does most of the work (the
  stand-ins enumerate 524,287 subsets each), so ``wall_s`` tracks the subset
  kernel; the 46 small fixtures take a few ms each, so ``job_p50_ms`` tracks
  the per-job overhead of cli, catalog and cayley.  The order-24 fixtures
  (8,388,607 subsets, ~13 s each) would leave room for one pass a run.
* ``scan`` -- ``check-class`` jobs plus endpoint-reduction batches.  The
  convexity triple scans do nearly all the work, split between the exact
  Fraction path, the float path and the materialization of violations
  (objects and JSON), each with jobs of its own.  isoperimetry does nothing.
* ``sup`` -- ``estimate-sup`` jobs.  The Gauss-Seidel sweeps build the same
  (a, c) matrices as the float scan but minimize and write ``g[b]`` in
  place, sweep after sweep, so a change to the shared triple kernel that
  helps the read-only scans but costs the sweep shows here and not in scan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from relconv import catalog, cayley, cli, convexity, extremal, grid

WORKLOADS = ("catalog", "scan", "sup")

# A run repeats passes over the job list until --seconds are up, and each
# job's latency is its median over the passes.  A pass takes ~1.2 s on
# catalog, ~3 s on scan and ~3.5 s on sup on the reference host (run.py), so
# a 20 s run makes 4-16 passes; the job lists are sized for that.

# Catalog: the built-in fixtures up to this order, and stand-ins of order 20
# for the two of order 24.  Their outputs are compared with references
# recorded at the seed commit, like the built-ins'.
CATALOG_MAX_ORDER = 16
CATALOG_EXTRA = (
    {"name": "Z20-step", "group": "Z20", "s": "(1)"},
    {"name": "Z2xZ10-basis", "group": "Z2xZ10", "s": "basis"},
)

# The fixed check-class jobs of scan: (job name, --fn, --class, --n).  Their
# reports are compared with references recorded at the seed commit.
SCAN_FIXED = (
    ("F-F0-256", "builtin:F", "F0", 256),  # float scan, no violations
    ("F-F0-384", "builtin:F", "F0", 384),  # float scan at 3.4x the triples
    ("F-strong-256", "builtin:F", "strong", 256),  # sharpened scan, E(lam) per triple
    ("F-Fm2-256", "builtin:F", "Fm:2", 256),  # exhaustive pair scan, cheap
    ("F-Fm5-240", "builtin:F", "Fm:5", 240),  # 100k sampled 5-tuples
    ("tent-F0-64", "builtin:tent:1/4,4/5", "F0", 64),  # exact Fraction scan, 145 violations
)
# Seeded exact tents: (N, above the parabola?).  The Fraction scan costs
# ~N^3 whatever the tent; the side is fixed per N, and tents above the
# parabola stay 4-8% above it, so the violations they build, and with them
# the pass time, vary little with the seed.
EXACT_TENTS = ((40, True), (48, False))
FLOAT_TENT_N = 160  # ~2.4e4 violations, a ~3.9 MB report: the materialization job
# Concave samples under the parabola: many small float-scan jobs, among
# which scan's job_p50_ms and job_tail_ms fall.
CONCAVE_N = 128
CONCAVE_JOBS = 24
# The endpoint-reduction job checks 3 samples under each cap (none, the
# parabola, the majorant) at each scale, the tier-1 mix of members and
# functions far outside the class: 36 calls.
ENDPOINT_N = 48
ENDPOINT_JOBS = 1
ENDPOINT_SAMPLES = 3
ENDPOINT_SCALES = (0.5, 1.0, 2.0, 4.0)
# Sup jobs: 24 bands of 4 grid sizes cover N in [160, 256); the seed draws N
# within each band, and p cycles over 1.5, 2, 1.  Neighbouring jobs differ
# little in cost, so the percentiles do not jump with the seed.
SUP_PS = (1.5, 2.0, 1.0)
SUP_BASES = tuple(range(160, 256, 4))


@dataclass
class Job:
    """One unit of work of a pass, with what its output checker needs."""

    name: str  # unique within the workload
    kind: str  # selects the checks in checks.py
    argv: list[str] | None = None  # arguments of relconv.cli.main
    inputs: list = field(default_factory=list)  # GridFunctions of a library job
    out: Path | None = None  # the file the job writes
    meta: dict = field(default_factory=dict)

    def run(self):
        """Run the job once: the CLI exit code, or the library results."""
        if self.argv is not None:
            return cli.main(self.argv)
        return [convexity.check_endpoint_reduction(f) for f in self.inputs]


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Draw the inputs of a workload from its seed and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"catalog": _catalog, "scan": _scan, "sup": _sup}[workload](rng, workdir)


def _catalog(rng: random.Random, workdir: Path) -> list[Job]:
    raw = json.loads(catalog.default_catalog_path().read_text())["entries"]
    entries = catalog.load_catalog()
    jobs = []
    for i, (item, entry) in enumerate(zip(raw, entries, strict=True)):
        order = entry.group.order if entry.is_cayley else entry.digraph.n
        if order > CATALOG_MAX_ORDER:
            continue
        jobs.append(_catalog_job(i, item, order, workdir))
    for i, item in enumerate(CATALOG_EXTRA, start=len(raw)):
        jobs.append(_catalog_job(i, item, cayley.AbelianGroup.parse(item["group"]).order, workdir))
    rng.shuffle(jobs)  # results must not depend on the order
    return jobs


def _catalog_job(i: int, item: dict, order: int, workdir: Path) -> Job:
    src = workdir / f"fixture-{i:02d}.json"
    src.write_text(json.dumps({"entries": [item]}))
    out = workdir / f"fixture-{i:02d}.csv"
    return Job(
        item["name"], "catalog",
        ["verify-catalog", "--catalog", str(src), "--out", str(out)],
        out=out, meta={"entry": item, "order": order},
    )


def _check_class(name: str, kind: str, fn: str, klass: str, workdir: Path, n: int | None = None, **meta) -> Job:
    out = workdir / f"{name}.json"
    argv = ["check-class", "--fn", fn, "--class", klass, "--report", str(out)]
    if n is not None:
        argv += ["--n", str(n)]
    return Job(name, kind, argv, out=out, meta=meta)


def _scan(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = [_check_class(name, "reference", fn, klass, workdir, n) for name, fn, klass, n in SCAN_FIXED]

    for n, above in EXACT_TENTS:
        x0 = Fraction(rng.randint(1, 7), 8)
        top = extremal.parabola(x0)
        h = top * Fraction(rng.randint(104, 108), 100) if above else top * Fraction(rng.randint(10, 19), 20)
        jobs.append(_tent_job(f"tent-exact-{n}", convexity.make_tent(x0, h, n), x0, above, workdir))

    x0 = Fraction(rng.choice((15, 16, 17)), 32)
    h = float(extremal.parabola(x0)) + rng.uniform(0.12, 0.13)
    jobs.append(_tent_job("tent-float", convexity.make_tent(x0, h, FLOAT_TENT_N), x0, True, workdir))

    parabola = extremal.parabola_grid(CONCAVE_N)
    for i in range(CONCAVE_JOBS):
        f = convexity.sample_concave(CONCAVE_N, rng.randrange(2**32), cap=parabola)
        path = workdir / f"concave-{i}.csv"
        grid.write_csv(f, path)
        jobs.append(_check_class(f"concave-{i}", "concave", str(path), "F0", workdir, input=path))

    caps = (None, extremal.parabola_grid(ENDPOINT_N), extremal.majorant_grid(ENDPOINT_N))
    for i in range(ENDPOINT_JOBS):
        inputs = []
        for cap in caps * ENDPOINT_SAMPLES:
            f = convexity.sample_concave(ENDPOINT_N, rng.randrange(2**32), cap=cap).floats()
            inputs += [grid.GridFunction(ENDPOINT_N, s * f, label=f"{s}*concave") for s in ENDPOINT_SCALES]
        jobs.append(Job(f"endpoint-{i}", "endpoint", inputs=inputs))
    return jobs


def _tent_job(name: str, f: grid.GridFunction, x0: Fraction, above: bool, workdir: Path) -> Job:
    path = workdir / f"{name}.csv"
    grid.write_csv(f, path)
    return _check_class(name, "tent", str(path), "F0", workdir,
                        input=path, N=f.N, apex=int(x0 * f.N), above=above, exact=f.is_exact)


def _sup(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for i, base in enumerate(SUP_BASES):
        p = SUP_PS[i % len(SUP_PS)]
        n = base + rng.randrange(8)
        out = workdir / f"sup-{base}.csv"
        jobs.append(Job(
            f"sup-{base}", "sup",
            ["estimate-sup", "--p", repr(p), "--n", str(n), "--csv", str(out)],
            out=out, meta={"p": p, "N": n},
        ))
    return jobs
