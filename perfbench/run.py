"""relconv benchmark: one workload, one process, a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,scan,sup} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; nothing is installed.
The seed draws the workload's inputs (workloads.py).  A run makes passes over
the job list until --seconds have gone by (at least one; a pass that has
started runs to its end).  Every job's output is checked after its pass,
outside the timed region (checks.py), and a self-test shows each check
rejecting corrupted outputs.

Times are host-normalized.  The host is shared: on a 2-core VM the speed of
the same loop wandered by 2x within a minute and by 4x within an hour, far
beyond any bound a change could be held to.  So between jobs, at most every
PROBE_EVERY_S, the run times a fixed pure-Python probe (integer and Fraction
arithmetic, no relconv code), and each job's latency is scaled by
PROBE_REF_S over the mean of the probes just before and after it: the time
the job would take on a host on which the probe takes PROBE_REF_S.  Set-up
is mostly process start and imports, which track the probe poorly, so each
set-up sample is scaled the same way by the start of a fresh interpreter
that imports numpy (START_REF_S on the reference host), timed just before
and after it.  The references do not change with the program, so a slower
program reads slower by the same factor; a slower host reads the same.  The
raw (unscaled) figures and the probe times are in the run line.

With --trace 0 the last line of stdout reports the end-to-end metrics:

    setup_s      s   median over 7 fresh processes of the time from process
                     start until the first job is ready (import relconv,
                     parse the catalog, build inputs and input files)
    wall_s       s   time of one pass: the sum over the jobs of each job's
                     median latency over the passes
    job_p50_ms   ms  median over the jobs of each job's median latency
    job_tail_ms  ms  the same latencies at the highest percentile that has at
                     least ten jobs beyond it (percentile in the run line)
    peak_rss_mb  MB  peak resident memory of this process after the first pass

With --trace 1 it runs untraced passes for half of --seconds, then installs
the tracer (tracing.py), builds the inputs again under it and runs traced
passes for the other half; the last line reports the per-layer metrics
(medians over the traced passes, in raw times: they have no bound), and the
spans are written to .perfbench_out/traces/.  Either way the line before the
last one records how the run was made, the failure fraction and the bases of
ratios.  All BLAS/OpenMP thread pools are pinned to 1, and relconv's
--threads stays at its default of 1.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# Times of the probe and of the reference start on the reference host, round
# figures near what they take on a 2-core Xeon VM at a quiet hour.  Changing
# them rescales every reported time.
PROBE_REF_S = 0.003
START_REF_S = 0.15
PROBE_EVERY_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    start: float
    wall: float
    latencies: list[float]  # seconds, raw
    results: list
    scaled: list[float]  # seconds, host-normalized (raw when not probed)
    probes: list[float]
    report_bytes: int = 0
    failed: int = 0


def _parse(argv):
    ap = argparse.ArgumentParser(description="relconv benchmark (one workload per process)")
    ap.add_argument("--workload", required=True, choices=("catalog", "scan", "sup"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program() -> None:
    """Import relconv from this checkout's src/, never from elsewhere."""
    if not (SRC / "relconv" / "__init__.py").is_file():
        raise ImportError(f"no relconv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import relconv

    if Path(relconv.__file__).resolve().parent != SRC / "relconv":
        raise ImportError(f"relconv was imported from {relconv.__file__}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, workdir)
            print(time.monotonic(), flush=True)
            return 0
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when empty: traces stay


def _measure(args, workdir: Path) -> int:
    import checks
    import tracing
    import workloads

    info = _provenance(args)
    checker = checks.Checker(HERE / "refs")
    jobs = workloads.build(args.workload, args.seed, workdir / "untraced")
    t_end = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)

    untraced, selftest_failures = [], []
    while not untraced or time.perf_counter() < t_end:
        p = _run_pass(jobs, probed=not args.trace)
        if not untraced:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _check_pass(checker, jobs, p)
        if not untraced:
            selftest_failures = _self_test(checker, jobs, p)
        untraced.append(p)
    runs = list(untraced)

    if not args.trace:
        setup, setup_raw = zip(*(_setup_sample(args) for _ in range(SETUP_SAMPLES)))
        latencies = _job_medians(untraced, "scaled")
        raw = _job_medians(untraced, "latencies")
        tail_ms, tail_pct = _tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(latencies),
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_tail_ms": tail_ms * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        probes = [x for p in untraced for x in p.probes]
        bases = {"jobs": len(latencies), "passes": len(untraced), "job_tail_percentile": tail_pct,
                 "setup_samples_s": setup, "raw": {
                     "setup_s": statistics.median(setup_raw), "wall_s": sum(raw),
                     "job_p50_ms": statistics.median(raw) * 1e3, "job_tail_ms": _tail(raw)[0] * 1e3},
                 "probe_ms": {"ref": PROBE_REF_S * 1e3, "count": len(probes),
                              "min": min(probes) * 1e3, "median": statistics.median(probes) * 1e3,
                              "max": max(probes) * 1e3}}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        s0 = time.perf_counter()
        traced_jobs = workloads.build(args.workload, args.seed, workdir / "traced")
        s1 = time.perf_counter()
        tracer.enabled = False
        t_end = time.perf_counter() + args.seconds / 2
        traced = []
        while not traced or time.perf_counter() < t_end:
            tracer.enabled = True
            p = _run_pass(traced_jobs, probed=False)
            tracer.enabled = False
            _check_pass(checker, traced_jobs, p)
            traced.append(p)
        runs += traced
        per_pass = [tracing.pass_metrics(tracer.spans, p.start, p.start + p.wall) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics.update(tracing.setup_metrics(tracer.spans, s0, s1))
        metrics["cli.report_bytes"] = statistics.median(p.report_bytes for p in traced)
        untraced_wall = min(p.wall for p in untraced)
        metrics["trace.overhead_frac"] = min(p.wall for p in traced) / untraced_wall - 1
        bases = {"convexity.violations_per_verdict": metrics.pop("convexity.verdicts"),
                 "untraced_wall_s": untraced_wall, "passes": len(traced)}
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        _write_trace(args, info, tracer, (s0, s1), traced)

    attempted = sum(len(p.results) for p in runs)
    failed = sum(p.failed for p in runs)
    info.update(bases=bases, fail_frac=failed / attempted, selftest_failures=selftest_failures)
    print(json.dumps({"run": info}))
    for name in units:
        print(f"{name:36s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not selftest_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _run_pass(jobs, probed: bool) -> Pass:
    """Run every job once, in order; each starts when the previous ends.

    When probed, a probe runs before the first job, after the last, and
    between jobs once PROBE_EVERY_S has gone by since the previous one; the
    jobs in between are scaled by the mean of the two probes around them.
    """
    latencies, results, scaled, probes = [], [], [], []
    sink = io.StringIO()  # the CLI prints a summary line per job
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        if probed:
            probes.append(_probe())
            since = time.perf_counter()
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            try:
                result = job.run()
            except (Exception, SystemExit) as exc:  # counted as a failed job
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append(result)
            sink.seek(0)
            sink.truncate()
            if probed and (time.perf_counter() - since >= PROBE_EVERY_S or i == len(jobs) - 1):
                probes.append(_probe())
                factor = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
                scaled += [t * factor for t in latencies[len(scaled):]]
                since = time.perf_counter()
        wall = time.perf_counter() - start
    report_bytes = sum(job.out.stat().st_size for job in jobs if job.out is not None and job.out.exists())
    return Pass(start, wall, latencies, results, scaled if probed else list(latencies), probes, report_bytes)


def _job_medians(passes: list[Pass], field: str) -> list[float]:
    """Each job's median latency over the passes."""
    return [statistics.median(times) for times in zip(*(getattr(p, field) for p in passes))]


def _check_pass(checker, jobs, p: Pass) -> None:
    for job, result in zip(jobs, p.results):
        failures = checker.failures(job, result)
        if failures:
            p.failed += 1
            print(f"perfbench: job {job.name} failed: {', '.join(failures)}", file=sys.stderr)


def _self_test(checker, jobs, p: Pass) -> list[str]:
    """Corrupt one correct output of each job kind; every corruption must fail a check."""
    missed, seen = [], set()
    for job, result in zip(jobs, p.results):
        if job.kind in seen or isinstance(result, BaseException) or checker.failures(job, result):
            continue
        seen.add(job.kind)
        for corruption, failures in checker.rejections(job, result).items():
            if not failures:
                missed.append(f"{job.name}:{corruption}")
                print(f"perfbench: self-test: {corruption} of {job.name} passed every check", file=sys.stderr)
    return missed


def _probe() -> float:
    """Seconds of a fixed pure-Python loop (~3 ms on the reference host):
    integer and Fraction arithmetic, the kinds of work the jobs' Python
    layers do.  It calls no relconv code, so it measures the host alone."""
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    harmonic = Fraction(0)
    for i in range(1, 400):
        harmonic += Fraction(1, i)
    return time.perf_counter() - t0


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def _setup_sample(args) -> tuple[float, float]:
    """Seconds from starting a fresh process until its first job is ready:
    host-normalized by reference starts just before and after it, and raw."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = _start_reference()
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw = float(proc.stdout.split()[-1]) - t0
    after = _start_reference()
    return raw * 2 * START_REF_S / (before + after), raw


def _start_reference() -> float:
    """Seconds to start a fresh interpreter that imports numpy and exits.
    Most of a set-up is such a start; it runs no relconv code."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, capture_output=True, timeout=120, check=True)
    return time.monotonic() - t0


def _write_trace(args, info, tracer, setup_window, traced) -> None:
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "run": info,
        "setup": setup_window,
        "passes": [(p.start, p.start + p.wall) for p in traced],
        "spans": tracer.spans,
    }))


def _provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "relconv_threads": 1,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "relconv").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


if __name__ == "__main__":
    sys.exit(main())
