"""Time relconv layer by layer and end to end, and write the numbers as JSON.

    python3 tools/bench_layers.py --out BENCH_<pr>.json [TREE]

imports the relconv package from TREE/src (by default the checkout this
script sits in), times fixed library calls with time.perf_counter, each
RUNS times, and writes one JSON file: the machine and the commit, every
raw time in seconds, the minimum of each call's RUNS times, and from
those minima the four per-layer rates:

    kernel      ns per subset       profile(group, basis), over the report's
                                    subsets_enumerated
    float scan  ns per triple       check_almost_convex(majorant_grid(N)),
                                    over the (N+1)N(N-1)/6 triples a < b < c
    exact scan  ns per triple       check_almost_convex of the exact tent
                                    (1/4, 4/5) at N, over the same count
    sup         ns per triple read  estimate_sup(p, N), over
                                    sum(stats["triples_read"]), with the
                                    sweep count and the sum itself

and, end to end, verify_catalog(load_catalog()) of the built-in catalog and
`check-class --class F0 --out` of same_outputs.py's float tent through
cli.main, with the report's records and bytes and the tracemalloc peak of
one more, untimed, run.  Nothing is patched: counts come from the results,
their stats and the report.  Time the trees to be compared one after
another, in alternating order, unpacked at paths of equal length, since a
shared host's speed drifts over minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5

_spec = importlib.util.spec_from_file_location("same_outputs", Path(__file__).with_name("same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

INPUTS = {
    # Z2xZ12 (24 + 6 bits) keys its masks in 32 bits, the order-28 groups in 64
    "kernel": ["Z4xZ7", "Z2xZ2xZ7", "Z2xZ12"],
    "float_scan": [256, 512],
    "exact_scan": [128, 256, 512],
    "sup": [(1.0, 255), (1.5, 255), (1.0, 512), (1.5, 512), (1.9, 512)],
    "report": 160,
}


def timed(call, runs: int) -> tuple[dict, object]:
    """({"seconds": the runs' times, "min_s": their minimum}, the last result)."""
    seconds = []
    for _ in range(runs):
        start = perf_counter()
        result = call()
        seconds.append(perf_counter() - start)
    return {"seconds": seconds, "min_s": min(seconds)}, result


def triples(N: int) -> int:
    """The triples a < b < c of the grid 0..N."""
    return (N + 1) * N * (N - 1) // 6


def kernel(rc, groups, runs: int) -> list[dict]:
    out = []
    for name in groups:
        group = rc.AbelianGroup.parse(name)
        t, report = timed(lambda: rc.profile(group, rc.ConnectionSet.basis(group)), runs)
        out.append({"input": f"profile({name}, basis)", **t, "subsets": report.subsets_enumerated,
                    "ns_per_subset": t["min_s"] * 1e9 / report.subsets_enumerated})
    return out


def float_scan(rc, sizes, runs: int) -> list[dict]:
    out = []
    for N in sizes:
        f = rc.majorant_grid(N)
        t, _ = timed(lambda: rc.check_almost_convex(f), runs)
        out.append({"input": f"check_almost_convex(majorant_grid({N}))", **t, "triples": triples(N),
                    "ns_per_triple": t["min_s"] * 1e9 / triples(N)})
    return out


def exact_scan(rc, sizes, runs: int) -> list[dict]:
    out = []
    for N in sizes:
        f = rc.make_tent(Fraction(1, 4), Fraction(4, 5), N)
        t, violations = timed(lambda: rc.check_almost_convex(f), runs)
        out.append({"input": f"check_almost_convex(make_tent(1/4, 4/5, {N}))", **t, "triples": triples(N),
                    "violations": len(violations), "ns_per_triple": t["min_s"] * 1e9 / triples(N)})
    return out


def sup(rc, inputs, runs: int) -> list[dict]:
    out = []
    for p, N in inputs:
        stats: dict = {}
        t, _ = timed(lambda: rc.estimate_sup(p, N, stats=stats), runs)
        read = sum(stats["triples_read"])
        out.append({"input": f"estimate_sup(p={p}, N={N})", **t, "sweeps": stats["iterations"],
                    "triples_read": read, "full_sweeps_read": read / stats["triples"],
                    "ns_per_triple_read": t["min_s"] * 1e9 / read})
    return out


def catalog(rc, runs: int) -> dict:
    t, reports = timed(lambda: rc.verify_catalog(rc.load_catalog()), runs)
    return {"input": "verify_catalog(load_catalog())", **t, "reports": len(reports)}


def report(rc, N: int, runs: int) -> dict:
    cli = importlib.import_module(f"{rc.__name__}.cli")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tent, out = Path(tmp) / "tent.csv", Path(tmp) / "r.json"
        same_outputs.float_tent_csv(tent, N)
        argv = ["check-class", "--fn", str(tent), "--class", "F0", "--out", str(out)]
        t, _ = timed(lambda: cli.main(argv), runs)
        tracemalloc.start()
        try:
            cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"input": f"check-class --fn <float tent, N = {N}> --class F0 --out", **t,
                "records": len(json.loads(out.read_text())["violations"]), "report_bytes": out.stat().st_size,
                "tracemalloc_peak_bytes": peak}


def bench(rc, runs: int, inputs: dict = INPUTS) -> dict:
    """The layers' and the end-to-end measurements of the package rc."""
    return {
        "layers": {
            "kernel": kernel(rc, inputs["kernel"], runs),
            "float_scan": float_scan(rc, inputs["float_scan"], runs),
            "exact_scan": exact_scan(rc, inputs["exact_scan"], runs),
            "sup": sup(rc, inputs["sup"], runs),
        },
        "end_to_end": {"verify_catalog": catalog(rc, runs), "report": report(rc, inputs["report"], runs)},
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "cores": os.cpu_count(), "system": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def commit(tree: Path) -> str | None:
    """git describe of the tree (-dirty when it differs from that commit), or None outside a checkout."""
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def load(tree: Path):
    """The relconv package of tree/src, imported ahead of any other."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import relconv

    if Path(relconv.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: relconv was already imported from {relconv.__file__}")
    return relconv


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write, e.g. BENCH_36.json")
    args = parser.parse_args(argv)
    rc = load(args.tree)
    result = {"machine": machine(), "commit": commit(args.tree), "runs": RUNS, **bench(rc, RUNS)}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
