"""Self-test of the output checks: correct outputs pass, corrupted ones fail.

Runs a sample of every workload's jobs once (all catalog and scan jobs, the
first sup job of each p), then applies every
corruption in checks.CORRUPTIONS to each correct output.  It fails if a
correct output fails a check, if any corruption passes every check, or if
some check of a kind never rejects anything (a check that cannot fail), or
if BENCHMARK.json names other metrics or units than run.py reports:

    python3 perfbench/selftest.py [--seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from collections import defaultdict

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    run._import_program()
    import checks
    import tracing
    import workloads

    checker = checks.Checker(run.HERE / "refs")
    workdir = run.OUT / f"selftest-{os.getpid()}"
    problems = []
    fired: dict[str, set[str]] = defaultdict(set)
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, args.seed, workdir / workload)
            if workload == "sup":
                jobs = jobs[:len(workloads.SUP_PS)]
            for job in jobs:
                with contextlib.redirect_stdout(io.StringIO()):
                    result = job.run()
                failures = checker.failures(job, result)
                if failures:
                    problems.append(f"{job.name}: correct output failed {failures}")
                    continue
                for corruption, failed in checker.rejections(job, result).items():
                    fired[job.kind].update(f.split(" ")[0] for f in failed)
                    if not failed:
                        problems.append(f"{job.name}: corruption {corruption} passed every check")
            print(f"{workload}: {len(jobs)} jobs checked and corrupted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", {n: u for n, (u, _) in tracing.PER_LAYER.items()})):
        if {m["name"]: m["unit"] for m in bench[key]} != table:
            problems.append(f"BENCHMARK.json {key} does not match the metrics run.py reports")
    for kind, checks_of_kind in checks.CHECKS.items():
        idle = sorted(set(checks_of_kind) - fired[kind])
        print(f"  {kind:10s} checks that rejected a corruption: {sorted(fired[kind])}")
        if idle:
            problems.append(f"{kind}: checks {idle} rejected no corruption")
    for line in problems:
        print(f"FAIL {line}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
