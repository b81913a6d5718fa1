"""Run every workload, each in its own process, and print one table.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace]

Prints each workload's metrics by name and unit, with its job counts, the
tail percentile and the failure fraction; exits 1 if any run failed or
reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run every relconv benchmark workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", action="store_true", help="report per-layer metrics instead")
    args = ap.parse_args(argv)
    run._import_program()
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        info, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={info['fail_frac']:.4g} bases={json.dumps(info['bases'])}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
