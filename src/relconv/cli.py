"""Command-line front-end: every operation as a subcommand.

Exit codes, all set by `main`: 0 on success with all checked inequalities
holding, 1 when any checked inequality is violated (the violations land in
the report; a bound violation with a generating S is an `error:` line), 2 on
usage or configuration errors, unreadable inputs, unwritable outputs and
inputs too large for memory.  Library warnings print as one `warning:` line
each on stderr.

Reports are JSON with a schema_version header and the run configuration
embedded for reproducibility.  Everything except the wall_ms timing fields
is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings
from fractions import Fraction
from itertools import chain
from operator import itemgetter

import numpy as np

from . import catalog as cat
from .cayley import AbelianGroup, ConnectionSet
from .convexity import (
    TupleViolation,
    check_almost_convex,
    check_almost_convex_anchored,
    check_mean_inequality,
    check_sharpened,
    make_tent,
)
from .extremal import (
    ConvergenceError,
    branch_point,
    default_branch_cap,
    estimate_sup,
    majorant,
    majorant_grid,
    parabola_grid,
)
from .grid import GridFunction, _float, read_csv, write_csv
from .isoperimetry import profile, six_cycle_counterexample

SCHEMA_VERSION = 1


# One Violation as json.dumps(indent=2) spells it inside a top-level list,
# given its ints, which json writes as %d does, and its floats' spellings.
_VIOLATION_ROW = ('    {\n      "a": %d,\n      "b": %d,\n      "c": %d,\n'
                  '      "lhs": %s,\n      "rhs": %s,\n      "slack": %s\n    }')

# Records per %-template pass.  On the 25,256 records of a float tent at
# N = 160 (2-core Xeon, min of 15 writes), chunks of 1,024 wrote in 26-28 ms,
# 64 in 29-32 ms and 2,048 in 28-30 ms, and under tracemalloc the writer
# peaked 2.32 MiB above its records at 1,024 or fewer, where the spelling
# tables set the peak, against 2.75 MiB at 2,048 and 5.52 at 8,192.
_CHUNK = 1024

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _write_json(path: str, payload: dict) -> None:
    """Write json.dumps(payload, indent=2) + "\\n".

    A top-level "violations" list of Violation or TupleViolation records is
    spelled by %-templates instead, where json.dumps with indent set runs its
    pure-Python encoder item by item.  The file gets the envelope's head, the
    records _CHUNK at a time, and its tail, so the text in memory at once is
    one chunk's, whatever the number of records.  A chunk's ints go into its
    template as they are, and each float column's entries as the column's
    _spelling_table gives them.
    """
    records = payload.get("violations")
    text = json.dumps({**payload, "violations": []} if records else payload, indent=2)
    if not records:
        with open(path, "w") as fh:
            fh.writelines([text, "\n"])
        return
    tuples = isinstance(records[0], TupleViolation)  # one m per list, of ints and floats only
    if tuples:
        xs = ",\n".join(["        %d"] * len(records[0][0]))
        row = '    {\n      "xs": [\n' + xs + '\n      ],\n      "lhs": %s,\n      "rhs": %s\n    }'
        fields = (1, 2)
    else:
        row, fields = _VIOLATION_ROW, (3, 4, 5)
    tables = [_spelling_table(records, k) for k in fields]
    # strings hold no raw newline, so this is the top-level key
    head, tail = text.split('\n  "violations": []', 1)
    template = ",\n".join([row] * _CHUNK)
    with open(path, "w") as fh:
        fh.writelines([head, '\n  "violations": [\n'])
        for k0 in range(0, len(records), _CHUNK):
            chunk = records[k0:k0 + _CHUNK]
            if tuples:
                flat = list(chain.from_iterable([(*x, lo, hi) for x, lo, hi in chunk]))
            else:
                flat = list(chain.from_iterable(chunk))
            width = len(flat) // len(chunk)
            for k, (spelled, inverse) in zip(range(width - len(fields), width), tables):
                flat[k::width] = spelled[inverse[k0:k0 + len(chunk)]].tolist()
            if len(chunk) < _CHUNK:
                template = ",\n".join([row] * len(chunk))
            fh.writelines([",\n" if k0 else "", template % tuple(flat)])
        fh.writelines(["\n  ]", tail, "\n"])


def _spelling_table(records: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(spelled, inverse): json.dumps' spelling of float(r[k]) for each record r
    is spelled[inverse[i]] for the i-th; each distinct float is spelled once.

    A spelling is float.__repr__, or Infinity, -Infinity or NaN.  Floats are
    told apart by their bits, which keeps 0.0 and -0.0 apart; equal bits
    spell alike, NaNs included.  A float scan's lhs column holds one value per
    middle index, and its rhs and slack columns repeat values too; as the
    records run in (a, b, c) order, equal values recur far apart, so one table
    serves every chunk.
    """
    try:
        floats = np.fromiter(map(itemgetter(k), records), float, len(records))
    except OverflowError:  # an exact value past the float range
        floats = np.fromiter(map(_float, map(itemgetter(k), records)), float, len(records))
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(float).tolist()))
    return np.fromiter(map(_NON_FINITE.get, reprs, reprs), object, len(bits)), inverse


def _emit(args, config: dict, body: dict) -> None:
    """Write the JSON report to --out, when given: the schema version, then
    the run configuration from the subcommand to the seed, then the body."""
    if args.out:
        config = {"subcommand": args.command, **config, "seed": args.seed}
        _write_json(args.out, {"schema_version": SCHEMA_VERSION, "config": config, **body})


def _exact(name: str, text: str, low: int | None = None, high: int | None = None) -> Fraction:
    """The exact number `text` spells, within [low, high] when given; a
    ValueError otherwise, naming the argument and quoting it as typed."""
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be p/q with q > 0 or a decimal, got {text!r}") from None
    if low is not None and not low <= x <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {text!r}")
    return x


def _cmd_eval_f(args) -> int:
    x = _exact("--x", args.x, 0, 1)
    mv = majorant(x)
    print(f"F({args.x}) = {mv.value!r}  (k = {mv.branch})")
    _emit(args, {"x": args.x}, {"value": mv.value, "k": mv.branch})
    return 0


def _cmd_beta(args) -> int:
    # past the branch points E uses the exact powers outgrow int-to-str conversion
    if not 0 <= args.k <= default_branch_cap():
        raise ValueError(f"--k must be in 0..{default_branch_cap()}, got {args.k}")
    b = branch_point(args.k)
    print(f"beta({args.k}) = {b} (~= {float(b)!r})")
    _emit(args, {"k": args.k}, {"numerator": str(b.numerator), "denominator": str(b.denominator), "float": float(b)})
    return 0


def _cmd_estimate_sup(args) -> int:
    stats: dict = {}
    code = 0
    try:
        g = estimate_sup(args.p, args.n, tol=args.tol, max_iters=args.max_iters, stats=stats)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        g = exc.last
        code = 1
    print(
        f"p={args.p} N={args.n}: {stats['iterations']} sweeps, "
        f"last decrease {stats['last_decrease']:.3e}, peak {g.floats().max():.9f}"
    )
    if args.csv:
        write_csv(g, args.csv)
    if args.out:
        _emit(args, {"p": args.p, "n": args.n, "tol": args.tol, "max_iters": args.max_iters},
              {"iterations": stats["iterations"], "converged": stats["converged"], "values": g.floats().tolist()})
    return code


def _load_fn(source: str, n: int | None) -> GridFunction:
    if source.startswith("builtin:"):
        if n is None:
            raise ValueError("builtin functions need --n")
        rest = source[len("builtin:"):]
        if rest == "F":
            return majorant_grid(n)
        if rest == "parabola":
            return parabola_grid(n)
        if rest.startswith("tent:") and rest.count(",") == 1:
            x0_s, h0_s = rest[len("tent:"):].split(",")
            return make_tent(_exact("tent x0", x0_s, 0, 1), _exact("tent h0", h0_s), n)
        raise ValueError(f"unknown builtin {rest!r} (want F, parabola, or tent:x0,h0)")
    return read_csv(source)


def _cmd_check_class(args) -> int:
    f = _load_fn(args.fn, args.n)
    klass = args.klass
    unknown = f"unknown class {klass!r} (want F, F0, Fm:m, or strong)"
    if klass == "F":
        violations = check_almost_convex(f)
    elif klass == "F0":
        violations = check_almost_convex_anchored(f)
    elif klass.startswith("Fm:"):
        try:
            m = int(klass[3:])
        except ValueError:
            raise ValueError(unknown) from None
        violations = check_mean_inequality(f, m, samples=args.samples, seed=args.seed)
    elif klass == "strong":
        violations = check_sharpened(f)
    else:
        raise ValueError(unknown)
    arithmetic = "rational" if f.is_exact and klass in ("F", "F0") else "float"
    _emit(args, {"fn": args.fn, "class": klass, "n": f.N, "samples": args.samples}, {
        "input": args.fn,
        "class": klass,
        "N": f.N,
        "arithmetic": arithmetic,
        "violations": violations,
        "max_slack": violations.max_slack if violations.max_slack != -float("inf") else None,
    })
    print(f"{args.fn} vs class {klass} at N={f.N} [{arithmetic}]: {len(violations)} violation(s)")
    return 1 if violations else 0


def _cmd_profile(args) -> int:
    group = AbelianGroup.parse(args.group)
    s = ConnectionSet.from_text(group, args.s)
    report = profile(group, s, m_override=args.m)
    if args.out and args.format == "csv":
        _write_rows_csv(args.out, report.rows())
    else:
        _emit(args, {"group": args.group, "s": args.s, "m": args.m}, report.to_dict())
    interior = [e.ratio for e in report.entries if 0 < e.n < report.order]
    print(
        f"{report.group} S={report.connection_set} m={report.m}: "
        f"min ratio {min(interior):.6f}" + ("" if report.hypothesis_met else " [hypothesis unmet]")
    )
    return 1 if report.bound_violations() else 0


def _write_rows_csv(path: str, rows: list[dict]) -> None:
    """Write profile rows, which share their keys, under the first row's keys
    as header; csv spells a float as repr does."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(rows[0])
        w.writerows(map(dict.values, rows))


def _cmd_verify_catalog(args) -> int:
    entries = cat.load_catalog(args.catalog)
    reports = cat.verify_catalog(entries)
    rows = [row for report in reports for row in report.rows()]
    if args.out:
        _write_rows_csv(args.out, rows)
    # an arc list only tabulates the bound, whose hypothesis it does not meet
    violations = sum(len(r.bound_violations()) for e, r in zip(entries, reports) if e.is_cayley)
    print(f"{len(entries)} catalog entries, {len(rows)} profile rows, {violations} bound violation(s)")
    return 1 if violations else 0


def _cmd_counterexample(args) -> int:
    boundary, bound = six_cycle_counterexample()
    print(f"{boundary} < {bound!r}")
    _emit(args, {}, {"boundary": boundary, "bound": bound})
    return 0


# built on first use and shared by later main calls: parse_args returns a
# fresh Namespace each time and no default is mutable, so they share nothing else
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common.add_argument("--out", type=str, default=None, help="write a report to this path")

    ap = argparse.ArgumentParser(
        prog="relconv",
        description="Relaxed-convexity extremal functions and Cayley-digraph edge isoperimetry.",
        epilog="example: relconv eval-f --x 1/6",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-f", parents=[common], help="evaluate the extremal majorant")
    p.add_argument("--x", required=True, help="abscissa in [0,1], as p/q or a decimal")
    p.set_defaults(handler=_cmd_eval_f)

    p = sub.add_parser("beta", parents=[common], help="exact branch point")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_beta)

    p = sub.add_parser("estimate-sup", parents=[common], help="discrete supremum of the defect-|dx|^p class")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--csv", type=str, default=None, help="write grid values as i,x,value rows")
    p.set_defaults(handler=_cmd_estimate_sup)

    p = sub.add_parser("check-class", parents=[common], help="scan a grid function against a class")
    p.add_argument("--fn", required=True,
                   help="csv path, builtin:F, builtin:parabola, or builtin:tent:x0,h0")
    p.add_argument("--class", dest="klass", required=True, help="F, F0, Fm:m, or strong")
    p.add_argument("--n", type=int, default=None, help="grid resolution for builtins")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--report", dest="out", help="same as --out")
    p.set_defaults(handler=_cmd_check_class)

    p = sub.add_parser("profile", parents=[common], help="exhaustive isoperimetric profile")
    p.add_argument("--group", required=True, help="e.g. Z3xZ3")
    p.add_argument("--s", required=True, help='e.g. "(1,0),(0,1)" or basis')
    p.add_argument("--m", type=int, default=None, help="exponent bound override (>= max element order)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format for --out")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("verify-catalog", parents=[common], help="profile every catalog fixture")
    p.add_argument("--catalog", type=str, default=None, help="catalog JSON (default: built-in)")
    p.set_defaults(handler=_cmd_verify_catalog)

    p = sub.add_parser("counterexample-s3", parents=[common],
                       help="boundary 2 vs bound 3*sqrt(2/3) on the bidirectional 6-cycle")
    p.set_defaults(handler=_cmd_counterexample)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args)
        except (ValueError, ZeroDivisionError, OSError) as exc:  # bad input, unreadable or unwritable path
            code, error = 2, str(exc)
        except MemoryError as exc:  # an input too large for memory
            code, error = 2, str(exc) or "out of memory"
        except RuntimeError as exc:  # a bound violation with a generating S
            code, error = 1, str(exc)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
