"""Output checks for every benchmark job, and the corruptions that test them.

Each job kind has a table of named checks.  ``Checker.failures(job, result)``
loads what a job produced and returns the names of the checks it fails; an
empty list means the output is correct.  Fixed jobs are compared with
references recorded at the seed commit (floats to a relative 1e-9, so a
change of summation order passes and a wrong value does not); seeded jobs are
checked against the properties the tier-1 acceptance tests assert.

``CORRUPTIONS`` holds, per kind, deliberately broken variants of a loaded
output.  Every applicable corruption must fail at least one check, so a
broken checker cannot leave the failure count at zero unnoticed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from relconv import cayley, convexity, extremal, grid

REL_TOL = 1e-9
SCAN_TOL = 1e-9  # the scanners' default slack tolerance
FLOAT_COLUMNS = ("bound", "ratio")


class Checker:
    """Checks job outputs; remembers outputs already found correct."""

    def __init__(self, refs_dir: Path):
        self.refs = {name: json.loads((refs_dir / f"{name}.json").read_text()) for name in ("catalog", "scan")}
        self._passed: set[tuple[str, str]] = set()

    def failures(self, job, result) -> list[str]:
        """Names of the checks that the output of one job run fails."""
        if isinstance(result, BaseException):
            return ["raised"]
        try:
            data = load(job, result)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable: {exc}"]
        key = (job.name, _digest(data))
        if key in self._passed:
            return []
        failed = self.verify(job, data)
        if not failed:
            self._passed.add(key)
        return failed

    def verify(self, job, data) -> list[str]:
        failed = []
        for name, check in CHECKS[job.kind].items():
            try:
                ok = check(self, job, data)
            except (ArithmeticError, AttributeError, ValueError, KeyError, IndexError, TypeError) as exc:
                ok = False
                name = f"{name} ({type(exc).__name__})"
            if not ok:
                failed.append(name)
        return failed

    def rejections(self, job, result) -> dict[str, list[str]]:
        """Checks failed by each applicable corruption of a correct output."""
        data = load(job, result)
        return {
            name: self.verify(job, corrupt(job, copy.deepcopy(data)))
            for name, (applies, corrupt) in CORRUPTIONS[job.kind].items()
            if applies(job, data)
        }


def load(job, result) -> dict:
    """Read a job's output into plain data for the checks."""
    if job.kind == "endpoint":
        return {"results": [tuple(r) for r in result]}
    text = job.out.read_text()
    if job.kind == "catalog":
        rows = list(csv.DictReader(text.splitlines()))
        for row in rows:
            row.pop("wall_ms")  # a timing, not a result
        return {"rc": result, "rows": rows}
    if job.kind == "sup":
        rows = list(csv.reader(text.splitlines()))
        return {"rc": result, "header": rows[0], "rows": rows[1:]}
    return {"rc": result, "report": json.loads(text)}


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def close(a, b) -> bool:
    """Structural equality with floats compared to a relative REL_TOL."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def violation_count(vals: np.ndarray, anchored: bool) -> int:
    """Grid triples a < b < c with vals[b] > lam*vals[a] + (1-lam)*vals[c] +
    (c-a)/N + tol, counted here independently of relconv's scanners; with
    `anchored`, positive endpoint values count too (class F0)."""
    n = len(vals) - 1
    idx = np.arange(n + 1)
    count = int(vals[0] > SCAN_TOL) + int(vals[n] > SCAN_TOL) if anchored else 0
    for b in range(1, n):
        a, c = idx[:b, None], idx[None, b + 1:]
        lam = (c - b) / (c - a)
        rhs = lam * vals[a] + (1.0 - lam) * vals[c] + (c - a) / n
        count += int(np.count_nonzero(vals[b] - rhs > SCAN_TOL))
    return count


def read_values(path: Path) -> np.ndarray:
    """Float values of an `i,x,value` grid CSV, parsed without relconv."""
    rows = list(csv.reader(Path(path).read_text().splitlines()))[1:]
    return np.array([float(Fraction(r[2])) for r in rows])


# --- catalog ---------------------------------------------------------------

def _exit_ok(ck, job, d):
    return d["rc"] == 0  # verify-catalog exits 1 on a bound violation

def _rows_match_reference(ck, job, d):
    ref = ck.refs["catalog"][job.name]
    if len(d["rows"]) != len(ref):
        return False
    for row, want in zip(d["rows"], ref):
        if row.keys() != want.keys():
            return False
        for k, v in row.items():
            same = close(float(v), float(want[k])) if k in FLOAT_COLUMNS else v == want[k]
            if not same:
                return False
    return True


def _profile(d):
    return [int(r["min_boundary"]) for r in d["rows"]]


def _witnesses_reproduce(ck, job, d):
    entry = job.meta["entry"]
    if "group" in entry:
        group = cayley.AbelianGroup.parse(entry["group"])
        s = cayley.ConnectionSet.from_text(group, entry["s"])

        def boundary(bits):
            return cayley.edge_boundary(group, s, cayley.VertexSet(bits, group.order))
    else:
        arcs = entry["digraph"]["arcs"]

        def boundary(bits):
            return sum(1 for u, v in arcs if bits >> u & 1 and not bits >> v & 1)
    for r in d["rows"]:
        bits = int(r["witness"], 16)
        if bits.bit_count() != int(r["n"]) or boundary(bits) != int(r["min_boundary"]):
            return False
    return True


def _one_row_per_n(ck, job, d):
    return [int(r["n"]) for r in d["rows"]] == list(range(job.meta["order"] + 1))


def _symmetric(ck, job, d):
    # a Cayley digraph is regular, so boundary(A) = boundary(G \ A)
    prof = _profile(d)
    return prof == prof[::-1]


def _above_bound(ck, job, d):
    if "group" not in job.meta["entry"]:
        return True
    return all(int(r["min_boundary"]) >= float(r["bound"]) - 1e-9 for r in d["rows"])


def _harper(ck, job, d):
    # Z2^d with the basis: min_boundary(n) = d*n - 2*sum_{i<n} popcount(i)
    entry = job.meta["entry"]
    factors = entry.get("group", "").split("x")
    if entry.get("s") != "basis" or set(factors) != {"Z2"}:
        return True
    dim = len(factors)
    return _profile(d) == [dim * n - 2 * sum(i.bit_count() for i in range(n)) for n in range(2**dim + 1)]


def _cycle(ck, job, d):
    # Z_n with S = {1}: every proper nonempty subset has boundary >= 1, intervals 1
    entry = job.meta["entry"]
    if entry.get("s") != "(1)" or "x" in entry.get("group", "x"):
        return True
    order = job.meta["order"]
    return _profile(d) == [0] + [1] * (order - 1) + [0]


def _six_cycle_fails_bound(ck, job, d):
    if "digraph" not in job.meta["entry"]:
        return True
    inner = [r for r in d["rows"] if 0 < int(r["n"]) < job.meta["order"]]
    return bool(inner) and all(int(r["min_boundary"]) < float(r["bound"]) for r in inner)


# --- scan ------------------------------------------------------------------

def _exit_reference(ck, job, d):
    return d["rc"] == ck.refs["scan"][job.name]["rc"]


def _report_reference(ck, job, d):
    return close(d["report"], ck.refs["scan"][job.name]["report"])


def _triples(d):
    return [(v["a"], v["b"], v["c"]) for v in d["report"]["violations"]]


def _exit_verdict(ck, job, d):
    return d["rc"] == (1 if job.meta.get("above") else 0)


def _arithmetic(ck, job, d):
    return d["report"]["arithmetic"] == ("rational" if job.meta.get("exact") else "float")


def _verdict(ck, job, d):
    return bool(d["report"]["violations"]) == bool(job.meta.get("above"))


def doubling_triple(job) -> tuple[int, int, int]:
    """(0, i0, 2*i0) clipped to the grid, mirrored for apexes right of 1/2:
    a tent with apex (x0, h) violates it exactly when h > 4*x0*(1-x0)."""
    i0, n = job.meta["apex"], job.meta["N"]
    return (0, i0, min(2 * i0, n)) if 2 * i0 <= n else (max(0, 2 * i0 - n), i0, n)


def _doubling_triple(ck, job, d):
    return not job.meta.get("above") or doubling_triple(job) in set(_triples(d))


def _sorted_unique(ck, job, d):
    t = _triples(d)
    return t == sorted(set(t))


def _slack_negative(ck, job, d):
    return all(v["slack"] < 0 for v in d["report"]["violations"])


def _independent_count(ck, job, d):
    return len(d["report"]["violations"]) == violation_count(read_values(job.meta["input"]), anchored=True)


def _float_path_agrees(ck, job, d):
    # the exact and float scanners of relconv reach the same verdict
    if not job.meta.get("exact"):
        return True
    vals = read_values(job.meta["input"])
    return bool(convexity.check_almost_convex_anchored(grid.GridFunction(len(vals) - 1, vals))) == bool(
        d["report"]["violations"])


# --- endpoint reduction ----------------------------------------------------

def _pairs_of_bools(ck, job, d):
    return len(d["results"]) == len(job.inputs) and all(
        len(r) == 2 and all(isinstance(x, bool) for x in r) for r in d["results"])


def _endpoint_implies_full(ck, job, d):
    return all(full or not end for end, full in d["results"])


def _endpoint_decisive(ck, job, d):
    return all(end or not full for end, full in d["results"])


def _full_scan_independent(ck, job, d):
    return all(full == (violation_count(f.floats(), anchored=False) == 0)
               for f, (_, full) in zip(job.inputs, d["results"]))


# --- sup -------------------------------------------------------------------

def _sup_values(d):
    return np.array([float(r[2]) for r in d["rows"]])


def _converged(ck, job, d):
    return d["rc"] == 0  # estimate-sup exits 1 when the sweeps do not converge


def _sup_grid(ck, job, d):
    n = job.meta["N"]
    return d["header"] == ["i", "x", "value"] and [r[:2] for r in d["rows"]] == [
        [str(i), f"{i}/{n}"] for i in range(n + 1)]


def _sup_endpoints(ck, job, d):
    g = _sup_values(d)
    return g[0] <= 0 and g[-1] <= 0


def _sup_member(ck, job, d):
    g = _sup_values(d)
    return not convexity.check_almost_convex(grid.GridFunction(len(g) - 1, g), 1, job.meta["p"], tol=1e-8)


def _sup_dominates_majorant(ck, job, d):
    if job.meta["p"] != 1:
        return True
    g = _sup_values(d)
    return bool(np.all(g >= extremal.majorant_grid(len(g) - 1).floats() - 1e-9))


CHECKS = {
    "catalog": {
        "exit": _exit_ok,
        "reference": _rows_match_reference,
        "rows": _one_row_per_n,
        "witness": _witnesses_reproduce,
        "symmetry": _symmetric,
        "bound": _above_bound,
        "harper": _harper,
        "cycle": _cycle,
        "six_cycle": _six_cycle_fails_bound,
    },
    "reference": {"exit": _exit_reference, "reference": _report_reference},
    "tent": {
        "exit": _exit_verdict,
        "arithmetic": _arithmetic,
        "verdict": _verdict,
        "doubling": _doubling_triple,
        "sorted": _sorted_unique,
        "slack": _slack_negative,
        "count": _independent_count,
        "float_path": _float_path_agrees,
    },
    "concave": {
        "exit": _exit_verdict,
        "arithmetic": _arithmetic,
        "verdict": _verdict,
        "count": _independent_count,
    },
    "endpoint": {
        "shape": _pairs_of_bools,
        "implication": _endpoint_implies_full,
        "decisive": _endpoint_decisive,
        "full_scan": _full_scan_independent,
    },
    "sup": {
        "converged": _converged,
        "grid": _sup_grid,
        "endpoints": _sup_endpoints,
        "member": _sup_member,
        "dominates": _sup_dominates_majorant,
    },
}


# --- corruptions -----------------------------------------------------------
# Each takes (job, data) and returns the broken data; CORRUPTIONS pairs it
# with a predicate saying on which outputs it applies.

def _always(job, d):
    return True


def _bump_min_boundary(delta):
    def corrupt(job, d):
        d["rows"][1]["min_boundary"] = str(int(d["rows"][1]["min_boundary"]) + delta)
        return d
    return corrupt


def _flip_witness_bit(job, d):
    row = d["rows"][1]
    row["witness"] = hex(int(row["witness"], 16) ^ (1 << (len(d["rows"]) - 2)))
    return d


def _scale_bound(job, d):
    row = d["rows"][len(d["rows"]) // 2]
    row["bound"] = repr(float(row["bound"]) * 1.01)
    return d


def _drop_last(key):
    def corrupt(job, d):
        del d[key][-1]
        return d
    return corrupt


def _flip_rc(job, d):
    d["rc"] = 1 - d["rc"]
    return d


def _has_violations(job, d):
    return bool(d["report"]["violations"])


def _no_violations(job, d):
    return not d["report"]["violations"]


def _add_violation(job, d):
    d["report"]["violations"].append({"a": 0, "b": 1, "c": 2, "lhs": 1.0, "rhs": 0.5, "slack": -0.5})
    return d


def _drop_last_violation(job, d):
    del d["report"]["violations"][-1]
    return d


def _drop_doubling(job, d):
    d["report"]["violations"] = [v for v in d["report"]["violations"]
                                 if (v["a"], v["b"], v["c"]) != doubling_triple(job)]
    return d


def _several_violations(job, d):
    return len(d["report"]["violations"]) > 1


def _reverse_violations(job, d):
    d["report"]["violations"].reverse()
    return d


def _shift_max_slack(job, d):
    d["report"]["max_slack"] = (d["report"]["max_slack"] or 0.0) + 0.01
    return d


def _flip_arithmetic(job, d):
    d["report"]["arithmetic"] = {"rational": "float"}.get(d["report"]["arithmetic"], "rational")
    return d


def _flip_slack(job, d):
    v = d["report"]["violations"][0]
    v["slack"] = -v["slack"]
    return d


def _set_result(index, value):
    def corrupt(job, d):
        d["results"][index] = value
        return d
    return corrupt


def _flip_pair(job, d):
    end, full = d["results"][0]
    d["results"][0] = (not end, not full)
    return d


def _shift_sup(middle: bool, delta: float):
    def corrupt(job, d):
        row = d["rows"][len(d["rows"]) // 2 if middle else 0]
        row[2] = repr(float(row[2]) + delta)
        return d
    return corrupt


CORRUPTIONS = {
    "catalog": {
        "min_boundary_plus_one": (_always, _bump_min_boundary(+1)),
        "min_boundary_minus_one": (_always, _bump_min_boundary(-1)),
        "witness_bit_flipped": (_always, _flip_witness_bit),
        "bound_scaled": (_always, _scale_bound),
        "row_dropped": (_always, _drop_last("rows")),
        "exit_code": (_always, _flip_rc),
    },
    "reference": {
        "exit_code": (_always, _flip_rc),
        "violation_dropped": (_has_violations, _drop_last_violation),
        "violation_added": (_no_violations, _add_violation),
        "violations_reversed": (_several_violations, _reverse_violations),
        "max_slack_shifted": (_always, _shift_max_slack),
    },
    "tent": {
        "exit_code": (_always, _flip_rc),
        "doubling_dropped": (_has_violations, _drop_doubling),
        "violation_dropped": (_has_violations, _drop_last_violation),
        "violation_added": (_no_violations, _add_violation),
        "violations_reversed": (_several_violations, _reverse_violations),
        "arithmetic_flipped": (_always, _flip_arithmetic),
        "slack_sign_flipped": (_has_violations, _flip_slack),
    },
    "concave": {
        "exit_code": (_always, _flip_rc),
        "violation_added": (_always, _add_violation),
        "arithmetic_flipped": (_always, _flip_arithmetic),
    },
    "endpoint": {
        "implication_broken": (_always, _set_result(0, (True, False))),
        "decisive_broken": (_always, _set_result(-1, (False, True))),
        "verdicts_flipped": (_always, _flip_pair),
        "result_dropped": (_always, _drop_last("results")),
    },
    "sup": {
        "not_converged": (_always, _flip_rc),
        "value_shifted_up": (_always, _shift_sup(True, 1e-3)),
        "value_shifted_down": (lambda job, d: job.meta["p"] == 1, _shift_sup(True, -0.1)),
        "endpoint_raised": (_always, _shift_sup(False, 1e-3)),
        "row_dropped": (_always, _drop_last("rows")),
    },
}
