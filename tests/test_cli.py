import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import relconv
from relconv import cli, isoperimetry
from relconv.cayley import AbelianGroup, ConnectionSet
from relconv.cli import main
from relconv.convexity import (
    TupleViolation,
    Violation,
    ViolationList,
    check_almost_convex,
    check_almost_convex_anchored,
    check_mean_inequality,
    make_tent,
)
from relconv.extremal import majorant_grid
from relconv.grid import GridFunction, read_csv, write_csv


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestEvalF:
    def test_rational_input(self, capsys):
        code, out = run(capsys, "eval-f", "--x", "1/6")
        assert code == 0
        assert "0.816496580927726" in out
        assert "k = 2" in out

    def test_decimal_input_is_exact(self, capsys):
        code, out = run(capsys, "eval-f", "--x", "0.25")
        assert code == 0
        assert "k = 1" in out

    def test_out_of_domain(self, capsys):
        assert run(capsys, "eval-f", "--x", "3/2")[0] == 2

    def test_report(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        run(capsys, "eval-f", "--x", "1/6", "--out", str(out))
        r = json.loads(out.read_text())
        assert r["schema_version"] == 1
        assert r["config"]["subcommand"] == "eval-f"
        assert r["k"] == 2


class TestBeta:
    def test_exact_output(self, capsys):
        code, out = run(capsys, "beta", "--k", "2")
        assert code == 0
        assert "64/729" in out

    def test_negative_rejected(self, capsys):
        assert run(capsys, "beta", "--k", "-1")[0] == 2

    def test_last_branch_point_accepted(self, capsys):
        assert run(capsys, "beta", "--k", "44")[0] == 0

    # unchecked, k = 10**6 would build an exact power of trillions of digits
    @pytest.mark.parametrize("k", [45, 50, 10**6])
    def test_past_branch_cap_rejected(self, capsys, k):
        assert main(["beta", "--k", str(k)]) == 2
        assert capsys.readouterr().err == f"error: --k must be in 0..44, got {k}\n"


class TestEstimateSup:
    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "sup.csv"
        code, out = run(capsys, "estimate-sup", "--p", "1", "--n", "8", "--csv", str(path))
        assert code == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["i", "x", "value"]
        assert len(rows) == 10
        assert rows[1][:2] == ["0", "0/8"]
        assert float(rows[5][2]) >= 1.0 - 1e-9

    def test_nonconvergence_exits_one(self, capsys):
        code, _ = run(capsys, "estimate-sup", "--p", "1", "--n", "64", "--max-iters", "1")
        assert code == 1

    def test_bad_p_is_usage_error(self, capsys):
        assert run(capsys, "estimate-sup", "--p", "0", "--n", "8")[0] == 2

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_p_is_usage_error(self, capsys, p):
        code = main(["estimate-sup", "--p", p, "--n", "8"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == [f"error: defect exponent must be positive and finite, got {float(p)}"]

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        # --tol inf used to stop after one sweep and report converged: true
        code = main(["estimate-sup", "--p", "1", "--n", "8", "--tol", tol])
        assert code == 2
        assert capsys.readouterr().err == f"error: tolerance must be positive and finite, got {float(tol)}\n"

    @pytest.mark.parametrize("p, n", [("2", "203"), ("3", "32"), ("1023.5", "8"), ("1024", "8"), ("1100", "8")])
    def test_p2_and_above_converge_in_one_sweep(self, capsys, tmp_path, p, n):
        # --p 3 --n 32 used to exit 1 after 1000 sweeps from the bound 2**p
        out = tmp_path / "sup.json"
        code, _ = run(capsys, "estimate-sup", "--p", p, "--n", n, "--out", str(out))
        assert code == 0
        r = json.loads(out.read_text())
        assert r["converged"] is True and r["iterations"] == 1

    def test_json_report_when_not_converged(self, capsys, tmp_path):
        out = tmp_path / "sup.json"
        code, _ = run(capsys, "estimate-sup", "--p", "1", "--n", "32", "--max-iters", "1", "--out", str(out))
        assert code == 1
        r = json.loads(out.read_text())
        assert r["converged"] is False and r["iterations"] == 1
        assert len(r["values"]) == 33

    def test_json_report_when_converged(self, capsys, tmp_path):
        out = tmp_path / "sup.json"
        code, _ = run(capsys, "estimate-sup", "--p", "2", "--n", "64", "--tol", "1e-3", "--out", str(out))
        assert code == 0
        r = json.loads(out.read_text())
        assert r["converged"] is True
        assert r["config"]["p"] == 2.0 and len(r["values"]) == 65


class TestCheckClass:
    def test_builtin_majorant_passes(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out = run(capsys, "check-class", "--fn", "builtin:F", "--class", "F0",
                        "--n", "32", "--report", str(report))
        assert code == 0
        r = json.loads(report.read_text())
        assert r["class"] == "F0" and r["N"] == 32
        assert r["violations"] == []
        assert r["max_slack"] < 1e-9

    def test_tent_fails_exactly(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _ = run(capsys, "check-class", "--fn", "builtin:tent:1/4,0.8", "--class", "F0",
                      "--n", "16", "--report", str(report))
        assert code == 1
        r = json.loads(report.read_text())
        assert r["arithmetic"] == "rational"
        assert any((v["a"], v["b"], v["c"]) == (0, 4, 8) for v in r["violations"])

    def test_mean_class_subcommand(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _ = run(capsys, "check-class", "--fn", "builtin:F", "--class", "Fm:3",
                      "--n", "30", "--samples", "2000", "--seed", "1", "--report", str(report))
        assert code == 0
        assert json.loads(report.read_text())["violations"] == []

    def test_parabola_builtin(self, capsys):
        code, _ = run(capsys, "check-class", "--fn", "builtin:parabola", "--class", "strong", "--n", "24")
        assert code == 0

    def test_csv_input(self, capsys, tmp_path):
        sup = tmp_path / "g.csv"
        run(capsys, "estimate-sup", "--p", "1", "--n", "16", "--csv", str(sup))
        code, _ = run(capsys, "check-class", "--fn", str(sup), "--class", "F")
        assert code == 0

    @pytest.mark.parametrize("klass", ["Fq", "Fm:x", "Fm:", "Fm:2.5"])
    def test_unknown_class(self, capsys, klass):
        assert main(["check-class", "--fn", "builtin:F", "--class", klass, "--n", "8"]) == 2
        assert capsys.readouterr().err == f"error: unknown class {klass!r} (want F, F0, Fm:m, or strong)\n"

    @pytest.mark.parametrize("fn", ["builtin:tent:1/4", "builtin:tent:1/4,1,2", "builtin:G"])
    def test_unknown_builtin(self, capsys, fn):
        assert main(["check-class", "--fn", fn, "--class", "F", "--n", "8"]) == 2
        rest = fn[len("builtin:"):]
        assert capsys.readouterr().err == f"error: unknown builtin {rest!r} (want F, parabola, or tent:x0,h0)\n"

    def test_builtin_requires_n(self, capsys):
        assert run(capsys, "check-class", "--fn", "builtin:F", "--class", "F")[0] == 2

    def test_offgrid_tent_apex_is_config_error(self, capsys):
        assert run(capsys, "check-class", "--fn", "builtin:tent:1/2,1.01", "--class", "F0", "--n", "15")[0] == 2

    def test_sampled_reports_are_byte_identical_for_same_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check-class", "--fn", "builtin:F", "--class", "Fm:3", "--n", "60",
                "--samples", "5000", "--seed", "9"]
        run(capsys, *argv, "--report", str(a))
        run(capsys, *argv, "--out", str(b))  # --report is a second spelling of --out
        assert a.read_bytes() == b.read_bytes()

    def test_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["check-class", "--fn", "builtin:F", "--class", "F", "--n", "8", "--format", "csv"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("klass", ["F", "F0", "strong", "Fm:2", "Fm:3"])
    def test_non_finite_csv_value_exits_two(self, capsys, tmp_path, klass):
        path = tmp_path / "nan.csv"
        path.write_text("i,x,value\n0,0/4,0.0\n1,1/4,nan\n2,2/4,0.5\n3,3/4,0.25\n4,4/4,0.0\n")
        code = main(["check-class", "--fn", str(path), "--class", klass, "--samples", "200"])
        assert code == 2
        assert capsys.readouterr().err == "error: grid value at index 1 is not finite\n"

    def test_short_csv_row_exits_two(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("i,x,value\n0\n")
        assert main(["check-class", "--fn", str(path), "--class", "F"]) == 2
        assert "fewer than 3 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_class_needs_samples(self, capsys, samples):
        code = main(["check-class", "--fn", "builtin:F", "--class", "Fm:3", "--n", "8", "--samples", str(samples)])
        assert code == 2
        assert capsys.readouterr().err == f"error: need samples >= 1 for m >= 3, got {samples}\n"


HUGE_CSV = "i,x,value\n0,0/2,-1.7e308\n1,1/2,1.7e308\n2,2/2,-1.7e308\n"


def to_float(x) -> float:
    """float(x), or inf of x's sign for an exact x that rounds past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def record_dict(v) -> dict:
    """The dict whose json.dumps spelling a record's report entry must equal."""
    if isinstance(v, TupleViolation):
        return {"xs": list(v.xs), "lhs": float(v.lhs), "rhs": float(v.rhs)}
    return {"a": v.a, "b": v.b, "c": v.c, "lhs": to_float(v.lhs), "rhs": to_float(v.rhs), "slack": to_float(v.slack)}


def _float_tent(tmp_path):
    path = tmp_path / "tent.csv"
    write_csv(make_tent(Fraction(1, 2), 1.125, 48), path)
    return str(path), "F0", [], check_almost_convex_anchored(read_csv(path))


def _float_tent_96(tmp_path):
    # above the parabola: 12,938 float records over 20 middle indices, whose
    # lhs, rhs and slack columns each repeat values
    path = tmp_path / "tent96.csv"
    write_csv(make_tent(Fraction(3, 8), 1.25, 96), path)
    return str(path), "F0", [], check_almost_convex_anchored(read_csv(path))


def _exact_tent(tmp_path):
    return ("builtin:tent:1/4,4/5", "F0", ["--n", "16"],
            check_almost_convex_anchored(make_tent(Fraction(1, 4), Fraction(4, 5), 16)))


def _bump(tmp_path):
    f = majorant_grid(48).floats().copy()
    f[24] += 0.4
    path = tmp_path / "bump.csv"
    write_csv(GridFunction(48, f), path)
    return str(path)


def _sampled_tuples(tmp_path):
    path = _bump(tmp_path)
    return path, "Fm:3", ["--samples", "2000", "--seed", "42"], check_mean_inequality(read_csv(path), 3, 2000, 42)


def _pairs(tmp_path):
    path = _bump(tmp_path)
    return path, "Fm:2", [], check_mean_inequality(read_csv(path), 2)


def _member(tmp_path):
    return "builtin:F", "F0", ["--n", "32"], check_almost_convex_anchored(majorant_grid(32))


def _huge_values(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(HUGE_CSV)
    return str(path), "F", [], check_almost_convex(read_csv(path))


def _huge_exact(tmp_path):
    path = tmp_path / "huge-exact.csv"
    write_csv(GridFunction(4, [Fraction(v) for v in (0, 17 * 10**307, -17 * 10**307, 17 * 10**307, 0)]), path)
    return str(path), "F0", [], check_almost_convex_anchored(read_csv(path))


def _awkward_path(tmp_path):
    path = tmp_path / 'tent, "é".csv'
    f = make_tent(Fraction(1, 4), Fraction(4, 5), 16)
    write_csv(f, path)
    return str(path), "F0", [], check_almost_convex_anchored(f)


def _boundary_records(kind: str, n: int) -> ViolationList:
    """n records of one kind with every awkward value in every float column on
    both sides of every chunk boundary, and one value in the first record that
    recurs only in the last."""
    K = cli._CHUNK
    nan, inf = float("nan"), float("inf")
    if kind == "exact":
        big, tiny, third = Fraction(10**400), Fraction(1, 10**400), Fraction(1, 3)
        odd = [big, -big, tiny, -tiny, Fraction(0), third, third + Fraction(1, 10**30)]
        plain, shared = (lambda i: Fraction(i, 7)), Fraction(5, 2)
    else:
        # distinct NaN objects, a negative NaN, both zeros and infinities, the least subnormal
        odd = [0.0, -0.0, float("nan"), -nan, float("nan"), inf, -inf, 5e-324, -5e-324]
        plain, shared = (lambda i: i / 7), 2.5

    def fields(i: int, width: int) -> list:
        if i in (0, n - 1):
            return [shared, *(odd[(i + k) % len(odd)] for k in range(1, width))]
        if min(i % K, K - 1 - i % K) < len(odd):  # every odd value, in every column, each side
            return [odd[(i + k) % len(odd)] for k in range(width)]
        return [plain(i), plain(2 * i + 1), plain(-i)][:width]

    if kind == "tuples":
        return ViolationList(TupleViolation((i, i + 1, i + 3), *fields(i, 2)) for i in range(n))
    return ViolationList(Violation(i, i + 1, i + 2, *fields(i, 3)) for i in range(n))


class TestReportBytes:
    """check-class --out writes exactly json.dumps(payload, indent=2) + "\\n"."""

    @pytest.mark.parametrize("case", [_float_tent, _float_tent_96, _exact_tent, _sampled_tuples, _pairs, _member,
                                      _huge_values, _huge_exact, _awkward_path],
                             ids=["float-tent", "float-tent-96", "exact-tent", "tuples", "pairs", "member",
                                  "huge-values", "huge-exact", "awkward-path"])
    def test_report_equals_json_dumps(self, capsys, tmp_path, case):
        fn, klass, extra, violations = case(tmp_path)
        out = tmp_path / "r.json"
        code = main(["check-class", "--fn", fn, "--class", klass, *extra, "--out", str(out)])
        assert code == (1 if violations else 0)
        text = out.read_text()
        payload = json.loads(text)
        assert payload["input"] == payload["config"]["fn"] == fn
        assert len(payload["violations"]) == len(violations)
        payload["violations"] = [record_dict(v) for v in violations]
        assert text == json.dumps(payload, indent=2) + "\n"

    def test_huge_values_scan_quietly(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_CSV)
        out = tmp_path / "r.json"
        src = str(Path(relconv.__file__).parent.parent)
        program = (f"import sys; sys.path.insert(0, {src!r}); from relconv.cli import main; "
                   f"sys.exit(main(['check-class', '--fn', {str(path)!r}, '--class', 'F', '--out', {str(out)!r}]))")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ""
        text = out.read_text()
        assert '"slack": -Infinity' in text and '"max_slack": Infinity' in text

    @pytest.mark.parametrize("klass", ["Fm:2", "Fm:3", "Fm:8"])
    def test_huge_values_mean_classes_quietly(self, tmp_path, klass):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_CSV)
        out = tmp_path / "r.json"
        argv = ["check-class", "--fn", str(path), "--class", klass, "--samples", "50", "--out", str(out)]
        src = str(Path(relconv.__file__).parent.parent)
        program = f"import sys; sys.path.insert(0, {src!r}); from relconv.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "Infinity" in out.read_text()

    def test_writer_spells_every_record_shape(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        shared = 0.1 + 0.2
        third = Fraction(1, 3)
        shapes = [
            [Violation(0, 1, 2, 0.5, Fraction(1, 3), -inf), Violation(1, 2, 3, nan, -0.0, 1e-300)],
            [TupleViolation((0, 3), 1.5, inf), TupleViolation((1, 2), nan, -1e22)],
            # equal floats that spell apart: each float is spelled once, so no
            # spelling may stand for another value's
            [Violation(0, 1, 2, 0.0, -0.0, 0.0), Violation(0, 2, 3, -0.0, 0.0, -0.0),
             Violation(1, 2, 3, 0.0, -0.0, 0.0)],
            [TupleViolation((0, 2), -0.0, 0.0), TupleViolation((1, 3), 0.0, -0.0)],
            # distinct NaN objects, which a dict key finds by identity alone, and a negative NaN
            [Violation(0, 1, 2, float("nan"), 1.0, float("nan")), Violation(0, 2, 4, float("nan"), -nan, nan)],
            # many records, one lhs object, as a float scan's row gives
            [Violation(a, 40, c, shared, shared + c, c - a / 7) for a in range(40) for c in range(41, 60)],
            # distinct Fractions that round to one float, and one past the float range
            [Violation(0, 1, 2, third, third, -third), Violation(0, 2, 3, third + Fraction(1, 10**30), third, -inf),
             Violation(1, 2, 3, Fraction(10**400), -Fraction(10**400), Fraction(-1, 10**400))],
        ]
        for records in shapes:
            violations = ViolationList(records)
            path = tmp_path / "r.json"
            cli._write_json(str(path), {"schema_version": 1, "violations": violations, "max_slack": nan})
            oracle = {"schema_version": 1, "violations": [record_dict(v) for v in violations], "max_slack": nan}
            assert path.read_text() == json.dumps(oracle, indent=2) + "\n"

    @pytest.mark.parametrize("kind", ["float", "exact", "tuples"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, kind, extra):
        violations = _boundary_records(kind, cli._CHUNK + extra)
        path = tmp_path / "r.json"
        cli._write_json(str(path), {"schema_version": 1, "violations": violations, "max_slack": -0.0})
        oracle = {"schema_version": 1, "violations": [record_dict(v) for v in violations], "max_slack": -0.0}
        assert path.read_text() == json.dumps(oracle, indent=2) + "\n"

    def test_writer_holds_less_than_its_report(self, tmp_path):
        violations = check_almost_convex_anchored(make_tent(Fraction(1, 2), 1.125, 160))
        assert len(violations) >= 20_000 and isinstance(violations[0].rhs, float)
        path = tmp_path / "r.json"
        payload = {"schema_version": 1, "violations": violations, "max_slack": violations.max_slack}
        # the records are made before tracing starts, so the peak is the writer's own
        tracemalloc.start()
        try:
            cli._write_json(str(path), payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


def test_rows_csv_is_dict_writers(tmp_path):
    group = AbelianGroup.parse("Z2xZ6")
    rows = isoperimetry.profile(group, ConnectionSet.from_text(group, "basis")).rows()
    rows[2]["bound"] = float("nan")  # beside the inf ratios at n = 0 and n = |G|
    assert rows[0]["S"] == "(1,0),(0,1)" and rows[0]["ratio"] == float("inf")
    path = tmp_path / "rows.csv"
    cli._write_rows_csv(str(path), rows)
    oracle = io.StringIO(newline="")
    w = csv.DictWriter(oracle, fieldnames=list(rows[0]))
    w.writeheader()
    w.writerows(rows)
    text = path.read_bytes().decode()
    assert text == oracle.getvalue()
    assert '"(1,0),(0,1)"' in text and ",inf," in text and ",nan," in text


# argv of each subcommand that writes a JSON report, and its exit code
ENVELOPE_RUNS = {
    "eval-f": (["eval-f", "--x", "1/6"], 0),
    "beta": (["beta", "--k", "3"], 0),
    "estimate-sup": (["estimate-sup", "--p", "1", "--n", "16"], 0),
    "estimate-sup-stopped": (["estimate-sup", "--p", "1", "--n", "16", "--max-iters", "1"], 1),
    "check-class": (["check-class", "--fn", "builtin:F", "--class", "Fm:3", "--n", "12", "--samples", "50"], 0),
    "profile": (["profile", "--group", "Z3xZ3", "--s", "basis"], 0),
    "counterexample-s3": (["counterexample-s3"], 0),
}


class TestReportEnvelope:
    """Every JSON report opens with schema_version and a config that names
    the subcommand first and the seed last."""

    @pytest.mark.parametrize("argv, code", ENVELOPE_RUNS.values(), ids=ENVELOPE_RUNS.keys())
    def test_config_runs_from_subcommand_to_seed(self, capsys, tmp_path, argv, code):
        out = tmp_path / "r.json"
        assert main([*argv, "--seed", "17", "--out", str(out)]) == code
        text = out.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert list(payload)[:2] == ["schema_version", "config"] and payload["schema_version"] == 1
        config = list(payload["config"].items())
        assert config[0] == ("subcommand", argv[0])
        assert config[-1] == ("seed", 17)

    def test_csv_profile_writes_no_json(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["profile", "--group", "Z3xZ3", "--s", "basis", "--format", "csv",
                     "--seed", "17", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "group,S,n,min_boundary,bound,ratio,witness,wall_ms"
        assert len(lines) == 1 + 10


class TestProfile:
    def test_json_report(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, text = run(capsys, "profile", "--group", "Z2xZ2xZ2", "--s", "basis", "--out", str(out))
        assert code == 0
        r = json.loads(out.read_text())
        assert r["m"] == 2 and r["hypothesis_met"]
        tight = r["entries"][4]
        assert tight["min_boundary"] == 4 and tight["ratio"] == 1.0
        assert r["entries"][0]["ratio"] is None

    def test_identical_reports_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "profile", "--group", "Z2xZ6", "--s", "basis", "--out", str(a))
        run(capsys, "profile", "--group", "Z2xZ6", "--s", "basis", "--out", str(b))
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra["stats"].pop("wall_ms"), rb["stats"].pop("wall_ms")
        assert json.dumps(ra) == json.dumps(rb)

    def test_invalid_m_override(self, capsys):
        assert run(capsys, "profile", "--group", "Z3xZ3", "--s", "basis", "--m", "2")[0] == 2

    def test_library_warnings_are_one_line_each(self):
        src = str(Path(relconv.__file__).parent.parent)
        program = (f"import sys; sys.path.insert(0, {src!r}); from relconv.cli import main; "
                   "sys.exit(main(['profile', '--group', 'Z4', '--s', '0,2']))")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "Z4 S=(0),(2) m=2: min ratio 0.000000 [hypothesis unmet]\n"
        assert proc.stderr == (
            "warning: connection set contains the identity; it contributes no boundary edges\n"
            "warning: S=(0),(2) does not generate Z4; bound hypothesis unmet\n"
        )

    @pytest.mark.parametrize("group, text, bad", [
        ("Z4", "(1),(x)", "x"), ("Z4", "1.5", "1.5"), ("Z4", "1,,5", ""), ("Z2xZ2", "(1,,0)", ""),
    ], ids=["letter", "decimal", "empty", "tuple-empty"])
    def test_non_integer_s_field_is_named(self, capsys, group, text, bad):
        assert main(["profile", "--group", group, "--s", text]) == 2
        assert capsys.readouterr().err == f"error: cannot parse connection-set field {bad!r} in {text!r}\n"

    def test_group_past_cap_is_config_error(self, capsys):
        assert main(["profile", "--group", "Z1000000", "--s", "1"]) == 2
        assert capsys.readouterr().err == "error: order 1000000 exceeds exhaustive-search cap 32\n"

    def test_huge_group_refused_before_building(self, capsys):
        # at order 10**12 a refusal after the shift tables were built would be a MemoryError
        assert main(["profile", "--group", "Z1000000000000", "--s", "1"]) == 2
        assert capsys.readouterr().err == "error: order 1000000000000 exceeds exhaustive-search cap 32\n"

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _ = run(capsys, "profile", "--group", "Z4", "--s", "(1)", "--out", str(out),
                      "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        assert rows[2]["ratio"] == "1.0"


class TestVerifyCatalog:
    def test_custom_catalog(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({
            "schema_version": 1,
            "entries": [
                {"name": "Z6", "group": "Z6", "s": "(1),(5)"},
                {"name": "six-cycle", "m": 2, "digraph": {
                    "n": 6,
                    "arcs": [[i, (i + 1) % 6] for i in range(6)] + [[(i + 1) % 6, i] for i in range(6)],
                }},
            ],
        }))
        out = tmp_path / "res.csv"
        code, text = run(capsys, "verify-catalog", "--catalog", str(cat), "--out", str(out))
        assert code == 0
        assert text.endswith(", 0 bound violation(s)\n")  # the arc list's sub-bound cells are not counted
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert list(rows[0].keys()) == ["group", "S", "n", "min_boundary", "bound", "ratio", "witness", "wall_ms"]
        assert len(rows) == 7 + 7
        cycle_rows = [r for r in rows if r["group"] == "six-cycle"]
        assert float(cycle_rows[1]["ratio"]) < 1.0  # the bound genuinely fails here

    def test_non_generating_fixture_counts_and_exits_one(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "Z8 (2)", "group": "Z8", "s": "(2)"}]}))
        code, text = run(capsys, "verify-catalog", "--catalog", str(cat))
        assert code == 1
        # every interior cell of the two-coset graph sits below the bound
        assert text == "1 catalog entries, 9 profile rows, 7 bound violation(s)\n"
        assert main(["profile", "--group", "Z8", "--s", "2", "--out", str(tmp_path / "p.json")]) == 1
        assert json.loads((tmp_path / "p.json").read_text())["bound_violations"] == list(range(1, 8))

    def test_profile_csv_spells_rows_as_verify_catalog(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "Z2xZ6", "group": "Z2xZ6", "s": "basis"}]}))
        one, two = tmp_path / "profile.csv", tmp_path / "catalog.csv"
        assert main(["profile", "--group", "Z2xZ6", "--s", "basis", "--format", "csv", "--out", str(one)]) == 0
        assert main(["verify-catalog", "--catalog", str(cat), "--out", str(two)]) == 0
        a, b = (list(csv.reader(p.read_text().splitlines())) for p in (one, two))
        assert a[0] == b[0] == ["group", "S", "n", "min_boundary", "bound", "ratio", "witness", "wall_ms"]
        assert [r[:-1] for r in a] == [r[:-1] for r in b]
        assert a[1][5] == a[-1][5] == "inf"  # the bound is 0 at n = 0 and n = |G|

    def test_missing_catalog_is_config_error(self, capsys, tmp_path):
        assert run(capsys, "verify-catalog", "--catalog", str(tmp_path / "nope.json"))[0] == 2

    def test_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify-catalog", "--format", "json"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("entry, message", [
        ({"name": "x", "group": 4, "s": "(1)"}, "'group' must be a string, got 4"),
        ({"name": "x", "group": "Z4", "s": 1}, "'s' must be a string, got 1"),
        ({"name": 7, "group": "Z4", "s": "(1)"}, "'name' must be a string, got 7"),
        ({"name": "x", "digraph": {"n": "6", "arcs": [[0, 1]]}}, "'n' must be a positive int, got '6'"),
        ({"name": "x", "digraph": {"n": -1, "arcs": [[0, 1]]}}, "'n' must be a positive int, got -1"),
        ({"name": "x", "digraph": {"n": 0, "arcs": []}}, "'n' must be a positive int, got 0"),
        ({"name": "x", "digraph": {"n": 6, "arcs": 5}}, "'arcs' must be a list of [int, int] pairs, got 5"),
        ({"name": "x", "digraph": {"n": 6, "arcs": [[0, "1"]]}}, "'arcs' must be a list of [int, int] pairs"),
        ({"name": "x", "m": "2", "digraph": {"n": 6, "arcs": [[0, 1]]}}, "'m' must be a positive int, got '2'"),
        ({"name": "x", "m": 0, "digraph": {"n": 6, "arcs": [[0, 1]]}}, "'m' must be a positive int, got 0"),
        ({"name": "x", "m": True, "group": "Z4", "s": "(1)"}, "'m' must be a positive int, got True"),
    ], ids=["group-int", "s-int", "name-int", "n-string", "n-negative", "n-zero", "arcs-int", "arc-string", "m-string", "m-zero", "m-bool"])
    def test_value_of_wrong_type_exits_two(self, capsys, tmp_path, entry, message):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "Z4", "group": "Z4", "s": "(1)"}, entry]}))
        assert main(["verify-catalog", "--catalog", str(cat), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: catalog entry 1: {message}"), err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"name": "x", "group": "Zq", "s": "(1)"}, "cannot parse group token 'Zq' in 'Zq'"),
        ({"name": "x", "group": "Z4xZ2", "s": "(1)"}, "element (1,) has 1 coordinate(s), Z4xZ2 has rank 2"),
        ({"name": "x", "group": "Z4", "s": "(1),(x)"}, "cannot parse connection-set field 'x' in '(1),(x)'"),
        ({"name": "bad", "digraph": {"n": 3, "arcs": [[0, 5]]}}, "arc (0,5) out of range for 3 vertices"),
        ({"name": "low-m", "group": "Z4", "s": "(1)", "m": 2}, "m=2 is smaller than the maximal element order 4 of S"),
        ({"name": "past-cap", "group": "Z33", "s": "(1)"}, "order 33 exceeds exhaustive-search cap 32"),
    ], ids=["group-token", "s-rank", "s-field", "arc-range", "low-m", "past-cap"])
    def test_unparsable_entry_names_its_index(self, capsys, tmp_path, entry, message):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "Z4", "group": "Z4", "s": "(1)"}, entry]}))
        assert main(["verify-catalog", "--catalog", str(cat), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == f"error: catalog entry 1: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_repeated_warning_prints_each_time(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        entry = {"name": "Z8", "group": "Z8", "s": "(2)"}
        cat.write_text(json.dumps({"entries": [entry, entry]}))
        main(["verify-catalog", "--catalog", str(cat)])
        assert capsys.readouterr().err == "warning: S=(2) does not generate Z8; bound hypothesis unmet\n" * 2

    def test_huge_digraph_is_config_error(self, capsys, tmp_path):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "x", "digraph": {"n": 10**12, "arcs": [[0, 1], [1, 0]]}}]}))
        assert main(["verify-catalog", "--catalog", str(cat)]) == 2
        assert capsys.readouterr().err == f"error: catalog entry 0: order {10**12} exceeds exhaustive-search cap 32\n"

    def test_bound_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps({"entries": [{"name": "Z4", "group": "Z4", "s": "(1)"}]}))
        monkeypatch.setattr(isoperimetry, "_bound", lambda order, m, n, mb: (order + 1.0, mb < order + 1.0))
        code = main(["verify-catalog", "--catalog", str(cat)])
        assert code == 1
        assert "error: bound violated on Z4" in capsys.readouterr().err

    def test_runs_from_a_zip_import(self, tmp_path):
        package = Path(relconv.__file__).parent
        archive = tmp_path / "relconv.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in package.rglob("*"):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(package.parent).as_posix())
        program = (
            f"import sys; sys.path.insert(0, {str(archive)!r}); import relconv.cli; "
            f"assert relconv.cli.__file__.startswith({str(archive)!r}); "
            "sys.exit(relconv.cli.main(['verify-catalog']))"
        )
        proc = subprocess.run([sys.executable, "-c", program], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("48 catalog entries")


class TestCounterexample:
    def test_prints_strict_inequality(self, capsys):
        code, out = run(capsys, "counterexample-s3")
        assert code == 0
        assert out.strip() == "2 < 2.449489742783178"


class TestRepeatedCalls:
    """main builds its parser once per process; calls share nothing else."""

    def test_report_and_seed_do_not_carry_over(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["check-class", "--fn", "builtin:parabola", "--class", "F", "--n", "8"]
        report = tmp_path / "r.json"
        assert main([*argv, "--report", "r.json", "--seed", "17"]) == 0
        assert json.loads(report.read_text())["config"]["seed"] == 17
        report.unlink()
        assert main(argv) == 0
        assert not report.exists()
        assert main([*argv, "--out", "o.json"]) == 0
        assert json.loads((tmp_path / "o.json").read_text())["config"]["seed"] == 0

    def test_usage_error_leaves_the_next_call_intact(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eval-f"])
        assert ei.value.code == 2
        assert "the following arguments are required: --x" in capsys.readouterr().err
        assert run(capsys, "eval-f", "--x", "1/6") == (0, "F(1/6) = 0.816496580927726  (k = 2)\n")

    @pytest.mark.parametrize("argv", [["--help"], ["check-class", "--help"]], ids=["top", "check-class"])
    def test_help_matches_a_fresh_process(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(relconv.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-m", "relconv", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stdout.startswith("usage: relconv"), proc.stderr
        for _ in range(2):
            with pytest.raises(SystemExit) as ei:
                main(argv)
            assert ei.value.code == 0
            assert capsys.readouterr().out == proc.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["eval-f"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv, catalog, message", [
    (["profile", "--group", "Z4", "--s", "(1)", "--out", "{tmp}/missing/p.json"], None, "No such file or directory"),
    (["estimate-sup", "--p", "1", "--n", "8", "--csv", "{tmp}/missing/s.csv"], None, "No such file or directory"),
    (["check-class", "--fn", "builtin:tent:1/0,1", "--class", "F", "--n", "8"], None,
     "tent x0 must be p/q with q > 0 or a decimal, got '1/0'"),
    (["verify-catalog", "--catalog", "{tmp}/cat.json", "--out", "{tmp}/c.csv"], {"entries": []},
     "catalog has no entries"),
    (["verify-catalog", "--catalog", "{tmp}/cat.json"], {"entries": [{"group": "Z4", "s": "(1)"}]},
     "catalog entry 0 lacks key 'name'"),
    (["check-class", "--fn", "{tmp}/exact.csv", "--class", "F"], None, "grid value at index 1 is not finite"),
    (["check-class", "--fn", "{tmp}/mixed.csv", "--class", "F0"], None, "grid value at index 1 is not finite"),
    (["check-class", "--fn", "builtin:tent:1/2,1e400", "--class", "strong", "--n", "4"], None,
     "grid value at index 1 is not finite"),
    (["verify-catalog", "--catalog", "{tmp}/cat.json"], {"entries": [{"name": "x", "group": "Z4", "s": "(1),garbage"}]},
     "catalog entry 0: cannot parse connection set '(1),garbage'"),
    (["verify-catalog", "--catalog", "{tmp}/cat.json"], {"entries": [1]}, "catalog entry 0 is not an object"),
    (["verify-catalog", "--catalog", "{tmp}/cat.json"], {"entries": [{"name": "x"}]},
     "catalog entry 0 ('x') has neither group nor digraph"),
    (["check-class", "--fn", "builtin:tent:0,1", "--class", "F", "--n", "8"], None,
     "apex abscissa must lie in (0, 1), got 0"),
    (["check-class", "--fn", "{tmp}/empty.csv", "--class", "F"], None, "unexpected CSV header [], want i,x,value"),
], ids=["unwritable-out", "unwritable-csv", "zero-denominator", "empty-catalog", "nameless-entry",
        "exact-csv-past-float-range", "mixed-csv-past-float-range", "tent-past-float-range",
        "s-outside-tuples", "entry-not-object", "entry-of-no-kind", "tent-apex-at-endpoint", "empty-csv"])
def test_bad_input_or_path_exits_two_with_one_error_line(capsys, tmp_path, argv, catalog, message):
    if catalog is not None:
        (tmp_path / "cat.json").write_text(json.dumps(catalog))
    # one value past the float range, among exact values or among floats
    big = f"1,1/2,{10**400}/1\n"
    (tmp_path / "exact.csv").write_text("i,x,value\n0,0/2,0/1\n" + big + "2,2/2,0/1\n")
    (tmp_path / "mixed.csv").write_text("i,x,value\n0,0/2,0.0\n" + big + "2,2/2,0.0\n")
    (tmp_path / "empty.csv").write_text("")
    code = main([a.format(tmp=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


@pytest.mark.parametrize("argv, message", [
    (["eval-f", "--x", "1/0"], "--x must be p/q with q > 0 or a decimal, got '1/0'"),
    (["eval-f", "--x", "one"], "--x must be p/q with q > 0 or a decimal, got 'one'"),
    (["eval-f", "--x", "1e400"], "--x must lie in [0, 1], got '1e400'"),
    (["eval-f", "--x=-1/3"], "--x must lie in [0, 1], got '-1/3'"),
    (["check-class", "--fn", "builtin:tent:1e400,1", "--class", "F", "--n", "8"],
     "tent x0 must lie in [0, 1], got '1e400'"),
    (["check-class", "--fn", "builtin:tent:1/2,1/0", "--class", "F", "--n", "8"],
     "tent h0 must be p/q with q > 0 or a decimal, got '1/0'"),
], ids=["x-zero-denominator", "x-no-number", "x-past-float-range", "x-negative", "tent-x0-past-float-range",
        "tent-h0-zero-denominator"])
def test_exact_arguments_are_quoted_as_typed(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["estimate-sup", "--p", "1", "--n", "64"],
    ["check-class", "--fn", "builtin:parabola", "--class", "F", "--n", "64"],
], ids=["estimate-sup", "check-class"])
@pytest.mark.parametrize("message", [
    "Unable to allocate 728. TiB for an array with shape (9999999, 9999999) and data type float64", "",
], ids=["numpy", "bare"])
def test_allocation_failure_exits_two_with_one_error_line(capsys, monkeypatch, argv, message):
    # the triple tables are allocated through np.empty; no memory is asked for
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np, "empty", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
