import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relconv import convexity, extremal
from relconv.convexity import (
    SLACK_TOL,
    Violation,
    check_almost_convex,
    check_almost_convex_anchored,
    check_endpoint_reduction,
    check_mean_inequality,
    check_sharpened,
    check_under_parabola,
    make_tent,
    sample_concave,
)
from relconv.extremal import estimate_sup, majorant_grid, majorant_values, parabola_grid
from relconv.grid import GridFunction, _chord, _triple_rows

from conftest import exact_parabola_grid, reference_mean_tuples


def scaled(f: GridFunction, t: float) -> GridFunction:
    return GridFunction(f.N, t * f.floats(), label=f"{t}*{f.label}")


def fraction_scan(f: GridFunction, c: Fraction) -> tuple[list[tuple], float]:
    """Slow oracle for the exact scan: every triple in Fraction arithmetic.

    Returns the sorted (a, b, c, lhs, rhs, slack) violations and the
    largest lhs - rhs as a float, inf of its sign past the float range.
    """
    N = f.N
    vals = f.values
    out = []
    worst = None
    for b in range(1, N):
        lhs = vals[b]
        for a in range(0, b):
            for cc in range(b + 1, N + 1):
                den = cc - a
                lam = Fraction(cc - b, den)
                rhs = lam * vals[a] + (1 - lam) * vals[cc] + c * Fraction(den, N)
                gap = lhs - rhs
                if worst is None or gap > worst:
                    worst = gap
                if gap > 0:
                    out.append((a, b, cc, lhs, rhs, rhs - lhs))
    try:
        return sorted(out), float(worst)
    except OverflowError:
        return sorted(out), math.inf if worst > 0 else -math.inf


def assert_matches_oracle(f: GridFunction, c: Fraction) -> None:
    out = check_almost_convex(f, c)
    assert all(isinstance(x, Fraction) for v in out for x in v[3:])
    assert (out, out.max_slack) == fraction_scan(f, Fraction(c))


def random_rationals(seed: int, n: int, numerators: int, denominator: int) -> list[Fraction]:
    rng = random.Random(seed)
    return [Fraction(rng.randrange(-numerators, numerators + 1), denominator) for _ in range(n)]


def scalar_float_scan(f: GridFunction, tol: float, defect) -> tuple[list[tuple], float]:
    """Slow oracle for the float scans: one triple at a time, same expression
    order, rhs = lam*v[a] + (1 - lam)*v[c] + defect(c - a, lam)."""
    v = f.floats()
    N = f.N
    out = []
    worst = -math.inf
    for b in range(1, N):
        for a in range(b):
            for c in range(b + 1, N + 1):
                lam = (c - b) / (c - a)
                rhs = lam * v[a] + (1.0 - lam) * v[c] + defect(c - a, lam)
                worst = max(worst, v[b] - rhs)
                if v[b] - rhs > tol:
                    out.append((a, b, c, v[b], rhs, rhs - v[b]))
    return sorted(out), worst


def float_rows(out) -> tuple[list[tuple], float]:
    return out, out.max_slack


class TestAlmostConvex:
    @pytest.mark.parametrize("N", [2, 5, 12, 20])
    def test_float_scans_match_scalar_oracle(self, N):
        for f in (scaled(majorant_grid(N), 1.3), scaled(parabola_grid(N), 1.1), sample_concave(N, N)):
            for c, p in ((1, 1), (0.5, 1.5), (2, 2)):
                spread = c * (np.arange(N + 1) / N) ** p
                want = scalar_float_scan(f, SLACK_TOL, lambda den, lam: spread[den])
                assert float_rows(check_almost_convex(f, c, p)) == want
            want = scalar_float_scan(f, SLACK_TOL, lambda den, lam: majorant_values(np.array([lam]))[0] * (den / N))
            assert float_rows(check_sharpened(f)) == want

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.integers(2, 12).flatmap(
            lambda n: st.lists(st.fractions(-3, 3, max_denominator=20), min_size=n + 1, max_size=n + 1)
        ),
        c=st.fractions(-2, 2, max_denominator=6),
    )
    def test_float_scan_agrees_with_exact_scan(self, values, c):
        # every exact gap is at least 1e-6 from zero, far outside tol = 1e-9
        f = GridFunction(len(values) - 1, values)
        exact = check_almost_convex(f, c)
        floaty = check_almost_convex(GridFunction(f.N, f.floats()), float(c))
        all_gaps = [
            values[b] - Fraction(cc - b, cc - a) * values[a] - Fraction(b - a, cc - a) * values[cc] - c * Fraction(cc - a, f.N)
            for b in range(1, f.N) for a in range(b) for cc in range(b + 1, f.N + 1)
        ]
        assume(all(abs(g) > Fraction(1, 10**6) for g in all_gaps))
        assert [(v.a, v.b, v.c) for v in floaty] == [(v.a, v.b, v.c) for v in exact]
        assert floaty.max_slack == pytest.approx(float(exact.max_slack), abs=1e-12)

    def test_majorant_grid_is_member(self):
        assert not check_almost_convex(majorant_grid(256))

    def test_doubled_majorant_violates(self):
        violations = check_almost_convex(scaled(majorant_grid(64), 2.0))
        assert violations
        v = violations[0]
        assert v.slack < 0 and v.a <= v.b <= v.c

    def test_zero_function_is_member_exactly(self):
        f = GridFunction(8, [Fraction(0)] * 9)
        out = check_almost_convex(f)
        assert not out
        assert out.max_slack <= 0.0

    def test_exact_and_float_modes_agree(self):
        f = make_tent(Fraction(1, 4), Fraction(4, 5), 16)
        exact = check_almost_convex(f)
        floaty = check_almost_convex(GridFunction(16, f.floats()))
        assert [(v.a, v.b, v.c) for v in exact] == [(v.a, v.b, v.c) for v in floaty]

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.integers(2, 16).flatmap(
            lambda n: st.lists(st.fractions(-3, 3, max_denominator=60), min_size=n + 1, max_size=n + 1)
        ),
        c=st.fractions(-2, 2, max_denominator=12),
    )
    def test_exact_scan_matches_fraction_oracle(self, values, c):
        assert_matches_oracle(GridFunction(len(values) - 1, values), c)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_scan_past_float64_range_matches_oracle(self, seed):
        # lcm 3**40 > 2**63 would overflow int64; with 2**56 - 5 int64 holds
        # the cross-multiplied gaps but float64 rounds them, so both inputs
        # must take the Python-int fallback to match the oracle
        assert_matches_oracle(GridFunction(12, random_rationals(seed, 13, 3**41, 3**40)), Fraction(1, 3))
        assert_matches_oracle(GridFunction(4, random_rationals(seed, 5, 2**56, 2**56 - 5)), 1)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("top, dtype", [(2**48 - 1, np.int64), (2**48, object)], ids=["int64", "object"])
    def test_exact_scan_switches_to_object_arrays_at_2_53(self, monkeypatch, seed, top, dtype):
        # integer values with max|F| = top and C = 1 at N = 4 put the bound
        # N^2 (2 max|F| + |C|) at 2^53 - 16 and 2^53 + 16
        rng = random.Random(seed)
        values = [top, -top] + [rng.randint(-top, top) for _ in range(3)]
        rng.shuffle(values)
        dtypes = []

        def spy(N, weights, v):
            dtypes.append(v.dtype)
            return _triple_rows(N, weights, v)

        monkeypatch.setattr(convexity, "_triple_rows", spy)
        assert_matches_oracle(GridFunction(4, [Fraction(v) for v in values]), 1)
        assert dtypes == [np.dtype(dtype)]

    @pytest.mark.parametrize("c", [Fraction(10**400, 3), Fraction(-10**400, 3)])
    def test_exact_scale_past_float_range_matches_oracle(self, c):
        # every gap lies past the float range, so max_slack is -inf or inf
        assert_matches_oracle(GridFunction(4, [Fraction(v) for v in (0, 1, Fraction(5, 2), 1, 0)]), c)

    def test_gaps_past_float_range_match_float_twin(self):
        # finite values whose gaps, and some slacks, overflow a float
        values = [0, 17 * 10**307, -17 * 10**307, 17 * 10**307, 0]
        exact = GridFunction(4, [Fraction(v) for v in values])
        assert_matches_oracle(exact, 1)
        out = check_almost_convex_anchored(exact)
        twin = check_almost_convex_anchored(GridFunction(4, [float(v) for v in values]))
        assert [v[:3] for v in out] == [v[:3] for v in twin] and len(out) == 6
        assert out.max_slack == twin.max_slack == math.inf

    def test_violations_are_sorted(self):
        violations = check_almost_convex(scaled(majorant_grid(48), 3.0))
        keys = [(v.a, v.b, v.c) for v in violations]
        assert keys == sorted(keys)
        # records are their tuples: they sort, unpack and compare as (a, b, c, lhs, rhs, slack)
        assert list(violations) == sorted(violations)
        assert all(v == (v.a, v.b, v.c, v.lhs, v.rhs, v.slack) for v in violations)

    @pytest.mark.parametrize("kw, msg", [
        ({"p": math.nan}, "exponent must be positive and finite, got nan"),
        ({"p": math.inf}, "exponent must be positive and finite, got inf"),
        ({"p": 0}, "exponent must be positive and finite, got 0"),
        ({"c": math.nan}, "scale must be finite, got nan"),
        ({"c": -math.inf}, "scale must be finite, got -inf"),
        ({"tol": math.nan}, "tolerance must be finite, got nan"),
        ({"tol": math.inf}, "tolerance must be finite, got inf"),
    ], ids=["p-nan", "p-inf", "p-0", "c-nan", "c-neg-inf", "tol-nan", "tol-inf"])
    def test_non_finite_parameters_rejected(self, kw, msg):
        # a NaN parameter fails every comparison, which would report membership
        f = GridFunction(8, 3 * majorant_grid(8).floats())
        assert len(check_almost_convex(f)) == 58
        with pytest.raises(ValueError, match=msg):
            check_almost_convex(f, **kw)


def row_by_row_scan(vals: np.ndarray, tol: float, defect):
    """Per-row oracle for convexity._float_rows: the kernel's row(b), one
    middle index at a time, yielding each row's (violations, worst)."""
    N = len(vals) - 1
    rhs_row = _triple_rows(N, _chord(defect), vals)
    for b in range(1, N):
        rhs = rhs_row(b)
        lhs = float(vals[b])
        worst = lhs - float(rhs.min())
        row = []
        if worst > tol:
            with np.errstate(over="ignore"):
                ai, ci = np.nonzero(lhs - rhs > tol)
                r = rhs[ai, ci]
                row = list(map(Violation, ai.tolist(), repeat(b), (ci + b + 1).tolist(), repeat(lhs),
                               r.tolist(), (r - lhs).tolist()))
        yield row, worst


def row_bits(rows) -> list:
    """Each row's record types, (a, b, c) and float bits, and its worst's bits."""
    out = []
    for records, worst in rows:
        fields = list(zip(*records)) or [()] * 6
        types = {(type(v), *map(type, v)) for v in records}
        floats = np.array(fields[3:], dtype=float).tobytes()
        out.append((types, fields[:3], floats, "nan" if worst != worst else worst.hex()))
    return out


def assert_rows_match_oracle(vals: np.ndarray, tol: float, defect) -> None:
    with np.errstate(over="ignore"):  # the kernel's own sums overflow on huge inputs
        got = row_bits(convexity._float_rows(vals, tol, defect))
        want = row_bits(row_by_row_scan(vals, tol, defect))
    assert got == want


class TestBlockedFloatRows:
    @pytest.mark.parametrize("N", [48, 128, 160, 255, 384])
    def test_blocked_rows_match_per_row_oracle(self, N):
        # at these N the blocks mix many rows, a few rows and single rows; a
        # smaller or negative defect makes most triples violations, so those
        # run at N = 48 only
        inputs = [sample_concave(N, N, cap=parabola_grid(N)).floats(), 1.05 * majorant_grid(N).floats(),
                  make_tent(Fraction(N // 4, N), Fraction(4, 5), N).floats()]
        cps = ((1, 1), (0.5, 1.5), (-1, 1)) if N == 48 else ((1, 1),)
        for vals in inputs:
            for c, p in cps:
                spread = float(c) * (np.arange(N + 1) / N) ** float(p)
                assert_rows_match_oracle(vals, SLACK_TOL, lambda den, lam: spread[den])
            assert_rows_match_oracle(vals, SLACK_TOL, lambda den, lam: majorant_values(lam) * (den / N))

    def test_huge_values_match_per_row_oracle(self):
        rng = np.random.default_rng(3)
        for N in (32, 48):
            vals = rng.choice([1.7e308, -1.7e308], N + 1)
            spread = np.arange(N + 1) / N
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_rows_match_oracle(vals, SLACK_TOL, lambda den, lam: spread[den])

    def test_nan_row_beside_violating_row(self):
        # rows 1..18 of N = 48 are one block.  Row 5 reads +inf at b and +inf
        # at every triple, where the defect pushes the chord past the float
        # range, so its worst is inf - inf = NaN.  In row 6 the triples with
        # i = b - a = 6 (a = 0) carry no defect and fall below f(6).
        N = 48
        vals = np.full(N + 1, 1e308)
        vals[0], vals[5] = 0.0, np.inf

        def defect(den, lam):
            return np.where(np.rint(den * (1.0 - lam)) == 6, 0.0, 1.79e308)

        with np.errstate(over="ignore"):
            rows = list(convexity._float_rows(vals, SLACK_TOL, defect))
        assert math.isnan(rows[4][1]) and rows[4][0] == []
        assert rows[5][1] > SLACK_TOL and [v.a for v in rows[5][0]] == [0] * (N - 6)
        assert_rows_match_oracle(vals, SLACK_TOL, defect)

    def test_signed_zero_worst_matches_per_row_oracle(self):
        # with c = -0.0 every rhs is a signed zero, and f[b] = -0.0 minus a
        # row minimum of either sign is -0.0 or 0.0
        rng = np.random.default_rng(0)
        N = 48
        vals = rng.choice([0.0, -0.0], N + 1)
        spread = -0.0 * (np.arange(N + 1) / N)
        assert_rows_match_oracle(vals, SLACK_TOL, lambda den, lam: spread[den])
        out = check_almost_convex(GridFunction(N, vals), -0.0)
        assert not out and out.max_slack == 0.0

    def test_endpoint_verdicts_match_per_row_oracle(self):
        N = 48
        spread = np.arange(N + 1) / N

        def oracle(f):
            full_ok = True
            for row, _ in row_by_row_scan(f.floats(), SLACK_TOL, lambda den, lam: spread[den]):
                if any(v.a == 0 or v.c == N for v in row):
                    return False, False
                full_ok = full_ok and not row
            return True, full_ok

        caps = [None, parabola_grid(N), majorant_grid(N)]
        verdicts = []
        for seed in range(1000):  # the samples of test_endpoint_check_is_decisive_for_concave_functions
            g = scaled(sample_concave(N, seed, cap=caps[seed % 3]), (0.5, 1.0, 2.0, 4.0)[seed % 4])
            verdicts.append(check_endpoint_reduction(g))
            assert verdicts[-1] == oracle(g)
        assert set(verdicts) == {(True, True), (False, False)}

    def test_sup_and_exact_scan_read_rows_only(self, monkeypatch):
        blocks = []

        def spy(N, weights, v):
            row = _triple_rows(N, weights, v)
            block = row.block
            row.block = lambda b0, b1: blocks.append((b0, b1)) or block(b0, b1)
            return row

        monkeypatch.setattr(convexity, "_triple_rows", spy)
        monkeypatch.setattr(extremal, "_triple_rows", spy)
        estimate_sup(1.5, 48)
        assert check_almost_convex(make_tent(Fraction(1, 4), Fraction(4, 5), 48))
        assert blocks == []
        check_almost_convex(majorant_grid(48))  # the float scan does read blocks
        assert blocks


class TestAnchored:
    def test_majorant_grid_is_member(self):
        assert not check_almost_convex_anchored(majorant_grid(128))

    def test_constant_fails_only_at_endpoints(self):
        f = GridFunction(16, np.full(17, 0.5))
        violations = check_almost_convex_anchored(f)
        assert [(v.a, v.b, v.c) for v in violations] == [(0, 0, 0), (16, 16, 16)]

    def test_tall_tent_fails(self):
        assert check_almost_convex_anchored(make_tent(Fraction(1, 4), Fraction(4, 5), 64))

    def test_endpoint_records_bracket_the_sorted_scan(self):
        # raised by 1/10, the tall tent fails at both endpoints as well as at
        # the interior triples of rows b = 3, 4 and 5, which interleave by a
        tent = make_tent(Fraction(1, 2), Fraction(3, 2), 8)
        exact = GridFunction(8, [v + Fraction(1, 10) for v in tent.values])
        expected = [(0, 0, 0), (0, 3, 7), (0, 3, 8), (0, 4, 6), (0, 4, 7), (0, 4, 8), (0, 5, 8),
                    (1, 4, 5), (1, 4, 6), (1, 4, 7), (1, 4, 8), (1, 5, 8), (2, 4, 5), (2, 4, 6),
                    (2, 4, 7), (2, 4, 8), (3, 4, 5), (3, 4, 6), (3, 4, 7), (8, 8, 8)]
        for f in (exact, GridFunction(8, exact.floats())):
            violations = check_almost_convex_anchored(f)
            assert [(v.a, v.b, v.c) for v in violations] == expected
            assert violations[0].lhs == violations[-1].lhs == f[0]


# the values of test_cli.HUGE_CSV: every pair sum overflows
HUGE_VALUES = [-1.7e308, 1.7e308, -1.7e308]


def pair_loop_scan(f: GridFunction) -> tuple[list[tuple], str]:
    """Oracle for the m = 2 mean scan: one vectorized pass per half-distance
    d over the pairs (i, i + 2d).  Returns the sorted (xs, lhs.hex(),
    rhs.hex()) records and max_slack.hex()."""
    N = f.N
    vals = f.floats()
    out = []
    worst = -math.inf
    with np.errstate(over="ignore"):
        for d in range(1, N // 2 + 1):
            i = np.arange(0, N - 2 * d + 1)
            lhs = vals[i + d]
            gap = lhs - (0.5 * (vals[i] + vals[i + 2 * d]) + (2 * d) / N)
            worst = max(worst, float(gap.max()))
            for j in np.flatnonzero(gap > SLACK_TOL):
                out.append(((int(i[j]), int(i[j]) + 2 * d), float(lhs[j]).hex(), float(lhs[j] - gap[j]).hex()))
    return sorted(out), worst.hex()


def scaled_random_grids(N: int) -> list[GridFunction]:
    """Seeded finite grid functions at magnitudes from subnormal to near the float maximum, and signed zeros."""
    rng = np.random.default_rng(N)
    grids = [GridFunction(N, scale * rng.uniform(-1, 1, N + 1))
             for scale in (1e-310, 1e-300, 1e-3, 1.0, 1e3, 1e300, 1.7e308) for _ in range(2)]
    bumped = majorant_grid(N).floats() + rng.uniform(0, 0.3, N + 1)
    zeros = rng.choice([0.0, -0.0], N + 1)
    return grids + [GridFunction(N, bumped), GridFunction(2, HUGE_VALUES), GridFunction(N, zeros)]


def pairwise_sum(terms: list) -> float:
    """The sum as numpy's row sum adds it: fewer than 8 values in order; up
    to 128, eight running sums over the whole blocks of 8, joined as a
    balanced tree, then the rest in order; past 128, the two halves (the
    first a multiple of 8 long) summed so and added.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
    if n < 8:
        total, rest = terms[0], terms[1:]
    else:
        sums = terms[:8]
        for i in range(8, n - n % 8, 8):
            sums = [s + t for s, t in zip(sums, terms[i : i + 8])]
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
        rest = terms[n - n % 8 :]
    for t in rest:
        total += t
    return total


def scalar_mean_sides(v: list, xs, m: int, N: int) -> tuple[float, float]:
    """(lhs, rhs) of the m-point mean inequality at the index tuple xs, one float at a time."""
    total = pairwise_sum([v[x] for x in xs])
    return v[sum(xs) // m], total / m + (xs[-1] - xs[0]) / N


class TestMeanInequality:
    @pytest.mark.parametrize("N", [2, 3, 17, 64, 255])
    def test_pairs_match_per_distance_oracle(self, N):
        for f in scaled_random_grids(N):
            out = check_mean_inequality(f, 2)
            records = [(v.xs, v.lhs.hex(), v.rhs.hex()) for v in out]
            assert (records, out.max_slack.hex()) == pair_loop_scan(f)

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("N", [2, 3, 17, 64, 255])
    def test_sampled_records_match_scalar_recomputation(self, N, m):
        for seed, f in enumerate(scaled_random_grids(N)):
            v = f.floats().tolist()
            for rec in check_mean_inequality(f, m, samples=2000, seed=seed):
                lhs, rhs = scalar_mean_sides(v, rec.xs, m, f.N)
                assert (rec.lhs.hex(), rec.rhs.hex()) == (lhs.hex(), rhs.hex()), rec
                assert rec == (rec.xs, lhs, rhs)

    @pytest.mark.parametrize("m", [3, 5, 8, 12])
    @pytest.mark.parametrize("N, samples", [(8, 1), (16, 2), (64, 50), (240, 2000)])
    def test_sampled_tuples_match_batchwise_truncation(self, N, m, samples):
        # the records and max_slack of the oracle's tuples, recomputed one tuple at a time
        f = majorant_grid(N).floats() + np.random.default_rng(N).uniform(0, 0.5, N + 1)
        v = f.tolist()
        for seed in range(3):
            out = check_mean_inequality(GridFunction(N, f), m, samples=samples, seed=seed)
            records, worst = [], -math.inf
            for xs in reference_mean_tuples(N, m, samples, seed).tolist():
                lhs, rhs = scalar_mean_sides(v, xs, m, N)
                worst = max(worst, lhs - rhs)
                if lhs - rhs > SLACK_TOL:
                    records.append((tuple(xs), lhs, rhs))
            assert (list(out), out.max_slack) == (sorted(records), worst), seed

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_blocks_that_keep_no_tuple(self, seed):
        # about 1 in 1000 rows has a sum divisible by m = 1000, so most
        # 65-row blocks keep no tuple
        N, m, samples = 16, 1000, 3
        f = majorant_grid(N).floats() + np.random.default_rng(N).uniform(0, 0.5, N + 1)
        v = f.tolist()
        out = check_mean_inequality(GridFunction(N, f), m, samples=samples, seed=seed)
        records, worst = [], -math.inf
        for xs in reference_mean_tuples(N, m, samples, seed).tolist():
            lhs, rhs = scalar_mean_sides(v, xs, m, N)
            worst = max(worst, lhs - rhs)
            if lhs - rhs > SLACK_TOL:
                records.append((tuple(xs), lhs, rhs))
        assert (list(out), out.max_slack) == (sorted(records), worst)

    @pytest.mark.parametrize("m, samples", [(5, 100_000), (5, 400_000), (12, 20_000), (20, 5_000)])
    def test_sampler_memory_does_not_grow_with_samples(self, m, samples):
        # The peak is one block of about 2**16 values plus the violations,
        # and the majorant has none; the kept tuples alone would take
        # samples*m int64 values, 3.8 MiB and 15.3 MiB for Fm:5.
        f = majorant_grid(240)
        tracemalloc.start()
        try:
            check_mean_inequality(f, m, samples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20

    def test_majorant_passes_exhaustive_pairs(self):
        assert not check_mean_inequality(majorant_grid(128), 2)

    def test_bumped_midpoint_fails_pairs(self):
        f = majorant_grid(64).floats().copy()
        f[32] += 0.5
        violations = check_mean_inequality(GridFunction(64, f), 2)
        assert violations
        assert all(lo <= 32 <= hi for lo, hi in (v.xs for v in violations))

    def test_majorant_passes_sampled_tuples(self):
        assert not check_mean_inequality(majorant_grid(240), 5, samples=20_000, seed=1)

    def test_sampling_is_seed_reproducible(self):
        f = majorant_grid(48).floats().copy()
        f[24] += 0.4
        g = GridFunction(48, f)
        a = check_mean_inequality(g, 3, samples=5_000, seed=42)
        b = check_mean_inequality(g, 3, samples=5_000, seed=42)
        assert a == b and a

    def test_m_validation(self):
        with pytest.raises(ValueError):
            check_mean_inequality(majorant_grid(16), 1)

    @pytest.mark.parametrize("m", [2, 3, 8, 9, 12])
    def test_huge_values_overflow_quietly(self, m):
        f = GridFunction(2, HUGE_VALUES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = check_mean_inequality(f, m, samples=50)
        assert violations
        if m < 8:
            assert violations.max_slack == math.inf
        else:  # numpy's pairwise row sum adds +inf to -inf, and NaN stays the maximum
            assert math.isnan(violations.max_slack)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_tuples_need_samples(self, samples):
        with pytest.raises(ValueError, match=f"samples >= 1 for m >= 3, got {samples}"):
            check_mean_inequality(majorant_grid(8), 3, samples=samples)


class TestSharpened:
    def test_majorant_grid_passes(self):
        assert not check_sharpened(majorant_grid(128))

    def test_convex_functions_pass(self):
        x = np.arange(65) / 64
        assert not check_sharpened(GridFunction(64, x**2))
        assert not check_sharpened(GridFunction(64, np.abs(2 * x - 1) - 1.0))

    def test_full_spread_triples_are_tight(self):
        N = 128
        f = majorant_grid(N).floats()
        b = np.arange(1, N)
        rhs = majorant_values((N - b) / N)
        assert np.max(np.abs(rhs - f[1:N])) < 1e-9

    def test_scaled_majorant_fails(self):
        assert check_sharpened(scaled(majorant_grid(64), 2.0))


class TestTent:
    def test_symmetric_tent_values(self):
        t = make_tent(Fraction(1, 2), 1, 4)
        assert t.values == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(0)]

    def test_apex_touching_parabola_is_member(self):
        t = make_tent(Fraction(1, 4), Fraction(3, 4), 8)
        assert t[2] == Fraction(3, 4)
        assert not check_almost_convex_anchored(t)

    def test_apex_above_parabola_fails_at_doubling_triple(self):
        t = make_tent(Fraction(1, 4), Fraction(19, 25), 8)
        triples = {(v.a, v.b, v.c) for v in check_almost_convex_anchored(t)}
        assert (0, 2, 4) in triples

    @pytest.mark.parametrize("x0", [0, 1])
    def test_apex_at_an_endpoint_rejected(self, x0):
        with pytest.raises(ValueError, match=rf"^apex abscissa must lie in \(0, 1\), got {x0}$"):
            make_tent(x0, 1, 8)

    def test_offgrid_apex_rejected(self):
        with pytest.raises(ValueError):
            make_tent(Fraction(1, 3), 1, 8)
        with pytest.raises(ValueError):
            make_tent(Fraction(1, 4), -1, 8)


class TestUnderParabola:
    def test_parabola_itself_passes_and_is_member(self):
        g = exact_parabola_grid(32)
        assert check_under_parabola(g)
        assert not check_almost_convex_anchored(g)

    def test_scaled_sine_passes_and_is_member(self):
        N = 64
        f = GridFunction(N, (2.0 / math.pi) * np.sin(np.pi * np.arange(N + 1) / N))
        assert check_under_parabola(f)
        assert not check_almost_convex_anchored(f)

    def test_tall_tent_fails(self):
        assert not check_under_parabola(make_tent(Fraction(1, 4), Fraction(19, 25), 16))

    def test_preconditions(self):
        x = np.arange(17) / 16
        with pytest.raises(ValueError):
            check_under_parabola(GridFunction(16, x**2))  # convex
        with pytest.raises(ValueError):
            check_under_parabola(GridFunction(16, np.full(17, 0.5)))  # endpoints
        with pytest.raises(ValueError, match="^endpoints must be exactly zero$"):
            check_under_parabola(GridFunction(4, [Fraction(1, 2)] * 5))
        # 2 * 0.9e308 overflows; the middle second difference is +1.78e308
        huge = [0.0, 1.79e308, 0.9e308, 1.79e308, 0.0]
        for f in (GridFunction(4, [Fraction(x) for x in huge]), GridFunction(4, huge)):
            with pytest.raises(ValueError, match="not concave"):
                check_under_parabola(f)


class TestEndpointReduction:
    def test_majorant_grid(self):
        assert check_endpoint_reduction(majorant_grid(64)) == (True, True)

    def test_doubled_majorant(self):
        assert check_endpoint_reduction(scaled(majorant_grid(64), 2.0)) == (False, False)

    def test_zero_function(self):
        f = GridFunction(8, [Fraction(0)] * 9)
        assert check_endpoint_reduction(f) == (True, True)

    def test_full_verdict_matches_full_scan(self):
        N = 48
        inputs = [
            scaled(sample_concave(N, seed, cap=cap), t)
            for seed, cap in enumerate([None, parabola_grid(N), majorant_grid(N)] * 3)
            for t in (0.5, 1.0, 2.0, 4.0)
        ]
        # exact inputs take the exact scan: the apex exceeds the parabola by
        # 1e-10, a violation of (2/3)e-10, inside the float tolerance
        inputs += [
            make_tent(Fraction(1, 4), Fraction(3, 4) + Fraction(1, 10**10), 8),
            make_tent(Fraction(1, 4), Fraction(3, 4), 8),
            exact_parabola_grid(16),
        ]
        verdicts = [check_endpoint_reduction(f)[1] for f in inputs]
        assert verdicts == [not check_almost_convex(f) for f in inputs]
        assert verdicts[-3:] == [False, True, True]
        assert True in verdicts and False in verdicts[:-3]

    def test_exact_endpoint_verdict_implies_full_verdict(self):
        # the apex is 1e-10 above the parabola: a violation inside the float
        # tolerance, so a float endpoint scan would pass what the exact full
        # scan rejects
        f = make_tent(Fraction(1, 4), Fraction(3, 4) + Fraction(1, 10**10), 8)
        assert check_endpoint_reduction(f) == (False, False)
        assert check_endpoint_reduction(GridFunction(8, f.floats())) == (True, True)
        # the mirrored tent fails only at (4, 6, 8) and (5, 6, 7): the c = N
        # side alone decides its endpoint verdict
        g = make_tent(Fraction(3, 4), Fraction(3, 4) + Fraction(1, 10**10), 8)
        assert [(v.a, v.b, v.c) for v in check_almost_convex(g)] == [(4, 6, 8), (5, 6, 7)]
        assert check_endpoint_reduction(g) == (False, False)
        # the exact parabola meets the endpoint triple (0, 1/2, 1) with equality
        assert check_endpoint_reduction(exact_parabola_grid(8)) == (True, True)

    def test_concavity_required(self):
        x = np.arange(17) / 16
        with pytest.raises(ValueError):
            check_endpoint_reduction(GridFunction(16, x**2))

    def test_huge_finite_constant_is_concave(self):
        # 2 * -1e308 overflows to -inf; the differences of a constant are 0
        exact = check_endpoint_reduction(GridFunction(2, [Fraction(-1e308)] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_endpoint_reduction(GridFunction(2, [-1e308] * 3)) == exact == (True, True)

    def test_endpoint_check_is_decisive_for_concave_functions(self):
        # mixed caps and scalings, including samples far outside the class
        N = 48
        caps = [None, parabola_grid(N), majorant_grid(N)]
        outcomes = {True: 0, False: 0}
        for seed in range(1000):
            f = sample_concave(N, seed, cap=caps[seed % 3])
            g = scaled(f, (0.5, 1.0, 2.0, 4.0)[seed % 4])
            endpoint_ok, full_ok = check_endpoint_reduction(g)
            assert not endpoint_ok or full_ok
            if not full_ok:
                assert not endpoint_ok
            outcomes[full_ok] += 1
        assert outcomes[True] and outcomes[False]


class TestPerturbationIdentity:
    def test_identity_holds_for_random_cubics(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            a, b, c, d = rng.normal(size=4)
            f = lambda t: a + b * t + c * t * t + d * t**3
            x1, x2, lam, eps = rng.random(4)
            eps = 0.01 + eps
            fe = lambda t: (f(t) - eps * t * t) / (1.0 + eps)
            mid = lam * x1 + (1 - lam) * x2
            delta = f(mid) - lam * f(x1) - (1 - lam) * f(x2) - abs(x2 - x1)
            delta_eps = fe(mid) - lam * fe(x1) - (1 - lam) * fe(x2) - abs(x2 - x1)
            rebuilt = (1 + eps) * delta_eps + eps * abs(x2 - x1) * (1 - lam * (1 - lam) * abs(x2 - x1))
            assert abs(delta - rebuilt) < 1e-10


class TestSampleConcave:
    def test_minimal_grid_shape(self):
        f = sample_concave(2, 5)
        assert f[0] == 0.0 and f[2] == 0.0 and f[1] >= 0.0

    def test_deterministic_per_seed(self):
        a = sample_concave(32, 11).floats()
        b = sample_concave(32, 11).floats()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_concave(32, 12).floats())

    def test_concave_with_zero_endpoints(self):
        for seed in range(20):
            v = sample_concave(64, seed).floats()
            assert v[0] == 0.0 and v[-1] == 0.0
            assert np.all(v[:-2] - 2 * v[1:-1] + v[2:] <= 1e-12)

    def test_cap_is_respected_and_gives_members(self):
        cap = parabola_grid(64)
        for seed in range(50):
            f = sample_concave(64, seed, cap=cap)
            assert np.all(f.floats() <= cap.floats() + 1e-12)
            assert not check_almost_convex_anchored(f)

    def test_capped_samples_stay_below_majorant(self):
        # maximality seen computationally: under-parabola concave samples are
        # class members, so the majorant dominates every one of them
        cap = parabola_grid(128)
        mg = majorant_grid(128).floats()
        for seed in range(1000):
            f = sample_concave(128, seed, cap=cap)
            assert np.all(f.floats() <= mg + 1e-9)

    @pytest.mark.parametrize("N", [1, 0])
    def test_resolution_below_two_rejected(self, N):
        # N = 0 would otherwise take the mean of an empty slope array
        with pytest.raises(ValueError, match=f"^grid resolution must be >= 2, got {N}$"):
            sample_concave(N, 0)

    def test_cap_resolution_mismatch(self):
        with pytest.raises(ValueError):
            sample_concave(16, 0, cap=parabola_grid(32))
