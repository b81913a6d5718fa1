import math
from fractions import Fraction

import numpy as np
import pytest

from relconv import extremal
from relconv.extremal import (
    ConvergenceError,
    branch_point,
    default_branch_cap,
    estimate_sup,
    majorant,
    majorant_grid,
    majorant_values,
    parabola,
    parabola_grid,
    rescale_majorant,
)
from relconv.convexity import check_almost_convex
from relconv.grid import _triple_rows


def brute_majorant(x: float, kmax: int = 200) -> float:
    """Independent oracle: full minimum over the first kmax branches."""
    nx = min(x, 1.0 - x)
    if nx == 0.0:
        return 0.0
    return min(k * nx ** (1.0 - 1.0 / k) for k in range(1, kmax + 1))


class TestBranchPoints:
    def test_first_values(self):
        assert branch_point(0) == Fraction(1, 2)
        assert branch_point(1) == Fraction(1, 4)
        assert branch_point(2) == Fraction(64, 729)

    def test_strictly_decreasing_exact(self):
        for k in range(0, 33):
            assert branch_point(k + 1) < branch_point(k)

    def test_power_identity_exact(self):
        # the (k(k+1))-th root of the branch point is exactly k/(k+1)
        for k in range(1, 33):
            assert Fraction(k, k + 1) ** (k * (k + 1)) == branch_point(k)

    def test_adjacent_branches_agree_at_branch_point(self):
        for k in range(1, 33):
            b = float(branch_point(k))
            left = k * b ** (1.0 - 1.0 / k)
            right = (k + 1) * b ** (1.0 - 1.0 / (k + 1))
            assert abs(left - right) < 1e-12

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            branch_point(-1)

    def test_default_cap(self):
        cap = default_branch_cap()
        assert cap == 44
        assert branch_point(cap) < Fraction(1, 2**64) <= branch_point(cap - 1)


class TestMajorant:
    def test_sixths(self):
        mv = majorant(Fraction(1, 6))
        assert abs(mv.value - math.sqrt(2.0 / 3.0)) < 1e-12
        assert mv.branch == 2
        for n in (2, 3, 4):
            got = majorant(Fraction(n, 6))
            assert abs(got.value - 1.0) < 1e-12
            assert got.branch == 1

    def test_endpoints(self):
        assert majorant(0).value == 0.0
        assert majorant(0).branch == 2
        assert majorant(1).value == 0.0

    def test_third_branch_value(self):
        mv = majorant(0.04)
        assert mv.branch == 3
        assert abs(mv.value - 3 * 0.04 ** (2.0 / 3.0)) < 1e-12
        assert abs(mv.value - brute_majorant(0.04)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            majorant(-0.1)
        with pytest.raises(ValueError):
            majorant(Fraction(7, 6))

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for x in rng.random(1000):
            assert abs(majorant(x).value - majorant(1.0 - x).value) < 1e-12

    def test_value_over_x_is_nonincreasing(self):
        rng = np.random.default_rng(8)
        zs = np.sort(rng.uniform(1e-6, 0.5, size=500))
        vals = majorant_values(zs) / zs
        assert np.all(np.diff(vals) <= 1e-12)

    def test_never_exceeds_one(self):
        xs = np.linspace(0, 1, 2001)
        assert np.all(majorant_values(xs) <= 1.0 + 1e-15)

    def test_branch_sandwiched_by_branch_points(self):
        rng = np.random.default_rng(9)
        for x in rng.uniform(1e-12, 1.0, size=300):
            mv = majorant(x)
            d = Fraction(min(x, 1.0 - x))
            assert branch_point(mv.branch) <= d <= branch_point(mv.branch - 1)

    def test_matches_bruteforce_on_grid(self):
        xs = np.linspace(0, 1, 1001)
        vec = majorant_values(xs)
        for x, v in zip(xs, vec):
            assert abs(v - brute_majorant(float(x))) < 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(10)
        xs = rng.random(200)
        vec = majorant_values(xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(majorant(float(x)).value, abs=1e-15)


class TestParabola:
    def test_values(self):
        assert parabola(0.5) == 1.0
        assert parabola(0) == 0
        assert parabola(Fraction(1, 4)) == Fraction(3, 4)

    def test_exactness_preserved(self):
        assert isinstance(parabola(Fraction(1, 3)), Fraction)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            parabola(1.2)


class TestRescale:
    def test_identity_interval(self):
        for x in (0.0, 0.3, Fraction(1, 6), 1.0):
            assert rescale_majorant(0, 1, 1, x) == pytest.approx(majorant(x).value, abs=1e-15)

    def test_stretched_interval(self):
        assert rescale_majorant(0, 2, 1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_linear_in_scale(self):
        want = 3 * math.sqrt(2.0 / 3.0)
        assert rescale_majorant(0, 1, 3, Fraction(1, 6)) == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rescale_majorant(1, 0, 1, 0.5)
        with pytest.raises(ValueError):
            rescale_majorant(0, 1, -1, 0.5)
        with pytest.raises(ValueError):
            rescale_majorant(0, 1, 1, 1.5)


def scalar_sup_sweeps(p: float, N: int, tol: float, max_iters: int) -> tuple[np.ndarray, int, list[float]]:
    """Slow oracle for estimate_sup: the Gauss-Seidel sweeps one triple at a time.

    Same start, same spread table and the same expression order per triple,
    rhs = lam*g[a] + (1 - lam)*g[c] + spread[c - a], so every float matches.
    """
    g = [1.0 if p == 1 else max(1.0, 2.0**p)] * (N + 1)
    g[0] = g[N] = 0.0
    spread = [float(s) for s in (np.arange(N + 1) / N) ** p]
    decreases: list[float] = []
    while len(decreases) < max_iters:
        max_dec = 0.0
        for b in range(1, N):
            m = math.inf
            for a in range(b):
                for c in range(b + 1, N + 1):
                    lam = (c - b) / (c - a)
                    m = min(m, lam * g[a] + (1.0 - lam) * g[c] + spread[c - a])
            if m < g[b]:
                max_dec = max(max_dec, g[b] - m)
                g[b] = m
        decreases.append(max_dec)
        if max_dec < tol:
            break
    return np.array(g), len(decreases), decreases


def full_row_sweeps(p: float, N: int, tol: float) -> tuple[list[np.ndarray], list[float]]:
    """Oracle for the dirty-range sweeps: every sweep reads every (a, c) entry.

    Each row's matrix is built afresh from index arrays, with the kernel's
    expression order, rhs = lam*g[a] + (1 - lam)*g[c] + spread[c - a], so
    every float matches.  Returns the iterate after each sweep and the
    per-sweep largest decreases.
    """
    g = np.full(N + 1, 1.0 if p == 1 else max(1.0, 2.0**p))
    g[0] = g[N] = 0.0
    spread = (np.arange(N + 1) / N) ** p
    iterates: list[np.ndarray] = []
    decreases: list[float] = []
    while not decreases or decreases[-1] >= tol:
        max_dec = 0.0
        for b in range(1, N):
            a = np.arange(b)[:, None]
            c = np.arange(b + 1, N + 1)[None, :]
            lam = (c - b) / (c - a)
            m = (lam * g[:b, None] + (1.0 - lam) * g[None, b + 1:] + spread[c - a]).min()
            if m < g[b]:
                max_dec = max(max_dec, g[b] - m)
                g[b] = m
        iterates.append(g.copy())
        decreases.append(float(max_dec))
    return iterates, decreases


class TestDirtySweeps:
    @pytest.mark.parametrize("p", [1, 1.5, 2])
    @pytest.mark.parametrize("N", [48, 97, 160, 255])
    def test_match_full_row_sweeps_bit_for_bit(self, N, p):
        iterates, decreases = full_row_sweeps(p, N, 1e-9)
        assert len(iterates) > 3
        for max_iters in (2, 3, 1000):
            stats: dict = {}
            try:
                g = estimate_sup(p, N, max_iters=max_iters, stats=stats)
            except ConvergenceError as exc:
                g = exc.last
            k = min(max_iters, len(iterates))
            assert g.floats().tobytes() == iterates[k - 1].tobytes()
            assert (stats["iterations"], stats["decreases"]) == (k, decreases[:k])

    @pytest.mark.parametrize("N", [9, 40, 131])
    def test_row_prefix_equals_whole_row_prefix(self, N):
        # Rows are visited in random order and first called with a random
        # prefix, so views are built out of order and by either form of call.
        rng = np.random.default_rng(N)
        v = np.empty(N + 1)
        spread = (np.arange(N + 1) / N) ** 1.5
        row = _triple_rows(N, lambda den, lam: spread[den], v)
        for b in rng.permutation(np.arange(1, N)).tolist():
            v[:] = rng.random(N + 1)
            counts = rng.permutation(np.arange(1, b + 1)).tolist()
            first = row(b, counts[0]).copy()
            whole = row(b).copy()
            assert whole.shape == (b, N - b)
            assert first.tobytes() == whole[: counts[0]].tobytes()
            for rows in counts[1:]:
                assert row(b, rows).tobytes() == whole[:rows].tobytes()

    @pytest.mark.parametrize("p, N", [(1, 64), (1.5, 97)])
    def test_blocks_cover_every_changed_input(self, monkeypatch, p, N):
        # Each sweep visits every row once: it reads the whole row, reads a
        # prefix of rows a < rows, or skips it.  The rows read must hold every
        # value of g that changed since the row was last read (g[b] itself is
        # no input of row b), and a skipped row must have no changed input.
        calls = []

        def spy(N, defect, v):
            row = _triple_rows(N, defect, v)

            def row_spy(b, rows=None):
                calls.append((b, v.copy(), rows))
                return row(b, rows)

            return row_spy

        monkeypatch.setattr(extremal, "_triple_rows", spy)
        stats: dict = {}
        final = estimate_sup(p, N, stats=stats).floats()
        # A sweep reads row 1 whole when its predecessor wrote past g[1], and
        # else reads nothing, writes nothing and is the last: so each sweep
        # but perhaps the last starts with row 1.
        sweeps: list[dict] = []
        for b, v, rows in calls:
            if b == 1:
                sweeps.append({})
            sweeps[-1][b] = (v, rows)
        assert stats["iterations"] - 1 <= len(sweeps) <= stats["iterations"]
        assert [rows for _, rows in sweeps[0].values()] == [None] * (N - 1)
        sweeps += [{}] * (stats["iterations"] - len(sweeps))

        last_read: dict = {}

        def changed(b, v):
            return [i for i in np.flatnonzero(v != last_read[b]).tolist() if i != b]

        skipped: list[int] = []
        prefixes = skips = 0
        for sweep in sweeps:
            for b in range(1, N):
                if b not in sweep:
                    skipped.append(b)
                    continue
                # a skip writes nothing, so a skipped row saw the v of the next read
                v, rows = sweep[b]
                assert all(changed(s, v) == [] for s in skipped), skipped
                skips += len(skipped)
                skipped = []
                if rows is not None:
                    assert all(i < rows for i in changed(b, v)), (b, rows, changed(b, v))
                    prefixes += 1
                last_read[b] = v
        assert all(changed(s, final) == [] for s in skipped), skipped
        skips += len(skipped)
        assert prefixes and skips

    @pytest.mark.parametrize("p, N", [(1, 128), (1.5, 64), (2, 32)])
    def test_triples_read(self, p, N):
        stats: dict = {}
        estimate_sup(p, N, stats=stats)
        read = stats["triples_read"]
        assert len(read) == stats["iterations"]
        assert read[0] == stats["triples"]
        assert all(type(r) is int and 0 <= r <= stats["triples"] for r in read)
        if p == 1:
            assert sum(read) < stats["iterations"] * stats["triples"] / 2


class TestEstimateSup:
    @pytest.mark.parametrize("p", [1, 1.5, 2])
    @pytest.mark.parametrize("N", [2, 3, 7, 16, 24])
    def test_matches_scalar_oracle_bit_for_bit(self, N, p):
        for tol, max_iters in ((1e-9, 1000), (1e-15, 2)):
            stats: dict = {}
            try:
                g = estimate_sup(p, N, tol=tol, max_iters=max_iters, stats=stats).floats()
            except ConvergenceError as exc:
                g = exc.last.floats()
            want, iterations, decreases = scalar_sup_sweeps(p, N, tol, max_iters)
            assert g.tobytes() == want.tobytes()
            assert (stats["iterations"], stats["decreases"]) == (iterations, decreases)

    def test_sweep_stats(self):
        stats: dict = {}
        estimate_sup(1, 20, stats=stats)
        assert stats["triples"] == math.comb(21, 3)
        assert len(stats["sweep_ms"]) == stats["iterations"]
        assert all(type(t) is float and t >= 0 for t in stats["sweep_ms"])

    def test_three_point_grid(self):
        g = estimate_sup(1, 2, tol=1e-12)
        assert np.allclose(g.floats(), [0.0, 1.0, 0.0], atol=1e-12)

    def test_sixth_grid_keeps_known_feasible_value(self):
        g = estimate_sup(1, 6, tol=1e-9)
        assert g[1] >= math.sqrt(2.0 / 3.0) - 1e-9

    def test_dominates_majorant_on_grid(self):
        g = estimate_sup(1, 64, tol=1e-9)
        f = majorant_grid(64)
        assert np.all(g.floats() - f.floats() >= -1e-9)

    def test_sweeps_are_pointwise_nonincreasing(self):
        last = None
        for iters in (1, 2, 3):
            try:
                g = estimate_sup(1, 32, tol=1e-15, max_iters=iters)
            except ConvergenceError as exc:
                g = exc.last
            if last is not None:
                assert np.all(g.floats() <= last + 1e-15)
            last = g.floats()

    def test_final_iterate_satisfies_constraints(self):
        stats: dict = {}
        g = estimate_sup(1.5, 48, tol=1e-9, stats=stats)
        assert stats["converged"]
        assert g[0] <= 0 and g[48] <= 0
        assert not check_almost_convex(g, 1, 1.5, tol=1e-8)

    def test_decrease_trace(self):
        for max_iters in (2, 1000):
            stats: dict = {}
            try:
                estimate_sup(1.5, 32, tol=1e-9, max_iters=max_iters, stats=stats)
            except ConvergenceError:
                pass
            decreases = stats["decreases"]
            assert len(decreases) == stats["iterations"]
            assert decreases[-1] == stats["last_decrease"]
            assert all(type(d) is float and d >= 1e-9 for d in decreases[:-1])
            assert stats["converged"] == (decreases[-1] < 1e-9) == (max_iters == 1000)

    def test_nonconvergence_reports_last_iterate(self):
        with pytest.raises(ConvergenceError) as ei:
            estimate_sup(1, 64, tol=1e-9, max_iters=1)
        assert ei.value.iterations == 1
        assert len(ei.value.last) == 65
        assert ei.value.last_decrease >= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_sup(0, 8)
        with pytest.raises(ValueError):
            estimate_sup(1, 1)
        with pytest.raises(ValueError):
            estimate_sup(1, 8, tol=0)
        with pytest.raises(ValueError):
            estimate_sup(1, 8, max_iters=0)

    @pytest.mark.parametrize("p", [1024, 1100, math.inf])
    def test_start_bound_must_be_a_finite_float(self, p):
        with pytest.raises(ValueError, match=f"defect exponent p must be < 1024 .*got {p}"):
            estimate_sup(p, 8)

    def test_largest_exponent_below_the_float_range(self):
        g = estimate_sup(1023.5, 8)
        assert np.all(g.floats() >= 0) and g[0] == g[8] == 0.0


def test_parabola_grid_matches_pointwise():
    g = parabola_grid(16)
    ge = parabola_grid(16, exact=True)
    assert ge.is_exact and not g.is_exact
    for i in range(17):
        assert g[i] == pytest.approx(float(ge[i]), abs=1e-15)
