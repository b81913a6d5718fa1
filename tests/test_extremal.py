import math
import warnings
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
    sup_closed_form,
)
from relconv.convexity import check_almost_convex
from relconv.grid import GridFunction, _chord, _triple_rows

from conftest import exact_parabola_grid, exact_sup_p1, reference_branch, reference_majorant


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
        for x in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                majorant_values([x, 0.5])
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                majorant(x)

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

    def test_integer_selector_matches_fraction_oracle_at_branch_points(self):
        # each branch point, and one unit either side over its denominator:
        # ties and the point just above keep branch k, the point just below
        # takes a higher one; 0/4 (k = 1) and 0/1 are E(0), on branch 2
        cap = default_branch_cap()
        for k in range(1, cap + 1):
            b = branch_point(k)
            for step in (-1, 0, 1):
                num = b.numerator + step
                got = extremal._majorant_at(num, b.denominator)
                assert got == reference_majorant(Fraction(num, b.denominator)), (k, step)
                assert got[1] > k if step < 0 and k < cap else got[1] == k, (k, step)
        assert extremal._majorant_at(0, 1) == reference_majorant(0) == (0.0, 2)

    def test_matches_fraction_oracle_bit_for_bit(self):
        xs: list = [Fraction(i, n) for n in range(1, 65) for i in range(n + 1)]
        xs += np.random.default_rng(23).random(2000).tolist()
        xs += [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), 5e-324, 1 - 2**-53, 2**-60, 2**-70, -0.0]
        for k in range(1, default_branch_cap() + 1):
            b = branch_point(k)
            xs += [Fraction(b.numerator + step, b.denominator) for step in (-1, 0, 1)]
        for x in xs:
            mv = majorant(x)
            want, branch = reference_majorant(x)
            assert (repr(mv.value), mv.branch) == (repr(want), branch), x

    def test_value_is_a_named_tuple(self):
        mv = majorant(Fraction(1, 6))
        assert mv == (mv.value, mv.branch) == tuple(mv)
        assert repr(mv) == "MajorantValue(value=0.816496580927726, branch=2)"

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
        for x in (1.2, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                parabola(x)


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
        for args in [(0, 1, math.inf, 0.5), (0, math.inf, 1, 5), (-math.inf, 1, 1, 0.5),
                     (0, 1, 1, math.nan), (0, 1, math.nan, 0.5), (math.nan, 1, 1, 0.5)]:
            with pytest.raises(ValueError, match="must be finite"):
                rescale_majorant(*args)


def closed_form(p: float, N: int) -> np.ndarray:
    """q[b] = (2/N)**p * b*(N - b), each 4b(N-b)/N**2 rounded once from its Fraction."""
    return np.array([float(Fraction(4 * b * (N - b), N * N)) * (2 / N) ** (p - 2) for b in range(N + 1)])


def constant_start(p: float, N: int) -> np.ndarray:
    """The old cold start: the constant bound 1 (p = 1) or 2**p, zero at both ends."""
    g = np.full(N + 1, 1.0 if p == 1 else 2.0**p)
    g[0] = g[N] = 0.0
    return g


def sup_start(p: float, N: int) -> np.ndarray:
    """Where estimate_sup starts: the pointwise minimum of the closed form and 1."""
    return np.minimum(closed_form(p, N), 1.0)


def scalar_sup_sweeps(p: float, N: int, tol: float, max_iters: int) -> tuple[np.ndarray, int, list[float]]:
    """Slow oracle for estimate_sup: the Gauss-Seidel sweeps one triple at a time.

    Same start, same spread table and the same expression order per triple,
    rhs = lam*g[a] + (1 - lam)*g[c] + spread[c - a], so every float matches.
    """
    g = sup_start(p, N).tolist()
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


def full_row_sweeps(p: float, N: int, tol: float, start: np.ndarray | None = None) -> tuple[list[np.ndarray], list[float]]:
    """Oracle for the dirty-range sweeps: every sweep reads every (a, c) entry.

    Each row's matrix is built afresh from index arrays, with the kernel's
    expression order, rhs = lam*g[a] + (1 - lam)*g[c] + spread[c - a], so
    every float matches.  Starts from `start`, by default estimate_sup's
    start.  Returns the iterate after each sweep and the per-sweep largest
    decreases.
    """
    g = sup_start(p, N) if start is None else start.copy()
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


def assert_full_row_sweeps(p: float, N: int, tol: float) -> int:
    """estimate_sup's iterate, sweep count and decreases match full_row_sweeps'
    at max_iters 2, 3 and 1000; returns the oracle's sweep count."""
    iterates, decreases = full_row_sweeps(p, N, tol)
    for max_iters in (2, 3, 1000):
        stats: dict = {}
        try:
            g = estimate_sup(p, N, tol=tol, max_iters=max_iters, stats=stats)
        except ConvergenceError as exc:
            g = exc.last
        k = min(max_iters, len(iterates))
        assert g.floats().tobytes() == iterates[k - 1].tobytes()
        assert (stats["iterations"], stats["decreases"]) == (k, decreases[:k])
    return len(iterates)


class TestDirtySweeps:
    # p >= 2 starts at the fixed point and takes one sweep, so p = 1.75 and
    # 1.9 are the exponents past 1.5 whose sweeps exercise the push sweeps;
    # past N = 256 the tables are filled in more than one block of rows; from
    # p = 2 every row reads only its symmetric triples
    @pytest.mark.parametrize("p", [1, 1.5, 1.75, 1.9, 2, 2.5, 3, 7])
    @pytest.mark.parametrize("N", [48, 97, 160, 255, 257, 300])
    def test_match_full_row_sweeps_bit_for_bit(self, N, p):
        sweeps = assert_full_row_sweeps(p, N, 1e-9)
        assert sweeps > 3 if p < 2 else sweeps == 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("N", [16, 97])
    def test_match_full_row_sweeps_at_a_tiny_tol(self, N, p):
        # at tol = 1e-20 the sweeps go on while rounding moves the iterate,
        # which can creep below the parabola by ulps for tens of sweeps
        assert_full_row_sweeps(p, N, 1e-20)

    @pytest.mark.parametrize("p, N", [(1, 64), (1.5, 97), (1.9, 80)])
    def test_pushes_cover_every_changed_input(self, monkeypatch, p, N):
        # A pull sweep reads every row, whole or, for the rows the rule
        # picks, its symmetric triples alone: below p = 2 the row N/2 at
        # even N, where the start meets the parabola.  In a push sweep,
        # every value of g that changed since row b's visit in the previous
        # sweep (g[b] itself is no input of row b) must reach row b through
        # a push: a column push of c > b at the sweep start, or a row push of
        # a < b, each made with the new value in g.  The pushes are exactly
        # those of the changed values, so a push sweep reads no more than it
        # needs.
        calls = []
        symmetric_rows = {(1, 64): [32], (1.5, 97): [], (1.9, 80): [40]}[p, N]
        symmetric = extremal._symmetric

        def spy(N, weights, v):
            row = _triple_rows(N, weights, v)

            def row_spy(b):
                rhs = row(b)
                calls.append(("row", b, v.copy(), rhs.shape))
                return rhs

            def push_spy(least, **outer):
                ((side, x),) = outer.items()
                calls.append((side, x, v.copy(), None))
                row.push(least, **outer)

            row_spy.push = push_spy
            return row_spy

        def symmetric_spy(v, b, spread):
            rhs = symmetric(v, b, spread)
            calls.append(("symmetric", b, v.copy(), rhs.shape))
            return rhs

        monkeypatch.setattr(extremal, "_triple_rows", spy)
        monkeypatch.setattr(extremal, "_symmetric", symmetric_spy)
        stats: dict = {}
        estimate_sup(p, N, stats=stats)
        iterates, _ = full_row_sweeps(p, N, 1e-9)
        G = [sup_start(p, N)] + iterates  # sweep k takes G[k] to G[k + 1]
        # a sweep starts with row 1 (a pull) or with a column push after other calls (a push)
        sweeps: list[list] = []
        for call in calls:
            pull_start = call[0] in ("row", "symmetric") and call[1] == 1
            if pull_start or call[0] == "c" and (not sweeps or sweeps[-1][-1][0] != "c"):
                sweeps.append([])
            sweeps[-1].append(call)
        assert len(sweeps) == stats["iterations"] == len(iterates)
        pulls = pushes = 0
        for k, sweep in enumerate(sweeps):
            before, after = G[k], G[k + 1]
            if sweep[0][0] in ("row", "symmetric"):
                pulls += 1
                assert [call[:2] for call in sweep] == [
                    ("symmetric" if b in symmetric_rows else "row", b) for b in range(1, N)]
                assert [shape for *_, shape in sweep] == [
                    (min(b, N - b),) if b in symmetric_rows else (b, N - b) for b in range(1, N)]
                for _, b, v, _ in sweep:
                    assert v.tobytes() == np.concatenate([after[:b], before[b:]]).tobytes()
                continue
            pushes += 1
            cols = [x for side, x, _, _ in sweep if side == "c"]
            rows = [x for side, x, _, _ in sweep if side == "a"]
            assert [side for side, *_ in sweep] == ["c"] * len(cols) + ["a"] * len(rows)
            for side, x, v, _ in sweep:
                now = before if side == "c" else np.concatenate([after[: x + 1], before[x + 1 :]])
                assert v.tobytes() == now.tobytes()
            for b in range(1, N):
                changed = set(np.flatnonzero(after[:b] != before[:b]).tolist())
                changed |= {i for i in np.flatnonzero(before != G[k - 1]).tolist() if i > b}
                reached = {a for a in rows if a < b} | {c for c in cols if c > b}
                assert changed <= reached, (k, b, changed - reached)
            assert cols == np.flatnonzero(before != G[k - 1]).tolist()
            assert rows == np.flatnonzero(after != before).tolist()
        assert sweeps[0][0][0] == "row" and pulls >= 2 and pushes >= 2

    @pytest.mark.parametrize("p, N", [(1, 128), (1.5, 64), (2, 32)])
    def test_triples_read(self, p, N):
        stats: dict = {}
        estimate_sup(p, N, stats=stats)
        read = stats["triples_read"]
        assert len(read) == stats["iterations"]
        # at p = 2 every row reads its symmetric triples alone; below, the
        # row N/2 of an even N does, where the start meets the parabola
        if p == 2:
            assert read[0] == sum(min(b, N - b) for b in range(1, N))
        else:
            assert read[0] == stats["triples"] - (N // 2) ** 2 + N // 2
        assert all(type(r) is int and 0 <= r <= stats["triples"] for r in read)
        if p == 1:
            assert sum(read) < stats["iterations"] * stats["triples"] / 2


def symmetric_reads(monkeypatch, p: float, N: int, tol: float = 1e-9, start: np.ndarray | None = None) -> list[int]:
    """Run estimate_sup and return the rows it read by their symmetric
    triples alone, checking at each such read that the whole row(b) holds
    those entries, bit for bit, and no other entry below g[b]."""
    read: list[int] = []
    kernel: list = []  # [v, a kernel of its own over the run's g = v], to read row(b) whole
    symmetric = extremal._symmetric

    def checked(v, b, spread):
        d = symmetric(v, b, spread)
        if not kernel or kernel[0] is not v:
            kernel[:] = v, _triple_rows(N, _chord(lambda den, lam: spread[den]), v)
        whole = kernel[1](b).copy()
        i = np.arange(1, min(b, N - b) + 1)
        assert whole[b - i, i - 1].tobytes() == d.tobytes()
        whole[b - i, i - 1] = np.inf
        assert whole.min() >= v[b], (b, whole.min() - v[b])
        read.append(b)
        return d

    monkeypatch.setattr(extremal, "_symmetric", checked)
    if start is not None:
        monkeypatch.setattr(extremal, "sup_closed_form", lambda p, N: GridFunction(N, start))
    try:
        estimate_sup(p, N, tol=tol)
    except ConvergenceError:
        pass
    return read


@pytest.mark.parametrize("N", [2, 3, 5, 48, 255, 256, 257, 512])
def test_symmetric_triples_are_the_rows_symmetric_entries(N):
    rng = np.random.default_rng(N)
    spread = (np.arange(N + 1) / N) ** 1.5
    values = [rng.standard_normal(N + 1), rng.choice([1.7e308, -1.7e308], N + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in values:
            row = _triple_rows(N, _chord(lambda den, lam: spread[den]), v)
            for b in range(1, N):
                i = np.arange(1, min(b, N - b) + 1)
                got = extremal._symmetric(v, b, spread)
                assert got.tobytes() == row(b)[b - i, i - 1].tobytes()  # the triples (b-i, b, b+i)
    # a new array: later calls, v rewritten between them, leave a kept result as it was
    v = values[0]
    got = extremal._symmetric(v, N // 2, spread)
    kept = got.copy()
    v[:] = rng.standard_normal(N + 1)
    extremal._symmetric(v, N // 2, spread)
    extremal._symmetric(v, N - 1, spread)
    assert got.tobytes() == kept.tobytes()


class TestSymmetricRows:
    # Against h = cc*4x(1-x), cc = (2/N)**max(p-2, 0), every triple with
    # b - a != c - b has slack at least cc/N**2, so a row whose g[b] lies
    # that close to h reads only its symmetric triples (b-i, b, b+i)
    @pytest.mark.parametrize("p, N, tol", [(1, 48, 1e-9), (1, 160, 1e-9), (2, 97, 1e-9), (2, 160, 1e-20),
                                           (2.5, 64, 1e-20), (7, 97, 1e-9), (100, 48, 1e-9), (3, 97, 1e-20)])
    def test_no_other_entry_lies_below_g(self, monkeypatch, p, N, tol):
        read = symmetric_reads(monkeypatch, p, N, tol)
        if p < 2:  # the row where the start meets the parabola, once per pull sweep
            assert set(read) == {N // 2}
        else:
            assert read[: N - 1] == list(range(1, N))

    def test_just_below_two_most_rows_read_their_symmetric_triples(self):
        # within about 1e-4 of p = 2 the start lies within the threshold of h
        # at most rows, not only at N/2, so the 12 sweeps read about a fifth
        # of one full sweep; read whole, they would read 12 sweeps' worth
        p, N = 1.999999, 97
        iterates, decreases = full_row_sweeps(p, N, 1e-9)
        stats: dict = {}
        g = estimate_sup(p, N, stats=stats)
        assert g.floats().tobytes() == iterates[-1].tobytes() and stats["decreases"] == decreases
        assert sum(stats["triples_read"]) < stats["triples"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_raised_start_reads_its_row_whole(self, monkeypatch, p):
        # raising q at one index by 2cc/N**2, past the rule's threshold, sends that row to row(b)
        N, b = 64, 20
        start = closed_form(p, N)
        start[b] += 2 * (2 / N) ** (p - 2) / N**2
        read = symmetric_reads(monkeypatch, p, N, start=start)
        assert read[: N - 2] == [x for x in range(1, N) if x != b]
        iterates, decreases = full_row_sweeps(p, N, 1e-9, start=start)
        stats: dict = {}
        g = estimate_sup(p, N, stats=stats)  # the monkeypatched start
        assert g.floats().tobytes() == iterates[-1].tobytes() and stats["decreases"] == decreases
        assert stats["triples_read"][0] == sum(min(x, N - x) for x in range(1, N)) - b + b * (N - b)

    @pytest.mark.parametrize("p, N, tol, kernels", [
        (2, 97, 1e-9, 0), (2, 97, 1e-20, 0), (3, 97, 1e-9, 0), (3, 97, 1e-20, 0),
        (1.999999, 97, 1e-9, 0), (1.999999, 160, 1e-9, 0), (1.999999, 255, 1e-9, 0),
        (1, 160, 1e-9, 1), (1.9999, 97, 1e-9, 1), (1.9999, 160, 1e-9, 1), (1.9999, 255, 1e-9, 1)])
    def test_the_kernel_is_made_once_and_only_when_read(self, monkeypatch, p, N, tol, kernels):
        # the O(N**2) tables are built at the first sweep that reads a row
        # whole or pushes, and kept: none when every sweep reads symmetric
        # triples alone, one for a run whose sweeps mix the three reads
        made = []

        def spy(N, weights, v):
            made.append(N)
            return _triple_rows(N, weights, v)

        monkeypatch.setattr(extremal, "_triple_rows", spy)
        stats: dict = {}
        estimate_sup(p, N, tol=tol, stats=stats)
        assert len(made) == kernels
        if kernels:
            assert stats["iterations"] > 1

    @pytest.mark.parametrize("p", [527, 1023.5])
    def test_underflowing_scale_reads_whole_rows(self, monkeypatch, p):
        # cc = (1/4)**(p-2) is subnormal at p = 527 and 0 at p = 1023.5
        N = 8
        assert (2 / N) ** (p - 2) < np.finfo(float).tiny
        assert symmetric_reads(monkeypatch, p, N) == []
        stats: dict = {}
        g = estimate_sup(p, N, stats=stats)
        iterates, decreases = full_row_sweeps(p, N, 1e-9)
        assert g.floats().tobytes() == iterates[-1].tobytes() and stats["decreases"] == decreases
        assert stats["triples_read"] == [stats["triples"]] * stats["iterations"]


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
        stats: dict = {}
        with pytest.raises(ConvergenceError) as ei:
            estimate_sup(1, 64, tol=1e-9, max_iters=1, stats=stats)
        assert stats["iterations"] == 1
        assert len(ei.value.last) == 65
        assert stats["last_decrease"] >= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="defect exponent must be positive and finite, got 0"):
            estimate_sup(0, 8)
        with pytest.raises(ValueError, match="grid resolution must be >= 2, got 1"):
            estimate_sup(1, 1)
        with pytest.raises(ValueError, match="tolerance must be positive and finite, got 0"):
            estimate_sup(1, 8, tol=0)
        with pytest.raises(ValueError, match="tolerance must be positive and finite, got inf"):
            estimate_sup(1, 8, tol=math.inf)
        with pytest.raises(ValueError, match="max_iters must be >= 1, got 0"):
            estimate_sup(1, 8, max_iters=0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_exponent_must_be_finite(self, p):
        with pytest.raises(ValueError, match=f"defect exponent must be positive and finite, got {p}"):
            estimate_sup(p, 8)

    @pytest.mark.parametrize("p", [1023.5, 1024, 1100])
    def test_huge_exponents_converge_in_one_sweep(self, p):
        # (2/N)**(p-2) underflows to 0 here, and the zero start is the sup
        stats: dict = {}
        g = estimate_sup(p, 8, stats=stats)
        assert stats["iterations"] == 1 and stats["converged"]
        assert np.all(g.floats() >= 0) and g[0] == g[8] == 0.0


class TestExactSupAtP1:
    # conftest.exact_sup_p1 bounds every member; the exact scan finding it a
    # member makes it the sup, which estimate_sup must meet to rounding
    @pytest.mark.parametrize("N", [16, 32, 64, 97])
    def test_estimate_meets_the_exact_sup(self, N):
        g = exact_sup_p1(N)
        assert not check_almost_convex(GridFunction(N, g), 1, 1)
        est = estimate_sup(1, N).floats()
        exact = np.array([float(x) for x in g])
        assert (np.abs(est - exact) <= 2 * np.spacing(exact)).all()
        for b in range(1, N):  # g >= E, as g**k >= E**k = k**k * (d/N)**(k-1) on E's branch k
            d = min(b, N - b)
            k = reference_branch(Fraction(d, N))
            assert g[b].numerator**k * N ** (k - 1) >= k**k * d ** (k - 1) * g[b].denominator**k
        raised = list(g)
        raised[N // 3] += Fraction(1, 10**30)
        violations = check_almost_convex(GridFunction(N, raised), 1, 1)
        assert len(violations) == 1 and violations[0].b == N // 3
        assert violations[0].a == 0 or violations[0].c == N


class TestClosedForm:
    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, 1023.5])
    @pytest.mark.parametrize("N", [2, 3, 7, 16, 97])
    def test_values(self, N, p):
        q = sup_closed_form(p, N)
        assert q.N == N and not q.is_exact
        assert q.floats().tobytes() == closed_form(p, N).tobytes()

    @pytest.mark.parametrize("N", range(2, 25))
    def test_exact_sup_at_p2(self, N):
        # q = 4b(N-b)/N**2 meets every adjacent triple with equality and
        # violates no triple, in Fractions; its floats are correctly rounded
        q = [Fraction(4 * b * (N - b), N * N) for b in range(N + 1)]
        assert sup_closed_form(2, N).floats().tolist() == [float(v) for v in q]
        for a in range(N - 1):
            for c in range(a + 2, N + 1):
                for b in range(a + 1, c):
                    lam = Fraction(c - b, c - a)
                    rhs = lam * q[a] + (1 - lam) * q[c] + Fraction(c - a, N) ** 2
                    assert q[b] == rhs if c - a == 2 else q[b] <= rhs, (a, b, c)

    def test_no_member_below_p2(self):
        # at p = 1.5 the span-1 triples fail: below p = 2, q only bounds the sup
        assert check_almost_convex(sup_closed_form(1.5, 32), 1, 1.5)


class TestClosedFormStart:
    @pytest.mark.parametrize("p", [2, 2.5, 3, 4])
    @pytest.mark.parametrize("N", [2, 16, 97, 255])
    def test_one_sweep_onto_the_closed_form(self, N, p):
        stats: dict = {}
        g = estimate_sup(p, N, stats=stats).floats()
        assert stats["iterations"] == 1 and stats["converged"]
        assert np.abs(g - closed_form(p, N)).max() <= 1e-15

    @pytest.mark.parametrize("N", [48, 97, 160])
    def test_cold_start_lands_on_it_at_p2(self, N):
        # the old constant start 2**p descends onto the same sup; at the
        # default tol its sweeps stop up to 3.7e-11 short (N = 97), hence 1e-11
        iterates, _ = full_row_sweeps(2, N, 1e-11, start=constant_start(2, N))
        g = estimate_sup(2, N).floats()
        assert np.abs(g - iterates[-1]).max() <= 3e-12
        assert np.abs(g - closed_form(2, N)).max() <= 1e-15

    @pytest.mark.parametrize("p, saved", [(1, 0), (1.5, 1)])
    @pytest.mark.parametrize("N", [48, 97])
    def test_below_p2_same_bits_as_the_constant_start(self, N, p, saved):
        # at p = 1 the start is the old constant 1; at p = 1.5 it is below
        # the old 2**p, and the sweeps reach the same bits one sweep sooner
        iterates, _ = full_row_sweeps(p, N, 1e-9, start=constant_start(p, N))
        stats: dict = {}
        g = estimate_sup(p, N, stats=stats)
        assert g.floats().tobytes() == iterates[-1].tobytes()
        assert stats["iterations"] == len(iterates) - saved

    @pytest.mark.parametrize("p", [2.5, 3, 4])
    @pytest.mark.parametrize("N", [5, 8, 16])
    def test_cold_start_lands_on_it_past_p2(self, N, p):
        # here the cold sweeps contract slowly (600 sweeps at N = 16), and
        # their last decrease 1e-12 leaves them up to 2.5e-11 short
        iterates, _ = full_row_sweeps(p, N, 1e-12, start=constant_start(p, N))
        assert np.abs(estimate_sup(p, N).floats() - iterates[-1]).max() <= 1e-9


def test_parabola_grid_matches_pointwise():
    g = parabola_grid(16)
    ge = exact_parabola_grid(16)
    assert ge.is_exact and not g.is_exact
    for i in range(17):
        assert g[i] == pytest.approx(float(ge[i]), abs=1e-15)
