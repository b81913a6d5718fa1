import csv
import io
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from relconv import grid
from relconv.extremal import estimate_sup, majorant_values
from relconv.grid import _BLOCK_TRIPLES, GridFunction, _chord, _row_blocks, _triple_rows, read_csv, write_csv


def test_resolution_and_length_validation():
    with pytest.raises(ValueError):
        GridFunction(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        GridFunction(4, [0.0, 1.0, 0.0])


def test_exact_detection():
    f = GridFunction(2, [Fraction(0), Fraction(1, 2), Fraction(0)])
    assert f.is_exact
    g = GridFunction(2, [0.0, 0.5, 0.0])
    assert not g.is_exact
    assert np.allclose(g.floats(), [0.0, 0.5, 0.0])


def test_csv_roundtrip_float(tmp_path):
    f = GridFunction(4, np.array([0.0, 0.3, 1.0, 0.3, 0.0]), label="bump")
    path = tmp_path / "f.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert g.N == 4
    assert np.array_equal(g.floats(), f.floats())


def test_csv_roundtrip_exact(tmp_path):
    f = GridFunction(2, [Fraction(0), Fraction(2, 3), Fraction(0)])
    path = tmp_path / "f.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert g.is_exact
    assert g.values == f.values


def csv_writer_bytes(f: GridFunction) -> bytes:
    """The file as csv.writer spells its rows: the oracle for write_csv's template."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["i", "x", "value"])
    for i, v in enumerate(f.values):
        w.writerow([i, f"{i}/{f.N}", f"{v.numerator}/{v.denominator}" if f.is_exact else repr(float(v))])
    return out.getvalue().encode()


@pytest.mark.parametrize("values", [
    np.array([-0.0, 5e-324, 1e16, 1.7e308, -1.7e308, 0.1, -2.5e-310]),
    [Fraction(-7, 3), Fraction(17 * 10**307 + 1, 3), -5, Fraction(-1, 10**400 + 7), Fraction(0)],
], ids=["floats", "fractions"])
def test_csv_bytes_are_csv_writers(tmp_path, values):
    f = GridFunction(len(values) - 1, values)
    path = tmp_path / "f.csv"
    write_csv(f, path)
    assert path.read_bytes() == csv_writer_bytes(f)
    assert b"\r\n" in path.read_bytes()


def test_csv_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0/2,0.0\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_csv_short_row_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("i,x,value\n0,0/2,0.0\n1\n2,2/2,0.0\n")
    with pytest.raises(ValueError, match="fewer than 3 fields"):
        read_csv(path)


@pytest.mark.parametrize("body", ["", "0,0/2,0.0\n2,2/2,0.0\n1,1/2,0.5\n"], ids=["header-only", "out-of-order"])
def test_csv_rows_must_enumerate_the_grid(tmp_path, body):
    path = tmp_path / "rows.csv"
    path.write_text("i,x,value\n" + body)
    with pytest.raises(ValueError, match=r"^CSV rows must enumerate grid indices 0\.\.N in order$"):
        read_csv(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), Fraction(10**400)],
                         ids=["nan", "inf", "-inf", "exact-1e400"])
def test_non_finite_values_rejected(bad):
    # an exact value counts by its float, and 10**400 lies past the float range
    inputs = [[0.0, bad, 0.0], [Fraction(0), bad, Fraction(0)]]
    if isinstance(bad, float):
        inputs.append(np.array([0.0, bad, 0.0]))
    for values in inputs:
        with pytest.raises(ValueError, match="index 1 is not finite"):
            GridFunction(2, values)


def integer_weights(N, C):
    """The exact scan's weights (N*j, N*i, C*den**2)."""

    def weights(i, j, den, out):
        np.multiply(N, j, out=out[0])
        np.multiply(N, i, out=out[1])
        np.multiply(C * den, den, out=out[2])

    return weights


@pytest.mark.parametrize("N", [2, 3, 24, 257, 400])
def test_triple_rows_match_per_row_construction(N):
    # N > 256 fills the tables in more than one block of rows.
    rng = np.random.default_rng(N)
    v = rng.standard_normal(N + 1)
    spread = (np.arange(N + 1) / N) ** 1.5
    row = _triple_rows(N, _chord(lambda den, lam: spread[den] * lam), v)
    for b in range(1, N):
        a = np.arange(b)[:, None]
        c = np.arange(b + 1, N + 1)[None, :]
        lam = (c - b) / (c - a)
        want = lam * v[a] + (1.0 - lam) * v[c] + spread[c - a] * lam
        assert row(b).tobytes() == want.tobytes()
    # integer tables, exact: int64, and at small N Python ints in object
    # arrays with a scale past the int64 range
    F = rng.integers(-2**20, 2**20, N + 1)
    cases = [(F, np.array(12345))]
    if N <= 24:
        cases.append((np.array([3**45 * int(x) for x in F], dtype=object), np.array(3**50, dtype=object)))
    for F, C in cases:
        row = _triple_rows(N, integer_weights(N, C), F)
        for b in range(1, N):
            a = np.arange(b).astype(F.dtype)[:, None]
            c = np.arange(b + 1, N + 1).astype(F.dtype)[None, :]
            want = N * (c - b) * F[:b, None] + N * (b - a) * F[None, b + 1:] + C * (c - a) * (c - a)
            got = row(b)
            assert got.dtype == F.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("N", [2, 3, 24, 257])
def test_triple_windows_are_parts_of_rows(N):
    # every rectangle of a row, from one entry to the whole row, float and
    # int64, with v rewritten between the calls
    rng = np.random.default_rng(N)
    spread = (np.arange(N + 1) / N) ** 1.5
    F = rng.integers(-2**20, 2**20, N + 1)
    for weights, v in [(_chord(lambda den, lam: spread[den]), rng.standard_normal(N + 1)),
                       (integer_weights(N, np.array(12345)), F)]:
        row = _triple_rows(N, weights, v)
        for b in sorted({1, N // 2, N - 1, *rng.integers(1, N, 4).tolist()}):
            for _ in range(6):
                a0, a1 = sorted(rng.choice(b + 1, 2, replace=False).tolist())
                c0, c1 = sorted(rng.choice(np.arange(b + 1, N + 2), 2, replace=False).tolist())
                for rect in [(a0, a1, c0, c1), (0, b, b + 1, N + 1), (b - 1, b, N, N + 1)]:
                    got = row.window(b, *rect).copy()
                    want = row(b)[rect[0] : rect[1], rect[2] - b - 1 : rect[3] - b - 1]
                    assert got.dtype == v.dtype and got.tobytes() == want.tobytes()
                v[:] = rng.permutation(v)


def block_fits(N, b0, b1):
    """A block of rows b0..b1-1 fits: its K*(b1-1)*(N-b0) entries are within _BLOCK_TRIPLES."""
    return (b1 - b0) * (b1 - 1) * (N - b0) <= _BLOCK_TRIPLES


class NanEmpty:
    """numpy with empty() filled with NaN: a table entry the fill misses reads NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype=dtype)


@pytest.mark.parametrize("N", [2, 3, 5, 48, 97, 263, 445])
def test_triple_blocks_are_padded_rows(monkeypatch, N):
    # past N = 256 the tables are filled in more than one block of rows, so 263
    # and 445 fail unless every block fills the entries past the triangle that
    # blocks read for their pads
    monkeypatch.setattr(grid, "np", NanEmpty())
    rng = np.random.default_rng(N)
    spread = (np.arange(N + 1) / N) ** 1.5
    defects = [lambda den, lam: spread[den], lambda den, lam: majorant_values(lam) * (den / N)]
    values = [rng.standard_normal(N + 1), rng.choice([1.7e308, -1.7e308], N + 1)]
    blocks = list(_row_blocks(N))
    # the scan's blocks cover the rows 1..N-1 in order, each as large as fits;
    # a row too large for any block is read alone, with row(b0)
    assert [b0 for b0, _ in blocks] == [1] + [b1 for _, b1 in blocks[:-1]] and blocks[-1][1] == N
    assert all(b1 == b0 + 1 or block_fits(N, b0, b1) for b0, b1 in blocks)
    assert all(b1 == N or not block_fits(N, b0, b1 + 1) for b0, b1 in blocks)
    blocks = [(b0, b1) for b0, b1 in blocks if b1 > b0 + 1]
    fit = [b for b in range(1, N) if block_fits(N, b, b + 1)]
    for _ in range(20):
        b0 = int(rng.choice(fit))
        b1 = b0 + 1
        while b1 < N and block_fits(N, b0, b1 + 1) and rng.random() < 0.8:
            b1 += 1
        blocks.append((b0, b1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for defect in defects:
            for v in values:
                row = _triple_rows(N, _chord(defect), v)
                for b0, b1 in blocks:
                    got = row.block(b0, b1).copy()
                    assert got.shape == (b1 - b0, b1 - 1, N - b0) and not np.isnan(got).any()
                    for k, b in enumerate(range(b0, b1)):
                        inside = np.s_[b1 - 1 - b :, : N - b]
                        assert got[k][inside].tobytes() == row(b).tobytes()
                        got[k][inside] = np.inf
                    assert (got == np.inf).all()


@pytest.mark.parametrize("N", [2, 3, 5, 48, 255, 256, 257, 263, 445, 512])
def test_triple_pushes_are_padded_rows(monkeypatch, N):
    # past N = 256 the tables are filled in more than one block of rows, so the
    # larger sizes fail unless every block fills the entries past the triangle
    # that push reads for its pads: a NaN there reaches least through the fold
    monkeypatch.setattr(grid, "np", NanEmpty())
    rng = np.random.default_rng(N)
    spread = (np.arange(N + 1) / N) ** 1.5
    defects = [lambda den, lam: spread[den], lambda den, lam: majorant_values(lam) * (den / N)]
    values = [rng.standard_normal(N + 1), rng.choice([1.7e308, -1.7e308], N + 1)]
    # both ends of each outer index's range, where slabs reach furthest past the triangle, and a few between
    outer_a = sorted({0, 1, N - 3, N - 2, *rng.integers(0, N - 1, 3).tolist()} & set(range(N - 1)))
    outer_c = sorted({2, 3, N - 1, N, *rng.integers(2, N + 1, 3).tolist()} & set(range(2, N + 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for defect in defects:
            for v in values:
                row = _triple_rows(N, _chord(defect), v)
                # per outer index, the caller's minima and what push must leave in them:
                # +inf at half the indices, values of v, which lie above some row minima
                # and below others, at the rest
                leasts = {}
                for side, outer in [("a", a) for a in outer_a] + [("c", c) for c in outer_c]:
                    least = np.where(rng.random(N + 1) < 0.5, np.inf, rng.permutation(v))
                    leasts[side, outer] = least, least.copy()
                for b in range(1, N):
                    r = row(b)
                    for (side, outer), (_, want) in leasts.items():
                        if side == "a" and outer < b:
                            want[b] = np.minimum(want[b], r[outer].min())
                        elif side == "c" and outer > b:
                            want[b] = np.minimum(want[b], r[:, outer - b - 1].min())
                for (side, outer), (least, want) in leasts.items():
                    row.push(least, **{side: outer})
                    # every middle index of the outer index's triples folds in its least
                    # entry; every other entry, 0 and N among them, stays as it was
                    assert least.tobytes() == want.tobytes(), (side, outer)


def test_only_row_results_are_overwritten():
    # block returns a new array: later calls of any accessor, v rewritten
    # between them, leave a kept result as it was
    N = 48
    rng = np.random.default_rng(N)
    v = rng.standard_normal(N + 1)
    row = _triple_rows(N, _chord(lambda den, lam: 0.5 * lam), v)
    block = row.block(2, 5)
    kept = block.copy()
    v[:] = rng.standard_normal(N + 1)
    row.block(3, 6)
    row.push(np.full(N + 1, np.inf), a=1)
    row.push(np.full(N + 1, np.inf), c=N)
    row(4)
    row.window(5, 1, 3, 7, 9)
    assert block.tobytes() == kept.tobytes()


def test_a_sweep_of_diagonals_allocates_no_table():
    # at p = 2 every row of the one sweep reads its symmetric triples alone,
    # so the (N-1)**2 tables, 384 MiB at N = 4096, are never filled
    N = 4096
    stats: dict = {}
    tracemalloc.start()
    try:
        estimate_sup(2, N, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20
    assert stats["triples_read"] == [sum(min(b, N - b) for b in range(1, N))]


def test_triple_rows_free_without_the_cycle_collector():
    # the tables go with the last reference to row, not at a later gc pass
    row = _triple_rows(64, _chord(lambda den, lam: 0.0 * lam), np.zeros(65))
    row.block(1, 4)
    ref = weakref.ref(row)
    del row
    assert ref() is None


def test_triple_block_size_is_bounded():
    row = _triple_rows(400, _chord(lambda den, lam: 0.0 * lam), np.zeros(401))
    assert row.block(1, 7).shape == (6, 6, 399)
    with pytest.raises(ValueError, match="rows 1..7 at N=400 hold more than 16384 block entries"):
        row.block(1, 8)
    with pytest.raises(ValueError, match="rows 200..200 at N=400 hold more than 16384 block entries"):
        row.block(200, 201)  # a row that large is read with row(200)
