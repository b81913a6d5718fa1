from fractions import Fraction

import numpy as np
import pytest

from relconv.grid import GridFunction, _triple_rows, read_csv, write_csv


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="index 1 is not finite"):
        GridFunction(2, [0.0, bad, 0.0])
    with pytest.raises(ValueError, match="index 1 is not finite"):
        GridFunction(2, np.array([0.0, bad, 0.0]))


@pytest.mark.parametrize("N", [2, 3, 24, 257, 400])
def test_triple_rows_match_per_row_construction(N):
    # N > 256 fills the tables in more than one block of rows.
    v = np.random.default_rng(N).standard_normal(N + 1)
    spread = (np.arange(N + 1) / N) ** 1.5
    row = _triple_rows(N, lambda den, lam: spread[den] * lam, v)
    for b in range(1, N):
        a = np.arange(b)[:, None]
        c = np.arange(b + 1, N + 1)[None, :]
        lam = (c - b) / (c - a)
        want = lam * v[a] + (1.0 - lam) * v[c] + spread[c - a] * lam
        assert row(b).tobytes() == want.tobytes()
