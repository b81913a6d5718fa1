"""Function values on the uniform grid {i/N : 0 <= i <= N}.

GridFunction is the common currency of every class checker and of the
discrete sup estimator.  Values are either a float array or a list of
exact :class:`fractions.Fraction` entries; the checkers switch between
floating-point and exact arithmetic based on which one they receive.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np


class GridFunction:
    """Values of a real function sampled at x = i/N for 0 <= i <= N; floats must be finite."""

    __slots__ = ("N", "values", "label")

    def __init__(self, N: int, values: Sequence, label: str = ""):
        if N < 2:
            raise ValueError(f"grid resolution must be >= 2, got {N}")
        if len(values) != N + 1:
            raise ValueError(f"expected {N + 1} values for N={N}, got {len(values)}")
        self.N = int(N)
        if isinstance(values, np.ndarray):
            self.values = values.astype(float, copy=False)
        elif all(isinstance(v, (Fraction, int)) for v in values):
            self.values = [Fraction(v) for v in values]
        else:
            self.values = np.asarray(values, dtype=float)
        if not self.is_exact and not np.isfinite(self.values).all():
            raise ValueError(f"grid value at index {int(np.argmin(np.isfinite(self.values)))} is not finite")
        self.label = label

    @property
    def is_exact(self) -> bool:
        """True when the values are stored as exact rationals."""
        return isinstance(self.values, list)

    def floats(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __getitem__(self, i: int):
        return self.values[i]

    def __len__(self) -> int:
        return self.N + 1

    def __repr__(self) -> str:
        tag = self.label or "grid-function"
        mode = "exact" if self.is_exact else "float"
        return f"<GridFunction {tag!r} N={self.N} ({mode})>"


def _triple_rows(N: int, defect: Callable, v: np.ndarray) -> Callable:
    """Right-hand sides of the on-grid triples a < b < c, from tables built once.

    A triple depends on its middle index b only through the offsets
    i = b - a and j = c - b: den = c - a = i + j and lam = (c - b)/(c - a)
    = j/(i + j).  The tables hold lam, 1 - lam and defect(den, lam) for
    1 <= i, j <= N-1, rows by i descending and columns by j ascending, so
    the (a, c) matrix of middle index b, a and c ascending, is the slice
    [N-1-b : N-1, : N-b].  Every slice lies in the lower-left triangle
    i + j <= N; the entries past it belong to no triple and are never read.
    The tables are filled in blocks of about 2**16 entries, each block of
    rows up to the triangle's edge at its last row, so defect runs on about
    half the table and its temporaries stay block-sized.  Within a block
    defect sees den capped at N, so it may index arrays of length N+1.

    Returns row.  row(b), for 1 <= b <= N-1, is the (a, c) matrix

        rhs = lam*v[a] + (1 - lam)*v[c] + defect

    evaluated in that order, through views of the tables, of v and of the
    work buffers; the next call overwrites it.  row(b, rows), 1 <= rows <= b,
    evaluates only its rows a < rows, entry for entry the same floats, and
    returns that prefix.  Row b's views are made at its first call and kept,
    so a caller that stops early pays only for the rows it read.  Every
    call reads v when made, so a caller writing v[b] sees the update in row
    b + 1.
    """
    i = np.arange(N - 1, 0, -1)[:, None]
    j = np.arange(1, N)[None, :]
    lam = np.empty((N - 1, N - 1))
    rest = np.empty_like(lam)
    extra = np.empty_like(lam)
    step = max(1, 2**16 // N)
    for r in range(0, N - 1, step):
        end = min(r + step, N - 1)
        blk = np.s_[r:end, :end]
        den = i[r:end] + j[:, :end]
        np.divide(j[:, :end], den, out=lam[blk])
        np.subtract(1.0, lam[blk], out=rest[blk])
        extra[blk] = defect(np.minimum(den, N, out=den), lam[blk])
    size = (N // 2) * ((N + 1) // 2)  # max over b of b*(N - b)
    buf = np.empty(size)
    tmp = np.empty(size)
    views: list = [None] * N  # views[b]: row b's views, made at its first call

    def row(b: int, rows: int | None = None) -> np.ndarray:
        if views[b] is None:
            sl = np.s_[N - 1 - b : N - 1, : N - b]
            shape = (b, N - b)
            views[b] = (lam[sl], rest[sl], extra[sl], v[:b, None], v[None, b + 1 :],
                        buf[: b * (N - b)].reshape(shape), tmp[: b * (N - b)].reshape(shape))
        lb, rb, xb, va, vc, rhs, part = views[b]
        if rows is not None:
            lb, rb, xb, va, rhs, part = (x[:rows] for x in (lb, rb, xb, va, rhs, part))
        np.multiply(lb, va, out=rhs)
        np.multiply(rb, vc, out=part)
        rhs += part
        rhs += xb
        return rhs

    return row


def write_csv(f: GridFunction, path: str | Path) -> None:
    """Write a grid function as rows `i,x,value` with x the literal fraction i/N."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "x", "value"])
        for i in range(f.N + 1):
            v = f[i]
            if isinstance(v, (Fraction, int)):
                v = Fraction(v)
                w.writerow([i, f"{i}/{f.N}", f"{v.numerator}/{v.denominator}"])
            else:
                w.writerow([i, f"{i}/{f.N}", repr(float(v))])


def read_csv(path: str | Path) -> GridFunction:
    """Read a grid function written by :func:`write_csv`.

    Values containing a ``/`` are parsed as exact fractions, everything else
    as floats.  Rows must cover i = 0..N in order, each with three fields.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if [h.strip() for h in header] != ["i", "x", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}, want i,x,value")
        for row in r:
            if row:
                if len(row) < 3:
                    raise ValueError(f"CSV row {row!r} has fewer than 3 fields, want i,x,value")
                rows.append((int(row[0]), row[2].strip()))
    if not rows or [i for i, _ in rows] != list(range(len(rows))):
        raise ValueError("CSV rows must enumerate grid indices 0..N in order")
    exact = all("/" in v for _, v in rows)
    if exact:
        values: Sequence = [Fraction(v) for _, v in rows]
    else:
        values = np.array([float(Fraction(v)) if "/" in v else float(v) for _, v in rows])
    return GridFunction(len(rows) - 1, values, label=str(path))
