"""Function values on the uniform grid {i/N : 0 <= i <= N}.

GridFunction is the common currency of every class checker and of the
discrete sup estimator.  Values are either a float array or a list of
exact :class:`fractions.Fraction` entries; the checkers switch between
floating-point and exact arithmetic based on which one they receive.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np


def _float(v) -> float:
    """float(v), or inf of v's sign for an exact value past the float range, where float() raises."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


class GridFunction:
    """Values of a real function sampled at x = i/N for 0 <= i <= N; each value's float must be finite."""

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
            self.values = np.array([_float(v) for v in values])
        finite = np.isfinite([_float(v) for v in self.values] if self.is_exact else self.values)
        if not finite.all():
            raise ValueError(f"grid value at index {int(np.argmin(finite))} is not finite")
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


def _chord(defect: Callable) -> Callable:
    """The float weights (lam, 1 - lam, defect(den, lam)), lam = j/den: rhs is the chord at b plus the defect."""

    def weights(i, j, den, out):
        np.subtract(1.0, np.divide(j, den, out=out[0]), out=out[1])
        out[2][...] = defect(den, out[0])

    return weights


# A read-only float scan reads the rows of consecutive middle indices in one
# row.block of at most this many entries, so it makes its numpy calls once
# per block, not once per row.  On a 2-core Xeon a whole float scan at
# N = 128 took 0.99, 0.86, 0.74 and 0.75 of its row-by-row time at 2**12,
# 2**13, 2**14 and 2**15 entries; at N = 256 and 384, where most rows are
# larger than a block and read alone, every size read within 5% of it.
_BLOCK_TRIPLES = 2**14


def _row_blocks(N: int) -> Iterator[tuple[int, int]]:
    """The blocks (b0, b1) of a pass over the rows 1..N-1: from each b0, as
    many consecutive rows as keep K*(b1-1)*(N-b0) within _BLOCK_TRIPLES, or
    the one row b0 when even that is larger (read with row, not row.block)."""
    b0 = 1
    while b0 < N:
        b1 = b0 + 1
        while b1 < N and (b1 + 1 - b0) * b1 * (N - b0) <= _BLOCK_TRIPLES:
            b1 += 1
        yield b0, b1
        b0 = b1


def _rhs(w0, x0, w1, x1, w2, out=None, part=None) -> np.ndarray:
    """out = w0*x0 + w1*x1 + w2: w0*x0 into out, w1*x1 into part, then out +=
    part, then out += w2, broadcasting each product to out's shape; numpy
    allocates out and part when they are not given.

    Every accessor of _triple_rows, and extremal._symmetric, evaluates its
    triples here, so an entry that two of them share gets the same four IEEE
    operations on the same operands in the same order, and so the same bits,
    whatever the views' shapes and strides; for int64 and object weights the
    result is the exact integer either way.
    """
    out = np.multiply(w0, x0, out=out)
    out += np.multiply(w1, x1, out=part)
    out += w2
    return out


def _triple_rows(N: int, weights: Callable, v: np.ndarray) -> Callable:
    """Right-hand sides of the on-grid triples a < b < c, from tables built once.

    A triple depends on its middle index b only through the offsets
    i = b - a and j = c - b, with den = c - a = i + j.  Three tables, in v's
    dtype (float, int64 or object), hold the weights w0, w1 and w2 of each
    (i, j) for 1 <= i, j <= N-1, rows by i descending and columns by j
    ascending, so the (a, c) matrix of middle index b, a and c ascending, is
    the slice [N-1-b : N-1, : N-b].  Every such slice lies in the lower-left
    triangle i + j <= N.  weights(i, j, den, out) writes the weights into
    the three views of out: i a column, j a row, den their sum capped at N,
    so it may index arrays of length N+1.  The tables are filled whole, in
    blocks of rows of about 2**16 entries, so the temporaries of weights
    stay block-sized; the entries past the triangle hold no triple and are
    what row.block and row.push read for their +inf pads.  The tables,
    row's two work buffers and a copy of v with +inf on both sides, with
    its sliding windows, are made when the kernel is made.  _chord gives
    the float weights (lam, 1 - lam, defect) with lam = (c - b)/(c - a) =
    j/den; the exact scan passes the integers (N*j, N*i, -C*den**2).

    Returns row.  Each accessor below evaluates rhs = w0*v[a] + w1*v[c] + w2
    through _rhs, so a triple that two of them read gets the same bits, and
    reads v when called: a caller may rewrite v between calls (the sup
    writing v[b] sees the update in row b + 1; the exact scan writes
    F[b] - F into v before row b).  A result of row is valid until row's
    next call; row.block returns a new array.

    row(b), for 1 <= b <= N-1, is the (a, c) matrix of middle index b.  Its
    views are made at its first call and kept, so a caller that stops early
    pays only for the rows it read.

    row.block(b0, b1), for float weights and 1 <= b0 < b1 <= N, evaluates
    the K = b1 - b0 rows b0..b1-1 at once when its K*(b1-1)*(N-b0) entries
    are at most _BLOCK_TRIPLES, and raises ValueError otherwise.  Entry
    [k, r, t] of the (K, b1-1, N-b0) result is the triple (b0+k-(b1-1)+r,
    b0+k, b0+k+1+t): [k, b1-1-b0-k :, : N-b0-k] is row(b0+k), and every other
    entry, a < 0 or c > N, is +inf.  Every row reads the one window
    [N-b1 : N-1, : N-b0] of the tables, and v through the windows of the
    padded copy; the float weights there are finite, lam and 1 - lam in
    [1/N, 1 - 1/N] (den capped at N), so a pad's products and sums are
    +inf, never NaN.

    row.push(least, a=a) and row.push(least, c=c), for float weights, lower
    least[b] to the least rhs of the triples with that one outer index and
    middle index b, row a of row(b) for each b > a or column c of row(b) for
    each b < c, and leave the other entries of least as they are.  push
    reads these offsets, the triangle i + j <= L of the tables with
    L = N - a or c, in slabs of consecutive i of at most _BLOCK_TRIPLES
    entries (one row when a row is wider), padded as block is (the padded
    copy holds v reversed for c), and folds each slab's least entry per
    middle index into least with np.minimum.  A minimum is exact, so
    least[b] ends as the same float whatever the slabs.
    """
    pad = math.isqrt(_BLOCK_TRIPLES) - 1  # v[x] is padded[pad + x]; a block of K rows reads from x = 1 - K
    i = np.arange(N - 1, 0, -1)[:, None]
    j = np.arange(1, N)[None, :]
    w0, w1, w2 = (np.empty((N - 1, N - 1), dtype=v.dtype) for _ in range(3))
    step = max(1, 2**16 // N)
    for r in range(0, N - 1, step):
        den = i[r : r + step] + j
        weights(i[r : r + step], j, np.minimum(den, N, out=den), [w[r : r + step] for w in (w0, w1, w2)])
    size = (N // 2) * ((N + 1) // 2)  # max over b of b*(N - b)
    buf, tmp = np.empty(size, dtype=v.dtype), np.empty(size, dtype=v.dtype)
    padded = np.full(pad + 2 * N - 1, np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, N - 1)

    # row keeps its views and its two buffers, where block and push take new
    # arrays, because both pay on a 2-core Xeon: without the views, a
    # second pass of rows at N = 200 took 5.9 ms against 5.0 (min of 15), and
    # the sup bench's raw job_p50_ms rose from 12.13 to 13.12 ms in 4 of 4
    # alternating pairs; with new arrays, the F0 scan of F at N = 384 and 512,
    # whose rows are mostly read alone, took 8-13% longer (min of 11).
    views: list = [None] * N  # views[b]: row b's views, made at its first call

    def row(b: int) -> np.ndarray:
        if views[b] is None:
            sl = np.s_[N - 1 - b : N - 1, : N - b]
            shape = (b, N - b)
            views[b] = (w0[sl], v[:b, None], w1[sl], v[None, b + 1 :], w2[sl],
                        buf[: b * (N - b)].reshape(shape), tmp[: b * (N - b)].reshape(shape))
        return _rhs(*views[b])

    def block(b0: int, b1: int) -> np.ndarray:
        K = b1 - b0
        if K * (b1 - 1) * (N - b0) > _BLOCK_TRIPLES:
            raise ValueError(f"rows {b0}..{b1 - 1} at N={N} hold more than {_BLOCK_TRIPLES} block entries")
        padded[pad : pad + N + 1] = v
        sl = np.s_[N - b1 : N - 1, : N - b0]
        a0 = pad + b0 - (b1 - 1)
        return _rhs(w0[sl], windows[a0 : a0 + K, : b1 - 1, None],
                    w1[sl], windows[pad + b0 + 1 : pad + b1 + 1, None, : N - b0], w2[sl])

    def push(least: np.ndarray, a: int | None = None, c: int | None = None) -> None:
        # with o = a, or o = N - c on v reversed, row i of a slab reads the
        # other index's values at padded[pad + o + i + 1 :]; s[k] holds
        # middle index b - k, +inf past the grid
        o = a if c is None else N - c
        padded[pad : pad + N + 1] = v if c is None else v[::-1]
        x = v[a] if c is None else v[c]
        L = i1 = N - o
        while i1 > 1:
            d = L - i1  # K: the most rows with K*(d + K) <= _BLOCK_TRIPLES, a slab being d + K wide
            K = min(i1 - 1, max(1, (math.isqrt(d * d + 4 * _BLOCK_TRIPLES) - d) // 2))
            i0 = i1 - K
            sl = np.s_[N - i1 : N - i0, : L - i0]
            other = windows[pad + o + i1 : pad + o + i0 : -1, : L - i0]
            xa, xc = (x, other) if c is None else (other, x)
            rhs = _rhs(w0[sl], xa, w1[sl], xc, w2[sl])
            b, s = (a + i1 - 1, rhs) if c is None else (c - 1, rhs.T)
            fold = least[b : b - len(s) : -1]
            np.minimum(fold, s.min(axis=1), out=fold)
            i1 = i0

    # neither refers to row, so no cycle keeps the tables past their last caller
    row.block = block
    row.push = push
    return row


def write_csv(f: GridFunction, path: str | Path) -> None:
    """Write a grid function as rows `i,x,value` with x the literal fraction i/N.

    An exact value is written num/den and a float as repr spells it; the
    bytes are csv.writer's, "\\r\\n" line ends included, spelled in one
    %-template pass.
    """
    N, i = f.N, range(f.N + 1)
    if f.is_exact:
        row = "%d,%d/%d,%d/%d\r\n"
        fields = zip(i, i, repeat(N), map(attrgetter("numerator"), f.values), map(attrgetter("denominator"), f.values))
    else:
        row = "%d,%d/%d,%r\r\n"
        fields = zip(i, i, repeat(N), f.floats().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("i,x,value\r\n" + (row * (N + 1)) % tuple(chain.from_iterable(fields)))


def read_csv(path: str | Path) -> GridFunction:
    """Read a grid function written by :func:`write_csv`.

    Values containing a ``/`` are parsed as exact fractions, everything else
    as floats.  Rows must cover i = 0..N in order, each with three fields.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])  # an empty file fails the header check
        if [h.strip() for h in header] != ["i", "x", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}, want i,x,value")
        for row in r:
            if row:
                if len(row) < 3:
                    raise ValueError(f"CSV row {row!r} has fewer than 3 fields, want i,x,value")
                rows.append((int(row[0]), row[2].strip()))
    if not rows or [i for i, _ in rows] != list(range(len(rows))):
        raise ValueError("CSV rows must enumerate grid indices 0..N in order")
    values = [Fraction(v) if "/" in v else float(v) for _, v in rows]
    return GridFunction(len(rows) - 1, values, label=str(path))
