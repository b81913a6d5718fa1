"""Function values on the uniform grid {i/N : 0 <= i <= N}.

GridFunction is the common currency of every class checker and of the
discrete sup estimator.  Values are either a float array or a list of
exact :class:`fractions.Fraction` entries; the checkers switch between
floating-point and exact arithmetic based on which one they receive.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np


class GridFunction:
    """Values of a real function sampled at x = i/N for 0 <= i <= N."""

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
        self.label = label

    @property
    def is_exact(self) -> bool:
        """True when the values are stored as exact rationals."""
        return isinstance(self.values, list)

    def floats(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def x(self, i: int) -> Fraction:
        """Exact abscissa of grid index i."""
        return Fraction(i, self.N)

    def __getitem__(self, i: int):
        return self.values[i]

    def __len__(self) -> int:
        return self.N + 1

    def __repr__(self) -> str:
        tag = self.label or "grid-function"
        mode = "exact" if self.is_exact else "float"
        return f"<GridFunction {tag!r} N={self.N} ({mode})>"


def _triple_row(v: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The on-grid triples a < b < c of one middle index b, as (a, c) matrices.

    Returns den = c - a, lam = (c - b)/(c - a) and the chord value
    lam*v[a] + (1 - lam)*v[c] at b, a new array that callers add their
    defect term to last, in place.  In-place steps round as the plain
    expression does, with fewer temporaries.
    """
    a = np.arange(0, b)
    c = np.arange(b + 1, len(v))
    den = c[None, :] - a[:, None]
    lam = (c[None, :] - b) / den
    chord = lam * v[:b, None]
    rest = 1.0 - lam
    rest *= v[None, b + 1:]
    chord += rest
    return den, lam, chord


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


def read_csv(path: str | Path, label: str = "") -> GridFunction:
    """Read a grid function written by :func:`write_csv`.

    Values containing a ``/`` are parsed as exact fractions, everything else
    as floats.  Rows must cover i = 0..N in order.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if [h.strip() for h in header] != ["i", "x", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}, want i,x,value")
        for row in r:
            if row:
                rows.append((int(row[0]), row[2].strip()))
    if not rows or [i for i, _ in rows] != list(range(len(rows))):
        raise ValueError("CSV rows must enumerate grid indices 0..N in order")
    exact = all("/" in v for _, v in rows)
    if exact:
        values: Sequence = [Fraction(v) for _, v in rows]
    else:
        values = np.array([float(Fraction(v)) if "/" in v else float(v) for _, v in rows])
    return GridFunction(len(rows) - 1, values, label=label or str(path))
