"""Grid membership checkers for the relaxed-convexity classes.

Every checker scans inequalities at on-grid triples only: x1 = a/N,
x2 = c/N, lam = (c-b)/(c-a), so the convex combination lands exactly on
grid index b.  The triple scans go row by row, one middle index b at a
time, vectorized over the (a, c) pairs of the row.

Arithmetic is exact whenever the grid function stores rationals and the
defect exponent is 1.  The exact scan scales the values and the constant c
by D, the lcm of their denominators, and multiplies each inequality out by
N*D*(c-a), so every comparison is a sign test on an integer; Fractions are
built only for the violating triples.  The integers run in int64 while the
worst-case magnitude stays below 2**53, where int64 cannot overflow and
float64 division gives a correctly rounded max_slack; past that bound the
same expressions run on Python ints in object arrays.  Otherwise the scan is
floating point with the slack tolerance SLACK_TOL (violations require
slack < -SLACK_TOL); only check_almost_convex lets its caller set another.

check_endpoint_reduction reads both of its verdicts off one pass of the
same rows, with the same exact/float dispatch, and stops at the first row
holding an endpoint violation (a = 0 or c = N).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extremal import majorant_values, parabola
from .grid import GridFunction, _triple_rows

# Every class check tests the same inequality, so the float scans share one
# slack tolerance.
SLACK_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Violation:
    """A grid triple a <= b <= c where the checked inequality fails.

    slack = rhs - lhs is negative exactly when recorded as a violation.
    """

    a: int
    b: int
    c: int
    lhs: float | Fraction
    rhs: float | Fraction
    slack: float | Fraction


@dataclass(frozen=True, slots=True)
class TupleViolation:
    """An m-tuple of grid indices where the mean inequality fails."""

    xs: tuple[int, ...]
    lhs: float
    rhs: float


class ViolationList(list):
    """List of violations; max_slack is the largest lhs - rhs seen anywhere
    in the scan (negative when every inequality holds with margin)."""

    max_slack: float = -math.inf


def check_almost_convex(f: GridFunction, c: float | Fraction = 1, p: float = 1, tol: float = SLACK_TOL) -> ViolationList:
    """Scan all grid triples of f against the (c, p) relaxed-convexity bound.

    Returns every triple with f[b] > lam*f[a] + (1-lam)*f[c] + c*((c-a)/N)**p
    beyond tolerance; an empty result means grid-restricted membership.
    """
    return _collect(_scan_rows(f, c, p, tol))


def _collect(rows: Iterator[tuple[list[Violation], float]]) -> ViolationList:
    out = ViolationList()
    for row, worst in rows:
        out.extend(row)
        if worst > out.max_slack:
            out.max_slack = worst
    out.sort(key=lambda v: (v.a, v.b, v.c))
    return out


def _scan_rows(f: GridFunction, c: float | Fraction, p: float, tol: float) -> Iterator[tuple[list[Violation], float]]:
    """(violations, largest lhs - rhs) of each middle index b = 1..N-1."""
    if f.is_exact and p == 1 and isinstance(c, (int, Fraction)):
        return _exact_rows(f, Fraction(c))
    N = f.N
    spread = float(c) * (np.arange(N + 1) / N) ** float(p)
    return _float_rows(f.floats(), tol, lambda den, lam: spread[den])


def _exact_rows(f: GridFunction, c_const: Fraction) -> Iterator[tuple[list[Violation], float]]:
    # Scaled by D = lcm of all denominators, F = D*f and C = D*c are
    # integers, and multiplying gap = f[b] - rhs by N*D*(c-a) > 0 gives
    #   G = N*((c-a)F[b] - (c-b)F[a] - (b-a)F[c]) - C*(c-a)**2,
    # so a triple violates exactly when G > 0.
    N = f.N
    vals = f.values
    D = math.lcm(c_const.denominator, *(v.denominator for v in vals))
    F = [v.numerator * (D // v.denominator) for v in vals]
    C = c_const.numerator * (D // c_const.denominator)
    # |G| <= N^2 (2 max|F| + |C|) and N*D*(c-a) <= N^2 D.  Below 2^53, int64
    # cannot overflow, both convert to float64 exactly and their quotient is
    # correctly rounded.  Past it, Python ints in object arrays are exact and
    # their true division is correctly rounded too.  Rounding is monotone, so
    # the largest rounded quotient is the exact largest gap, rounded.
    fits = N * N * max(2 * max(map(abs, F)) + abs(C), D) < 2**53
    dtype = np.int64 if fits else object
    F = np.array(F, dtype=dtype)
    idx = np.arange(N + 1).astype(dtype)
    for b in range(1, N):
        a = idx[:b, None]
        c = idx[None, b + 1:]
        den = c - a
        G = N * (den * F[b] - (c - b) * F[:b, None] - (b - a) * F[None, b + 1:]) - C * den * den
        worst = float((G / (N * D * den)).max())
        lhs = vals[b]
        row = []
        for ai, ci in np.argwhere(G > 0):
            gap = Fraction(int(G[ai, ci]), N * D * int(den[ai, ci]))
            row.append(Violation(int(ai), b, b + 1 + int(ci), lhs, lhs - gap, -gap))
        yield row, worst


def _float_rows(vals: np.ndarray, tol: float, defect) -> Iterator[tuple[list[Violation], float]]:
    """Float scan rows with rhs = chord + defect(den, lam), den = c - a."""
    N = len(vals) - 1
    rhs_row = _triple_rows(N, defect, vals)
    for b in range(1, N):
        rhs = rhs_row(b)
        lhs = float(vals[b])
        # rounding is monotone, so this is the row's largest rounded lhs - rhs
        worst = lhs - float(rhs.min())
        row = []
        if worst > tol:
            with np.errstate(over="ignore"):  # huge finite values give infinite gaps
                ai, ci = np.nonzero(lhs - rhs > tol)
            row = [Violation(a, b, b + 1 + c, lhs, r, r - lhs)
                   for a, c, r in zip(ai.tolist(), ci.tolist(), rhs[ai, ci].tolist())]
        yield row, worst


def check_almost_convex_anchored(f: GridFunction) -> ViolationList:
    """Relaxed convexity plus the endpoint condition max(f[0], f[N]) <= 0.

    Endpoint failures appear as synthetic degenerate triples (0,0,0) and
    (N,N,N) with rhs = 0.
    """
    out = check_almost_convex(f, 1, 1)
    zero = Fraction(0) if f.is_exact else 0.0
    eps = 0 if f.is_exact else SLACK_TOL
    # every scanned triple has a < b < c, so (0,0,0) sorts first and (N,N,N) last
    for i in (0, f.N):
        v = f[i]
        if v > eps:
            out.insert(len(out) if i else 0, Violation(i, i, i, v, zero, zero - v))
        out.max_slack = max(out.max_slack, float(v))
    return out


def check_mean_inequality(f: GridFunction, m: int, samples: int = 100_000, seed: int = 0) -> ViolationList:
    """Check the m-point mean inequality with spread term (max - min).

    For m = 2 the scan is exhaustive over same-parity index pairs (the only
    pairs whose midpoint is on-grid).  For m >= 3 it draws `samples` (>= 1) seeded
    m-tuples of grid indices whose sum is divisible by m (rejection
    sampling), so the mean is always a grid point.  Entries are
    TupleViolation records.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    N = f.N
    vals = f.floats()
    if m == 2:
        # every pair (i, i + 2d), in sorted order: row i holds d = 1 .. (N - i) // 2
        counts = (N - np.arange(N + 1)) // 2
        i = np.repeat(np.arange(N + 1), counts)
        d = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        xs = np.stack([i, i + 2 * d], axis=1)
    else:
        if samples < 1:
            raise ValueError(f"need samples >= 1 for m >= 3, got {samples}")
        rng = np.random.default_rng(seed)
        collected: list[np.ndarray] = []
        have = 0
        while have < samples:
            batch = max(4096, (samples - have) * (m + 1))
            draw = rng.integers(0, N + 1, size=(batch, m))
            keep = draw[draw.sum(axis=1) % m == 0]
            if have + len(keep) > samples:
                keep = keep[: samples - have]
            collected.append(keep)
            have += len(keep)
        xs = np.sort(np.vstack(collected), axis=1)
    lhs = vals[sum(xs.T) // m]  # whole columns: xs.sum(axis=1) loops once per short row
    with np.errstate(over="ignore"):  # huge finite values give infinite gaps
        rhs = vals[xs].mean(axis=1) + (xs[:, -1] - xs[:, 0]) / N
        gap = lhs - rhs
        bad = np.flatnonzero(gap > SLACK_TOL)
        # schema 1 reports an m = 2 record's rhs as lhs - gap
        rhs_out = lhs[bad] - gap[bad] if m == 2 else rhs[bad]
    out = ViolationList(TupleViolation(tuple(x), lo, hi)
                        for x, lo, hi in zip(xs[bad].tolist(), lhs[bad].tolist(), rhs_out.tolist()))
    out.sort(key=lambda v: v.xs)
    out.max_slack = float(gap.max())
    return out


def check_sharpened(f: GridFunction) -> ViolationList:
    """Scan the strengthened inequality whose defect is E(lam)*|x2 - x1|.

    The plain relaxed-convexity bound self-improves: the constant defect
    factor can be replaced by the majorant evaluated at the combination
    weight.  Expected to be violation-free for any grid function passing
    check_almost_convex; the full-spread triples (a=0, c=N) are the equality
    witnesses when f is the majorant itself.
    """
    N = f.N
    return _collect(_float_rows(f.floats(), SLACK_TOL, lambda den, lam: majorant_values(lam) * (den / N)))


def make_tent(x0, h0, N: int) -> GridFunction:
    """Piecewise-linear tent with apex (x0, h0) and zero endpoints.

    x0 must be an on-grid rational (x0*N integer); the values are exact
    rationals whenever h0 is exact.
    """
    x0 = Fraction(x0)
    if not 0 < x0 < 1:
        raise ValueError(f"apex abscissa must lie in (0, 1), got {x0}")
    if (x0 * N).denominator != 1:
        raise ValueError(f"apex {x0} is off-grid for N={N}")
    if not h0 > 0:
        raise ValueError(f"apex height must be positive, got {h0}")
    if isinstance(h0, (int, Fraction)):
        vals = []
        for i in range(N + 1):
            xi = Fraction(i, N)
            vals.append(h0 * xi / x0 if xi <= x0 else h0 * (1 - xi) / (1 - x0))
        return GridFunction(N, vals, label=f"tent[{x0},{h0}]")
    h = float(h0)
    x = np.arange(N + 1) / N
    arr = np.where(x <= float(x0), h * x / float(x0), h * (1.0 - x) / (1.0 - float(x0)))
    return GridFunction(N, arr, label=f"tent[{x0},{h0}]")


def _require_concave(f: GridFunction) -> None:
    if f.is_exact:
        bad = any(f[i - 1] - 2 * f[i] + f[i + 1] > 0 for i in range(1, f.N))
    else:
        v = f.floats()
        bad = bool(np.any(v[:-2] - 2 * v[1:-1] + v[2:] > 1e-12))
    if bad:
        raise ValueError(f"{f!r} is not concave on the grid")


def check_under_parabola(f: GridFunction) -> bool:
    """True iff the concave, endpoint-zero f stays under 4x(1-x) on the grid.

    Raises if f is not concave or its endpoints are nonzero.  When this
    returns True, grid membership in the anchored class follows (checked by
    the test harness, not here).
    """
    _require_concave(f)
    if f.is_exact:
        if f[0] != 0 or f[f.N] != 0:
            raise ValueError("endpoints must be exactly zero")
        return all(f[i] <= parabola(Fraction(i, f.N)) for i in range(f.N + 1))
    v = f.floats()
    if abs(v[0]) > 1e-12 or abs(v[-1]) > 1e-12:
        raise ValueError("endpoints must be zero")
    x = np.arange(f.N + 1) / f.N
    return bool(np.all(v <= 4.0 * x * (1.0 - x) + SLACK_TOL))


def check_endpoint_reduction(f: GridFunction) -> tuple[bool, bool]:
    """(endpoint_ok, full_ok) for a concave grid function.

    endpoint_ok checks the relaxed-convexity inequality only on triples
    touching the boundary (a = 0 or c = N); full_ok checks all triples.  For
    concave functions the endpoint triples are decisive, which the property
    harness asserts as endpoint_ok => full_ok.  Both verdicts come from one
    row scan, exact for exact inputs and with SLACK_TOL for float inputs;
    it stops at the first endpoint violation, which fails both.
    """
    _require_concave(f)
    full_ok = True
    for row, _ in _scan_rows(f, 1, 1, SLACK_TOL):
        if any(v.a == 0 or v.c == f.N for v in row):
            return False, False
        full_ok = full_ok and not row
    return True, full_ok


def sample_concave(N: int, seed: int, cap: GridFunction | None = None) -> GridFunction:
    """Random concave grid function with zero endpoints, peak normalized to 1.

    Built from sorted (hence non-increasing) slopes recentered to sum to
    zero.  If cap is given, the sample is rescaled by min(1, min cap/f) over
    interior indices so it sits under the cap without losing concavity.
    """
    if N < 2:
        raise ValueError(f"grid resolution must be >= 2, got {N}")
    rng = np.random.default_rng(seed)
    slopes = np.sort(rng.random(N))[::-1]
    slopes = slopes - slopes.mean()
    f = np.concatenate([[0.0], np.cumsum(slopes)])
    f[-1] = 0.0
    peak = f.max()
    if peak > 0:
        f = f / peak
    if cap is not None:
        if cap.N != N:
            raise ValueError(f"cap resolution {cap.N} != {N}")
        cv = cap.floats()
        inner = f[1:-1] > 0
        if inner.any():
            scale = float((cv[1:-1][inner] / f[1:-1][inner]).min())
            f = f * min(1.0, max(0.0, scale))
    return GridFunction(N, f, label=f"concave[seed={seed}]")
