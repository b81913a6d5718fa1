"""Grid membership checkers for the relaxed-convexity classes.

Every checker scans inequalities at on-grid triples only: x1 = a/N,
x2 = c/N, lam = (c-b)/(c-a), so the convex combination lands exactly on
grid index b.  A row is the (a, c) matrix of one middle index b.  The float
scans read blocks of consecutive rows, of at most about 2**14 entries
each, and the exact scan (like extremal's sup) reads one row at a time;
either way every row gets its own largest gap and its own violations.
Every triple scan, exact
or float, reads its right-hand sides from the one kernel grid._triple_rows,
whose weights come from the offsets i = b - a, j = c - b and den = c - a:
(lam, 1 - lam, defect) with lam = j/den for the float scans, and the
integers (N*j, N*i, -C*den**2) for the exact scan.

Arithmetic is exact whenever the grid function stores rationals and the
defect exponent is 1.  The exact scan scales the values and the constant c
by D, the lcm of their denominators, to integers F and C, and multiplies
each inequality out by N*D*(c-a), so every comparison is a sign test on one
entry of the kernel's row of the vector F[b] - F; each violating triple's
rhs and slack are two quotients of integers, the only Fractions the scan
builds.  The integers run in int64 while the worst-case
magnitude stays below 2**53, where int64 cannot overflow and float64
division gives a correctly rounded max_slack; past that bound the same
kernel and expressions run on Python ints in object arrays.  Otherwise the
scan is floating point with the slack tolerance SLACK_TOL (violations
require slack < -SLACK_TOL); only check_almost_convex lets its caller set
another.

check_endpoint_reduction reads both of its verdicts off one pass of the
same rows, with the same exact/float dispatch, and stops at the first row
holding an endpoint violation (a = 0 or c = N).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .extremal import majorant_values, parabola, parabola_grid
from .grid import GridFunction, _chord, _float, _row_blocks, _triple_rows

# Every class check tests the same inequality, so the float scans share one
# slack tolerance.
SLACK_TOL = 1e-9


class Violation(NamedTuple):
    """A grid triple a <= b <= c where the checked inequality fails.

    slack = rhs - lhs is negative exactly when recorded as a violation.
    """

    a: int
    b: int
    c: int
    lhs: float | Fraction
    rhs: float | Fraction
    slack: float | Fraction


class TupleViolation(NamedTuple):
    """An m-tuple of grid indices where the mean inequality fails."""

    xs: tuple[int, ...]
    lhs: float
    rhs: float


class ViolationList(list):
    """List of violations; max_slack is the largest lhs - rhs seen anywhere
    in the scan (negative when every inequality holds with margin)."""

    max_slack: float = -math.inf


def _records(kind: type, *columns: Iterable) -> list:
    """kind(*fields) for each zip of the columns.

    tuple.__new__ builds each record in C, where the constructor NamedTuple
    generates is a Python call per record: 8.5 against 4.4 ms for 25,000
    Violations on a 2-core Xeon.
    """
    return list(map(tuple.__new__, repeat(kind), zip(*columns)))


def check_almost_convex(f: GridFunction, c: float | Fraction = 1, p: float = 1, tol: float = SLACK_TOL) -> ViolationList:
    """Scan all grid triples of f against the (c, p) relaxed-convexity bound.

    Returns every triple with f[b] > lam*f[a] + (1-lam)*f[c] + c*((c-a)/N)**p
    beyond tolerance; an empty result means grid-restricted membership.
    Raises ValueError unless p is positive and finite and a float c and tol
    are finite: a NaN comparison fails, so it would hide every violation.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"defect exponent must be positive and finite, got {p}")
    if not (isinstance(c, (int, Fraction)) or math.isfinite(c)):
        raise ValueError(f"defect scale must be finite, got {c}")
    if not math.isfinite(tol):
        raise ValueError(f"slack tolerance must be finite, got {tol}")
    return _collect(_scan_rows(f, c, p, tol))


def _collect(rows: Iterator[tuple[list, float]]) -> ViolationList:
    out = ViolationList()
    for row, worst in rows:
        out.extend(row)
        if worst > out.max_slack or worst != worst:  # a NaN worst sticks, as in ndarray.max
            out.max_slack = worst
    out.sort()  # (a, b, c) is unique per triple record, and equal xs make equal tuple records
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
    # integers, and multiplying gap = f[b] - rhs by N*D*(c-a) > 0 gives, with
    # i = b - a, j = c - b and den = c - a,
    #   G = N*j*(F[b] - F[a]) + N*i*(F[b] - F[c]) - C*den**2,
    # so a triple violates exactly when G > 0.  G is row(b) of _triple_rows
    # on v = F[b] - F under the weights (N*j, N*i, -C*den**2).
    N = f.N
    vals = f.values
    D = math.lcm(c_const.denominator, *(v.denominator for v in vals))
    F = [v.numerator * (D // v.denominator) for v in vals]
    C = c_const.numerator * (D // c_const.denominator)
    # Each partial sum of the row is at most N^2 * 2 max|F| in size,
    # |G| <= N^2 (2 max|F| + |C|), N*D*den <= N^2 D, and a record's numerator
    # F[b]*N*den - G is at most N^2 (3 max|F| + |C|), under 1.5 times |G|'s bound.
    # Below 2^53, int64 cannot overflow, G and N*D*den convert to float64
    # exactly and their quotient is correctly rounded.  Past it, Python ints
    # in object arrays are exact; their true division is correctly rounded but
    # raises past the float range, where the row's exact largest quotient
    # rounds through _float.  Rounding is monotone, so the largest rounded
    # quotient is the exact largest gap, rounded.
    fits = N * N * max(2 * max(map(abs, F)) + abs(C), D) < 2**53
    dtype = np.int64 if fits else object
    F, C = np.array(F, dtype=dtype), np.array(C, dtype=dtype)  # a 0-d C keeps C*den in dtype past int64

    def weights(i, j, den, out):
        out[0][...], out[1][...], out[2][...] = N * j, N * i, -(C * den * den)

    v = np.empty(N + 1, dtype=dtype)
    row = _triple_rows(N, weights, v)
    x = np.array([N * D * k for k in range(N + 1)], dtype=dtype)  # N*D*den = x[c] - x[a]
    for b in range(1, N):
        np.subtract(F[b], F, out=v)
        G = row(b)
        div = x[None, b + 1:] - x[:b, None]
        try:
            worst = float((G / div).max())
        except OverflowError:  # an object-array quotient past the float range
            worst = _float(max(map(Fraction, G.flat, div.flat)))
        ai, ci = np.nonzero(G > 0)
        g, d = G[ai, ci], div[ai, ci]
        yield _records(Violation, ai.tolist(), repeat(b), (ci + b + 1).tolist(), repeat(vals[b]),
                       map(Fraction, (F[b] * (d // D) - g).tolist(), d.tolist()),
                       map(Fraction, (-g).tolist(), d.tolist())), worst


def _float_rows(vals: np.ndarray, tol: float, defect) -> Iterator[tuple[list[Violation], float]]:
    """Float scan rows with rhs = chord + defect(den, lam), den = c - a.

    The rows are read in the blocks of grid._row_blocks, and each row still
    gets its own worst and its own violation gate, so a NaN row hides no
    row beside it.
    """
    N = len(vals) - 1
    row = _triple_rows(N, _chord(defect), vals)
    for b0, b1 in _row_blocks(N):
        # rounding is monotone, so lhs - min is each row's largest rounded lhs - rhs;
        # a row alone is row(b0) through its cached views, in scalar floats that skip
        # the errstate and the arrays (6-15% of a scan whose rows are mostly alone,
        # at N = 256 to 384)
        if b1 == b0 + 1:
            rhs = row(b0)[None]
            worsts = [float(vals[b0]) - float(rhs.min())]
        else:
            rhs = row.block(b0, b1)
            with np.errstate(over="ignore", invalid="ignore"):  # huge finite values give infinite gaps
                worsts = (vals[b0:b1] - rhs.min(axis=(1, 2))).tolist()
        for b, worst in enumerate(worsts, b0):
            x = float(vals[b])
            if worst == 0 and math.copysign(1, x) < 0:  # -0.0 - min: a zero min's sign is the row's own
                worst = x - float(row(b).min())
            out = []
            if worst > tol:
                r = rhs[b - b0, b1 - 1 - b :, : N - b]  # row b: a = 0..b-1, c = b+1..N
                with np.errstate(over="ignore"):
                    ai, ci = np.nonzero(x - r > tol)
                    r = r[ai, ci]
                    out = _records(Violation, ai.tolist(), repeat(b), (ci + b + 1).tolist(), repeat(x),
                                   r.tolist(), (r - x).tolist())
            yield out, worst


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
    m-tuples of grid indices whose sum is divisible by m, so the mean is a grid
    point, and checks each block of about 2**16 drawn values as it is drawn.
    Entries are TupleViolation records.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    N = f.N
    if m == 2:
        # every pair (i, i + 2d), in sorted order: row i holds d = 1 .. (N - i) // 2
        counts = (N - np.arange(N + 1)) // 2
        i = np.repeat(np.arange(N + 1), counts)
        d = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        blocks = [np.stack([i, i + 2 * d], axis=1)]
    else:
        if samples < 1:
            raise ValueError(f"need samples >= 1 for m >= 3, got {samples}")
        blocks = _sampled_tuples(N, m, samples, seed)
    return _collect(_mean_blocks(f.floats(), m, blocks))


def _sampled_tuples(N: int, m: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Sorted seeded m-tuples from 0..N with sum divisible by m, one block per draw."""
    rng = np.random.default_rng(seed)
    while samples > 0:
        draw = rng.integers(0, N + 1, size=(max(1, 2**16 // m), m))
        xs = np.sort(draw[sum(draw.T) % m == 0][:samples], axis=1)  # whole columns, as in _mean_blocks
        samples -= len(xs)
        yield xs


def _mean_blocks(vals: np.ndarray, m: int, blocks: Iterable[np.ndarray]) -> Iterator[tuple[list[TupleViolation], float]]:
    """(violations, largest lhs - rhs) of each block of sorted m-tuples."""
    N = len(vals) - 1
    for xs in blocks:
        lhs = vals[sum(xs.T) // m]  # whole columns: xs.sum(axis=1) loops once per short row
        # huge finite values give infinite gaps, and NaN ones where a row sum adds +inf to -inf
        with np.errstate(over="ignore", invalid="ignore"):
            if m <= 7:  # numpy's row sum adds fewer than 8 values in order, from the first
                total = vals[xs[:, 0]]  # not builtin sum, whose int 0 start turns -0.0 into 0.0
                for k in range(1, m):
                    total += vals[xs[:, k]]
                mean = total / m
            else:
                mean = vals[xs].mean(axis=1)
            rhs = mean + (xs[:, -1] - xs[:, 0]) / N
            gap = lhs - rhs
            bad = np.flatnonzero(gap > SLACK_TOL)
            # schema 1 reports an m = 2 record's rhs as lhs - gap
            rhs_out = lhs[bad] - gap[bad] if m == 2 else rhs[bad]
        yield (_records(TupleViolation, map(tuple, xs[bad].tolist()), lhs[bad].tolist(), rhs_out.tolist()),
               float(gap.max(initial=-math.inf)))  # at large m most blocks keep no tuple


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
        # differences, not v[i-1] - 2 v[i] + v[i+1]: 2 v[i] overflows on huge
        # finite values, while an overflowed difference keeps its sign; the
        # tolerance scales with max|v|, whose rounding alone moves a difference
        tol = 1e-12 * max(1.0, float(np.abs(v).max()))
        with np.errstate(over="ignore"):
            bad = bool(np.any((v[:-2] - v[1:-1]) - (v[1:-1] - v[2:]) > tol))
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
    return bool(np.all(v <= parabola_grid(f.N).floats() + SLACK_TOL))


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
