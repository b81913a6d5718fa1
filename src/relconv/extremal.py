"""The extremal majorant of the relaxed-convexity class, and its discretization.

The majorant is

    E(x) = min{ k * d(x)^(1 - 1/k) : integer k >= 1 },      x in [0, 1],

where d(x) = min(x, 1 - x) is the distance from x to the nearest integer.
Between consecutive branch points the minimum is attained by a single k, so
evaluation reduces to locating d(x) among the (exactly computed) branch
points.  The module also provides the critical parabola 4x(1-x), affine
rescaling of the majorant to an arbitrary interval, and a grid fixed-point
estimator for the pointwise supremum of the generalized class whose relaxed
convexity defect is |x2 - x1|^p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

from .grid import GridFunction, _triple_rows

Real = int | float | Fraction


@functools.lru_cache(maxsize=None)
def branch_point(k: int) -> Fraction:
    """Exact abscissa where the minimizing branch switches from k to k+1.

    branch_point(0) = 1/2 marks the symmetry point; for k >= 1 the value is
    (k/(k+1))**(k*(k+1)), a strictly decreasing sequence starting at 1/4.
    """
    if k < 0:
        raise ValueError(f"branch index must be >= 0, got {k}")
    if k == 0:
        return Fraction(1, 2)
    return Fraction(k, k + 1) ** (k * (k + 1))


@functools.lru_cache(maxsize=1)
def default_branch_cap() -> int:
    """Smallest k whose branch point falls below 2**-64 (exact comparison)."""
    lim = Fraction(1, 2**64)
    k = 1
    while branch_point(k) >= lim:
        k += 1
    return k


@functools.lru_cache(maxsize=1)
def _branch_table() -> np.ndarray:
    return np.array([float(branch_point(k)) for k in range(default_branch_cap() + 1)])


@dataclass(frozen=True)
class MajorantValue:
    """Evaluated majorant together with the branch attaining the minimum."""

    value: float
    branch: int


def _select_branch(d: Fraction) -> int:
    # smallest k >= 1 with branch_point(k) <= d; ties keep the lower branch
    cap = default_branch_cap()
    k = 1
    while k < cap and branch_point(k) > d:
        k += 1
    return k


def majorant(x: Real) -> MajorantValue:
    """Evaluate min over 1 <= k <= default_branch_cap() of k * d(x)^(1 - 1/k).

    Branch selection compares d(x) against the exact branch points, so the
    reported branch is the smallest minimizer.  At x in {0, 1} the value is 0
    and the branch is reported as 2 (every k >= 2 attains the minimum there,
    while the k = 1 term is the constant 1).
    """
    xq = Fraction(float(x)) if not isinstance(x, (Fraction, int)) else Fraction(x)
    if xq < 0 or xq > 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    d = min(xq, 1 - xq)
    if d == 0:
        return MajorantValue(0.0, 2)
    k = _select_branch(d)
    return MajorantValue(k * float(d) ** (1.0 - 1.0 / k), k)


def majorant_values(x) -> np.ndarray:
    """Vectorized majorant values (floats only, no branch reporting)."""
    table = _branch_table()
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("arguments must lie in [0, 1]")
    d = np.minimum(x, 1.0 - x)
    # smallest k with table[k] <= d, searched in the descending table
    k = np.searchsorted(-table, -d, side="left")
    k = np.clip(k, 1, default_branch_cap())
    with np.errstate(divide="ignore"):
        vals = k * d ** (1.0 - 1.0 / k)
    return np.where(d > 0, vals, 0.0)


def parabola(x: Real):
    """The critical parabola 4x(1-x); exact when x is exact."""
    if x < 0 or x > 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return 4 * x * (1 - x)


def rescale_majorant(u: Real, v: Real, c: Real, x: Real) -> float:
    """Largest endpoint-nonpositive function of the rescaled class on [u, v].

    For the class on [u, v] with defect c|x2 - x1| this is
    c * (v - u) * E((x - u) / (v - u)).
    """
    if not u < v:
        raise ValueError(f"need u < v, got u={u}, v={v}")
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c}")
    if x < u or x > v:
        raise ValueError(f"argument {x} outside [{u}, {v}]")
    if isinstance(u, (Fraction, int)) and isinstance(v, (Fraction, int)) and isinstance(x, (Fraction, int)):
        t: Real = Fraction(x - u, v - u)
    else:
        t = (float(x) - float(u)) / (float(v) - float(u))
    return float(c) * (float(v) - float(u)) * majorant(t).value


def majorant_grid(N: int) -> GridFunction:
    """Restriction of the majorant to the uniform grid."""
    return GridFunction(N, majorant_values(np.arange(N + 1) / N), label="majorant")


def parabola_grid(N: int, exact: bool = False) -> GridFunction:
    """Restriction of 4x(1-x) to the uniform grid."""
    if exact:
        return GridFunction(N, [parabola(Fraction(i, N)) for i in range(N + 1)], label="parabola")
    x = np.arange(N + 1) / N
    return GridFunction(N, 4.0 * x * (1.0 - x), label="parabola")


class ConvergenceError(RuntimeError):
    """Fixed-point iteration ran out of sweeps before the tolerance was met."""

    def __init__(self, message: str, last: GridFunction, iterations: int, last_decrease: float):
        super().__init__(message)
        self.last = last
        self.iterations = iterations
        self.last_decrease = last_decrease


def estimate_sup(
    p: float,
    N: int,
    tol: float = 1e-9,
    max_iters: int = 1000,
    stats: dict | None = None,
) -> GridFunction:
    """Pointwise-largest grid function for the defect-|x2-x1|^p class.

    Computes the largest g with g[0] <= 0, g[N] <= 0 and, for all grid
    indices a <= b <= c with lam = (c-b)/(c-a),

        g[b] <= lam*g[a] + (1-lam)*g[c] + ((c-a)/N)**p,

    by downward Gauss-Seidel sweeps from the constant upper bound (1 for
    p = 1, else max(1, 2**p); substituting x1 = 1, x2 = 0 shows members of
    the class never exceed the defect at full spread).  Sweeps visit b in
    ascending order and minimize over all (a, c) pairs; updates only ever
    decrease, so the iteration descends onto the unique discrete supremum.
    Stops when the largest pointwise decrease of a sweep drops below tol.

    Each sweep after the first re-reads row b only where its inputs may
    have changed since row b was last read.  With g[w-1] the last value
    this sweep has written and g[last-1] the last value the previous sweep
    wrote: when last > b + 1 some column c > b changed, and the whole row
    is read; otherwise, when w > 1, only its rows a < w are read (a row
    prefix, see grid._triple_rows); otherwise the row is skipped.  No entry
    ever increases, an unread entry keeps its bits, and g[b] is at most
    every entry of row b as last read, so each update is a full sweep's bit
    for bit.

    Raises ValueError unless 0 < p < 1024 (past that 2**p is not a finite
    float) and ConvergenceError (carrying the last iterate) if max_iters
    sweeps do not reach tol.  Mutates `stats`, when given, with the sweep
    count `iterations`, the triples one sweep visits `triples`, the (a, c)
    entries each sweep actually evaluated `triples_read`, the per-sweep
    wall times `sweep_ms`, the per-sweep largest decreases `decreases`, the
    last of them `last_decrease`, and `converged`.  The triple geometry is
    built once per call (see grid._triple_rows): O(N^2) memory.
    """
    if N < 2:
        raise ValueError(f"grid resolution must be >= 2, got {N}")
    if not p > 0:
        raise ValueError(f"defect exponent must be positive, got {p}")
    if not p < 1024:
        raise ValueError(f"defect exponent p must be < 1024 for a finite start bound 2**p, got {p}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    g = np.full(N + 1, 1.0 if p == 1 else max(1.0, 2.0**p))
    g[0] = 0.0
    g[N] = 0.0
    spread = (np.arange(N + 1) / N) ** p
    row = _triple_rows(N, lambda den, lam: spread[den], g)

    iterations = 0
    max_dec = np.inf
    decreases = []
    sweep_ms = []
    triples_read = []
    # g[1:w] holds every value this sweep has written so far, g[1:last] every
    # value the previous sweep wrote (g[0] and g[N] never change); the first
    # sweep reads every row whole
    last = N + 1
    while iterations < max_iters:
        iterations += 1
        max_dec = 0.0
        w = 1
        read = 0
        start = perf_counter()
        for b in range(1, N):
            if last > b + 1:
                m = row(b).min()
                read += b * (N - b)
            elif w > 1:
                m = row(b, w).min()
                read += w * (N - b)
            else:
                continue
            if m < g[b]:
                max_dec = max(max_dec, g[b] - m)
                g[b] = m
                w = b + 1
        sweep_ms.append((perf_counter() - start) * 1e3)
        decreases.append(float(max_dec))
        triples_read.append(read)
        last = w
        if max_dec < tol:
            break
    result = GridFunction(N, g, label=f"sup-estimate[p={p}]")
    if stats is not None:
        stats["iterations"] = iterations
        stats["triples"] = math.comb(N + 1, 3)
        stats["triples_read"] = triples_read
        stats["sweep_ms"] = sweep_ms
        stats["decreases"] = decreases
        stats["last_decrease"] = float(max_dec)
        stats["converged"] = bool(max_dec < tol)
    if max_dec >= tol:
        raise ConvergenceError(
            f"no convergence after {iterations} sweeps (last decrease {max_dec:.3e} >= tol {tol:.3e})",
            last=result,
            iterations=iterations,
            last_decrease=float(max_dec),
        )
    return result
