"""The extremal majorant of the relaxed-convexity class, and its discretization.

The majorant is

    E(x) = min{ k * d(x)^(1 - 1/k) : integer k >= 1 },      x in [0, 1],

where d(x) = min(x, 1 - x) is the distance from x to the nearest integer.
Between consecutive branch points the minimum is attained by a single k, so
evaluation reduces to locating d(x) among the (exactly computed) branch
points.  The module also provides the critical parabola 4x(1-x), affine
rescaling of the majorant to an arbitrary interval, and a grid fixed-point
estimator for the pointwise supremum of the generalized class whose relaxed
convexity defect is |x2 - x1|^p, with that supremum's closed form for p >= 2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .grid import GridFunction, _chord, _rhs, _triple_rows

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


class MajorantValue(NamedTuple):
    """Evaluated majorant together with the branch attaining the minimum."""

    value: float
    branch: int


def _majorant_at(num: int, den: int) -> tuple[float, int]:
    """(E(d), k) at d = num/den, for 0 <= d <= 1/2 and den > 0.

    k is the smallest k >= 1 with branch_point(k) <= d, capped at
    default_branch_cap() and chosen in integers; ties keep the lower branch.
    num / den rounds as float(Fraction(num, den)) does, reduced or not.  At
    d = 0 the value is 0 and k is 2 (every k >= 2 attains the minimum there,
    while the k = 1 term is the constant 1).
    """
    if num == 0:
        return 0.0, 2
    cap = default_branch_cap()
    k = 1
    while k < cap and (b := branch_point(k)).numerator * den > num * b.denominator:
        k += 1
    return k * (num / den) ** (1 - 1 / k), k


def majorant(x: Real) -> MajorantValue:
    """Evaluate min over 1 <= k <= default_branch_cap() of k * d(x)^(1 - 1/k).

    Branch selection compares d(x) against the exact branch points, so the
    reported branch is the smallest minimizer; at x in {0, 1} it is 2 (see
    _majorant_at).
    """
    if not 0 <= x <= 1:  # before Fraction(float(x)), which raises on inf and nan
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    xq = Fraction(float(x)) if not isinstance(x, (Fraction, int)) else Fraction(x)
    d = min(xq, 1 - xq)
    return MajorantValue(*_majorant_at(d.numerator, d.denominator))


def majorant_values(x) -> np.ndarray:
    """Vectorized majorant values (floats only, no branch reporting)."""
    table = _branch_table()
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x <= 1)):
        raise ValueError("arguments must lie in [0, 1]")
    d = np.minimum(x, 1.0 - x)
    # smallest k with table[k] <= d, searched in the descending table; d = 0
    # lies below every entry, so k = cap and the value is 0**(1 - 1/cap) = 0
    k = np.searchsorted(-table, -d, side="left")
    k = np.clip(k, 1, default_branch_cap())
    return k * d ** (1.0 - 1.0 / k)


def parabola(x: Real):
    """The critical parabola 4x(1-x); exact when x is exact."""
    if not 0 <= x <= 1:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return 4 * x * (1 - x)


def rescale_majorant(u: Real, v: Real, c: Real, x: Real) -> float:
    """Largest endpoint-nonpositive function of the rescaled class on [u, v].

    For the class on [u, v] with defect c|x2 - x1| this is
    c * (v - u) * E((x - u) / (v - u)).  Every float argument must be finite.
    """
    if not all(isinstance(t, (int, Fraction)) or math.isfinite(t) for t in (u, v, c, x)):
        raise ValueError(f"arguments must be finite, got u={u}, v={v}, c={c}, x={x}")
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


def parabola_grid(N: int) -> GridFunction:
    """Restriction of 4x(1-x) to the uniform grid."""
    x = np.arange(N + 1) / N
    return GridFunction(N, 4.0 * x * (1.0 - x), label="parabola")


def sup_closed_form(p: float, N: int) -> GridFunction:
    """The scaled parabola q[b] = (2/N)**p * b*(N - b) = (2/N)**(p-2) * 4x(1-x).

    For every p > 0, q bounds the discrete supremum that estimate_sup
    computes: the adjacent triples (b-1, b, b+1) alone force g <= q (q meets
    each with equality, and the discrete maximum principle does the rest).
    For p >= 2, q equals that supremum, because q is also a member: a triple
    of span s = (c-a)/N and weight lam has gap (2/N)**(p-2) * 4lam(1-lam)s**2
    <= s**p, since s >= 2/N.  For p < 2 this step fails at s = 1, and q is no
    member.  The integer part is divided once, so p = 2 is correctly rounded.
    """
    b = np.arange(N + 1)
    return GridFunction(N, (4 * b * (N - b)) / (N * N) * (2 / N) ** (p - 2), label=f"sup-closed-form[p={p}]")


def _symmetric(v: np.ndarray, b: int, spread: np.ndarray) -> np.ndarray:
    """The rhs of the symmetric triples (b-i, b, b+i), i = 1..min(b, N-b)
    ascending, for the sup's defect spread[c - a]: a new array, the same
    bits as those entries of grid._triple_rows' row(b), since lam = i/(2i)
    and 1 - lam are 1/2 exactly and the defect is spread[2i]."""
    n = min(b, len(v) - 1 - b)
    return _rhs(0.5, v[b - n : b][::-1], 0.5, v[b + 1 : b + 1 + n], spread[2 : 2 * n + 1 : 2])


def _span_hulls(spread: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The span rule's bound, as two ascending arrays to search, and its peak.

    With lower[den] = fl(spread[den] - den**2/N**2) - 2**-49 over the spans
    den = 2..N and peak the index of its largest value, rise[t] is the least
    lower over the spans 2+t..2+peak and fall[t] minus the least over
    2+peak..2+peak+t: running minima outward from the peak, each at most
    lower, the first rising with t and the second falling, so negated.
    """
    N = len(spread) - 1
    den = np.arange(2, N + 1)
    lower = spread[2:] - (den * den) / (N * N) - 2.0**-49
    peak = int(lower.argmax())
    return np.minimum.accumulate(lower[peak::-1])[::-1], -np.minimum.accumulate(lower[peak:]), peak


def _span_windows(tau: np.ndarray, hulls: tuple, rows: np.ndarray) -> tuple[dict, int]:
    """The windows of the rows b = rows[t] that the span rule lets skip the
    spans [D1, D2] whose lower bound (_span_hulls) is at least tau[t], and
    the triples they skip: b -> (far, near), each an (a0, a1, c0, c1) of
    row.window, the far window a < N - D2, c > D2 and the near window
    b - a, c - b <= D1 - 2 (None when empty).  A row whose two windows
    overlap or hold as many triples as it does is left out, to be read
    whole."""
    rise, fall, peak = hulls
    N = len(rise) + len(fall)
    d1 = 2 + np.searchsorted(rise, tau)  # peak + 3 when no span's bound reaches tau
    d2 = peak + 1 + np.searchsorted(fall, -tau, side="right")  # peak + 1 then
    ra, rc = np.minimum(rows, d1 - 2), np.minimum(N - rows, d1 - 2)
    fa, fc = np.minimum(rows, N - d2), N - np.maximum(rows, d2)
    skipped = rows * (N - rows) - ra * rc - fa * fc
    split = (skipped > 0) & ~((ra + fa > rows) & (rc + fc > N - rows))
    windows = {b: ((0, x, N + 1 - y, N + 1), (b - r, b, b + 1, b + 1 + t) if r * t else None)
               for b, r, t, x, y in zip(*(z[split].tolist() for z in (rows, ra, rc, fa, fc)))}
    return windows, int(skipped[split].sum())


class ConvergenceError(RuntimeError):
    """Fixed-point iteration ran out of sweeps before the tolerance was met;
    `last` is the last iterate."""

    def __init__(self, message: str, last: GridFunction):
        super().__init__(message)
        self.last = last


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

    by downward Gauss-Seidel sweeps from an upper bound: the pointwise
    minimum of q = sup_closed_form(p, N), which bounds the supremum for
    every p, and 1, which bounds it through the full-span triple (0, b, N).
    For p >= 2, q <= 1 and q equals the supremum; the first sweep certifies
    it as a fixed point, moving no value by more than rounding, so a
    converged run takes one sweep.  Sweeps visit b in ascending order and
    minimize over all (a, c) pairs; updates only ever decrease, so the
    iteration descends onto the unique discrete supremum.  Stops when the
    largest pointwise decrease of a sweep drops below tol: tol bounds that
    last decrease, not the distance to the supremum, which is larger where
    the sweeps contract slowly.

    A sweep pulls or pushes.  A pull sweep reads each row whole, or only
    the part of it that can lower it, by two rules on one slack.  Let cc =
    (2/N)**max(p-2, 0) and h = cc*4x(1-x) at x = b/N.  A triple with
    offsets i = b - a and j = c - b, span den = i + j, s = den/N and lam =
    j/den has h-gap cc*4lam(1-lam)s**2 = cc*4ij/N**2 <= cc*s**2 <= s**p
    (s <= 1 = cc for p <= 2, s >= 2/N for p >= 2, as in sup_closed_form),
    so h is a member, and the triple's slack against h splits, by 4ij =
    den**2 - (i-j)**2, as

        sigma(i, j) = s**p - cc*4ij/N**2 = phi(den) + cc*(i-j)**2/N**2,
        phi(den) = s**p - cc*s**2 >= 0.

    A sweep from g >= h keeps g >= h, since each rhs of g is at least that
    of h; so with E the largest h[x] - g[x] when row b is read, an entry is
    at least h[b] + sigma(i, j) - E, less rounding, and one whose slack
    exceeds g[b] - h[b] + E is not below g[b]: the row's minimum, when
    below g[b], is the least of the other entries, the same float.  In a
    pull sweep, g[b] at row b's read is its sweep-start value, so the
    comparisons below, made once at the sweep start, pick what each row
    reads:
    - the symmetric rule: when g - h < cc/N**2 - margin at b, no entry
      with i != j is below g[b], and the row reads its symmetric triples
      (b-i, b, b+i) alone (_symmetric);
    - the span rule, for p < 2 (so cc = 1) at the other rows: no entry
      whose span's phi is at least tau = g[b] - h[b] + margin is below
      g[b].  phi = s**p - s**2 is 0 at s = 0 and 1 and has one peak
      between, so the spans where the running minima of its lower bound
      outward from the peak (_span_hulls) reach tau form one interval
      [D1, D2], and the row reads only its two windows (_span_windows):
      the near one, b - a <= D1 - 2 and c - b <= D1 - 2, which holds every
      span below D1, and the far one, a < N - D2 and c > D2, which holds
      every span above D2.  It reads them when they are disjoint and hold
      fewer triples than the row, and the row whole otherwise.  A running
      minimum is at most the bound it runs over, so the rule stays exact
      however far the bound's floats stray from one peak.
    Both use

        margin = E0 + (N + 2)*r,  r = (p + 12)*u*cc + 2**-1070,  u = 2**-53,

    with E0 the largest h - g (or 0) at the sweep start.  The margin
    covers, with g <= cc*(1 + (p+4)u) (the start is) and every term
    nonnegative:
    - the weights: fl(j/den) is lam within lam*u, and 1 - fl(lam) rounds
      once more, so the two products miss lam*g[a] + (1-lam)*g[c] by at
      most 3u*cc;
    - the spread fl(fl(den/N)**p) is s**p within (p+2)u relative (u for
      den/N, p times that through the power, and pow's own ulp); since
      s**p >= cc*s**2, that error is charged to sigma at (p+2)u*cc;
    - the two products and two adds of the rhs: 3u relative, 3u*cc and
      3u*s**p, the latter charged as above.  So an entry's float is at least
      h[b] + sigma(i, j) - E - (p+11)u*cc;
    - with i = j this is how far one update may land below h, the drift:
      updates chain within a sweep, so E at a read is at most E0 plus
      N - 2 such steps, plus the error of h's float, (p+5)u*cc from pow in
      cc and two roundings; E0 is measured anew each sweep, since the
      drift also accumulates across sweeps (at tol = 1e-20, p = 3 and
      N = 97 the iterate creeps down by ulps for tens of sweeps);
    - the symmetric test g - h < ... reads h's float, and its subtraction
      and threshold round: (p+8)u*cc in all;
    - the span test reads h's float too, and its own rounding is charged
      to the bound: with s <= 1 and |phi| <= 1, phi's float fl(spread[den]
      - den**2/N**2) misses phi by at most (p+2)u + u + u, the subtraction
      of 2**-49 = 16u from it rounds by at most u, so the bound is below
      phi - (11 - p)u, below phi - 9u for p < 2; tau's float, two
      roundings at |g - h|, |tau| <= 1, is at least tau - 3u less the error
      of h's float.  So bound >= tau's float gives phi >= tau + 6u, at
      least as strong as the symmetric test with phi(den) for cc/N**2;
    - 2**-1070 bounds eight roundings' absolute error in the subnormal
      range, 2**-1074 each.
    The sum, E0 + ((N-2)(p+11) + 3p + 24)u*cc and N + 1 absolute terms, is
    below the margin.  The symmetric rule applies only when cc/N**3 is a
    normal float, so that h, the spreads and the products it bounds are
    normal too; otherwise (at N = 8, p = 527 makes cc subnormal and
    p = 1023.5 makes it 0) every row is read whole.  At p >= 2 the start is
    h, every row qualifies and a sweep reads the sum over b of
    min(b, N-b), about N**2/4 triples.  At p < 2 the rows where g lies that
    close to h qualify: far below p = 2 only b = N/2 at even N, where the
    start meets the parabola, but within about 1e-4 of p = 2 most rows of
    the later sweeps, and of every sweep within about 1e-6.  The span rule
    takes the rest: at N = 255 the first two sweeps read 0.43 of the
    triples at p = 1 and 0.63 at p = 1.5, but all of them near p = 2, where
    phi is small everywhere.

    A push sweep keeps acc[b], the least new entry of row b so far, which
    grid._triple_rows' row.push lowers in place: at its start, each index
    c the previous sweep lowered pushes column c of every row b < c into
    acc, with the sweep-start g; when it lowers g[b], it pushes row b of
    every row b' > b, with the current g; and its update at b reads acc[b]
    alone.  An entry with an old g[a] is at least the fresh one, which a's
    row push brings, since lam and 1 - lam are >= 0 and rounding is
    monotone; an entry whose inputs did not change since the previous
    sweep visited b is at least g[b], read or not, by the rule.  So acc[b]
    < g[b] exactly when the fresh row's minimum is, and then the two are
    the same float: each update is a full sweep's, bit for bit.  A sweep
    pushes when the pushes of the previous sweep's changes would read
    fewer triples than a pull sweep priced at its symmetric and whole-row
    reads (the span windows, which would read fewer, are not counted); so
    the first sweep pulls, and usually the second.

    Raises ValueError unless p and tol are positive and finite, N >= 2 and
    max_iters >= 1, and ConvergenceError (carrying the last iterate) if
    max_iters sweeps do not reach tol.
    Mutates `stats`, when given, with the sweep count `iterations`, the
    triples one sweep visits `triples`, the triples each sweep actually
    evaluated `triples_read` (pads excluded), the per-sweep wall times
    `sweep_ms`, the per-sweep largest decreases `decreases`, the last of
    them `last_decrease`, and `converged`.  The triple tables
    (grid._triple_rows) are built at most once per call, at the first sweep
    that reads a row whole or by windows, or pushes: O(N^2) memory then,
    O(N) when no sweep does; the span rule's hulls are O(N), built at most
    once, at the first pull sweep with a row that is not symmetric.
    """
    if N < 2:
        raise ValueError(f"grid resolution must be >= 2, got {N}")
    if not 0 < p < math.inf:
        raise ValueError(f"defect exponent must be positive and finite, got {p}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    g = np.minimum(sup_closed_form(p, N).floats(), 1.0)
    spread = (np.arange(N + 1) / N) ** p
    row = None  # the kernel, made at the first sweep that needs it
    triples = (N + 1) * N * (N - 1) // 6  # the sum over b of b*(N - b)
    k = np.arange(N + 1)
    with_c = k * (k - 1) // 2  # with_c[c]: the triples (a, b, c) with that c; with_a[a], with that a
    with_a = with_c[::-1]
    acc = np.empty(N + 1)
    cc = (2 / N) ** max(p - 2, 0)
    # the member the rule measures against: q itself for p >= 2, and the same
    # floats as sup_closed_form(max(p, 2), N), but computed apart from the start,
    # so that a raised start (as the tests make one) does not raise h with it
    h = (4 * k * (N - k)) / (N * N) * cc
    r = (p + 12) * 2.0**-53 * cc + 2.0**-1070  # the most one update may land below h
    ruled = cc / N**3 >= np.finfo(float).tiny  # h, the spreads and their products are normal floats
    whole, symmetric = k * (N - k), np.minimum(k, N - k)  # row b's triples; its symmetric ones

    hulls = None  # _span_hulls, made at the first pull sweep that reads a row that is not symmetric (p < 2)
    decreases = []
    sweep_ms = []
    triples_read = []
    lowered = None  # the indices the previous sweep lowered, None before the first sweep
    while len(decreases) < max_iters:
        max_dec = 0.0
        start = perf_counter()
        margin = max(float((h - g).max()), 0.0) + (N + 2) * r
        sym = (g - h < cc / (N * N) - margin) & ruled  # the rows that read their symmetric triples alone
        pull = int(np.where(sym, symmetric, whole)[1:N].sum())
        pushing = lowered is not None and int(with_c[lowered].sum() + with_a[lowered].sum()) < pull
        if row is None and (pushing or not sym[1:N].all()):
            row = _triple_rows(N, _chord(lambda den, lam: spread[den]), g)
        if pushing:
            acc.fill(np.inf)
            for c in lowered:
                row.push(acc, c=c)
        windows = {}  # the rows a pull sweep reads by their two span windows (p < 2)
        if not pushing and p < 2 and not sym[1:N].all():
            if hulls is None:
                hulls = _span_hulls(spread)
            rows = np.flatnonzero(~sym[1:N]) + 1
            windows, skipped = _span_windows((g - h + margin)[rows], hulls, rows)
            pull -= skipped
        pushed, lowered = lowered, []
        alone = sym.tolist()
        for b in range(1, N):
            if pushing:
                m = acc[b]
            elif alone[b]:
                m = _symmetric(g, b, spread).min()
            elif b in windows:
                far, near = windows[b]
                m = row.window(b, *far).min()
                if near:
                    m = min(m, row.window(b, *near).min())
            else:
                m = row(b).min()
            if m < g[b]:
                max_dec = max(max_dec, g[b] - m)
                g[b] = m
                lowered.append(b)
                if pushing:
                    row.push(acc, a=b)
        sweep_ms.append((perf_counter() - start) * 1e3)
        decreases.append(float(max_dec))
        triples_read.append(int(with_c[pushed].sum() + with_a[lowered].sum()) if pushing else pull)
        if max_dec < tol:
            break
    result = GridFunction(N, g, label=f"sup-estimate[p={p}]")
    converged = decreases[-1] < tol
    if stats is not None:
        stats["iterations"] = len(decreases)
        stats["triples"] = triples
        stats["triples_read"] = triples_read
        stats["sweep_ms"] = sweep_ms
        stats["decreases"] = decreases
        stats["last_decrease"] = decreases[-1]
        stats["converged"] = converged
    if not converged:
        raise ConvergenceError(f"no convergence after {len(decreases)} sweeps "
                               f"(last decrease {decreases[-1]:.3e} >= tol {tol:.3e})", result)
    return result
