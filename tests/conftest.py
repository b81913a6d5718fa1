"""Slow oracles that share no code with the library's fast paths.

Tests import them as plain functions (`from conftest import ...`), so
hypothesis tests can call them without a function-scoped fixture.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from relconv.cayley import AbelianGroup, ConnectionSet, GenericDigraph, VertexSet, edge_boundary
from relconv.extremal import branch_point, default_branch_cap, parabola
from relconv.grid import GridFunction


def _closure_generates(g, s) -> bool:
    """S generates g iff the walk from the identity through group.add reaches every element.

    A BFS that shares no code with the subset search: inverses arise as
    iterated sums in a finite group, so adding elements of S alone suffices.
    """
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [b for b in {g.add(a, e) for a in frontier for e in s} if b not in seen]
        seen.update(frontier)
    return len(seen) == g.order


@pytest.fixture
def closure_oracle():
    """The independent oracle for whether a connection set generates its group."""
    return _closure_generates


def min_boundary_unrestricted(group: AbelianGroup, s: ConnectionSet, n: int) -> tuple[int, VertexSet]:
    """Every n-subset in lex order, each counted by the naive double loop.

    Shares no code with the bit-parallel kernel; the first minimum met is the
    lex-first witness.
    """
    order = group.order
    if not 0 <= n <= order:
        raise ValueError(f"cardinality {n} out of range for group order {order}")
    best = None
    for combo in itertools.combinations(range(order), n):
        a = VertexSet.from_indices(combo, order)
        b = edge_boundary(group, s, a)
        if best is None or b < best[0]:
            best = (b, a)
    return best


def digraph_boundary(d: GenericDigraph, a: VertexSet) -> int:
    """Count arcs (u, v) with u in A and v outside A (multiset count), one arc at a time.

    The arc-list oracle: shares no code with the bit-parallel kernel.
    """
    if a.size != d.n:
        raise ValueError(f"vertex set size {a.size} != digraph order {d.n}")
    return sum(1 for u, v in d.arcs if a.contains(u) and not a.contains(v))


def undirected_cut(group: AbelianGroup, s: ConnectionSet, a: VertexSet) -> int:
    """Cut size of A in the undirected Cayley graph on S union -S.

    Independent of edge_boundary: enumerates unordered adjacent pairs and
    counts those split by A.  Each such edge corresponds to exactly one
    directed departure under the symmetrized connection set.
    """
    sym = set(s.elements) | {group.neg(e) for e in s}
    sym.discard(0)
    edges = set()
    for x in range(group.order):
        for e in sym:
            y = group.add(x, e)
            if x != y:
                edges.add((min(x, y), max(x, y)))
    return sum(1 for x, y in edges if a.contains(x) != a.contains(y))


def translate(group: AbelianGroup, a: VertexSet, g: int) -> VertexSet:
    """The set a + g, each element moved through group.add."""
    return VertexSet.from_indices((group.add(x, g) for x in a.indices()), a.size)


def exact_parabola_grid(N: int) -> GridFunction:
    """4x(1-x) at x = i/N in exact Fractions."""
    return GridFunction(N, [parabola(Fraction(i, N)) for i in range(N + 1)], label="parabola")


def reference_branch(d: Fraction) -> int:
    """Smallest k >= 1 with branch_point(k) <= d, capped, compared as Fractions; ties keep the lower branch."""
    k = 1
    while k < default_branch_cap() and branch_point(k) > d:
        k += 1
    return k


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0 and k >= 1, by Newton's method from above."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def majorant_enclosure(N: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(L, U, P): int64 arrays with L[i] <= E(i/N) * 2**P <= U[i] and U - L <= 1.

    P = 61 - 2 * N.bit_length().  At d = min(i, N - i) > 0 and
    k = reference_branch(d/N), E**k = k**k * d**(k-1) / N**(k-1) is rational,
    so L is the integer k-th root of the floor of (E * 2**P)**k, and U = L
    exactly when neither the division nor the root rounds.
    """
    P = 61 - 2 * N.bit_length()
    L, U = np.zeros(N + 1, dtype=np.int64), np.zeros(N + 1, dtype=np.int64)
    for i in range(1, N):
        d = min(i, N - i)
        k = reference_branch(Fraction(d, N))
        q, r = divmod(k**k * d ** (k - 1) * 2 ** (P * k), N ** (k - 1))
        L[i] = _iroot(q, k)
        U[i] = L[i] + (r != 0 or int(L[i]) ** k != q)
    return L, U, P


def certify_anchored_triples(N: int, L: np.ndarray, U: np.ndarray, P: int) -> tuple[int, int]:
    """(holds, fails): the triples a < b < c that surely hold, and surely fail,
    f(b) <= lam f(a) + (1 - lam) f(c) + (c - a)/N with lam = (c - b)/(c - a),
    for every f with L <= f * 2**P <= U.

    With i = b - a, j = c - b and den = c - a, times N * den * 2**P: a triple
    surely holds when N*den*U[b] <= N*(j*L[a] + i*L[c]) + den**2 * 2**P, and
    surely fails when N*den*L[b] > N*(j*U[a] + i*U[c]) + den**2 * 2**P.
    Every term is below 2**61, so int64 rows are exact.  The rest are
    undecided.
    """
    holds = fails = 0
    for b in range(1, N):
        a = np.arange(b, dtype=np.int64)[:, None]
        c = np.arange(b + 1, N + 1, dtype=np.int64)[None, :]
        i, j, den = b - a, c - b, c - a
        defect = (den * den) << P
        holds += int((N * den * U[b] <= N * (j * L[a] + i * L[c]) + defect).sum())
        fails += int((N * den * L[b] > N * (j * U[a] + i * U[c]) + defect).sum())
    return holds, fails


def exact_sup_p1(N: int) -> list[Fraction]:
    """The discrete sup of estimate_sup at p = 1, in Fractions, by policy iteration.

    Substituting g[0] = g[N] = 0 into the endpoint triples leaves, for each
    interior b, the constraints
        g[b] <= (b/c) g[c] + c/N                for c > b   (triple (0, b, c)),
        g[b] <= ((N-b)/(N-a)) g[a] + (N-a)/N    for a < b   (triple (a, b, N)),
    with g = 0 at 0 and N.  A policy picks one of them per b; its value
    follows the links b -> c or b -> a down to an end, a recursion rather
    than a solve (a policy whose links close a cycle raises).  Each round
    re-picks every b's least constraint at the current value, keeping its
    link on ties, from the full-span policy (0, b, N), whose value is 1,
    until no link changes; the value g then meets g = T(g), T the pointwise
    least of the constraints.

    Why g, when a member, is the sup.  Every member f of the class
    has f[0], f[N] <= 0, so it satisfies each constraint (the dropped terms
    lam*f[0] and (1-lam)*f[N] are <= 0): f <= T(f) on the interior, with f
    taken as 0 at the ends.  T is monotone and each coefficient is at most
    (N-1)/N < 1, so T contracts the sup norm and, by this maximum
    principle, f <= T(f) <= T(T(f)) <= ... -> g.  So g bounds every member
    pointwise, and when the exact scan finds g a member, g is the sup.
    """
    links = [[]] + [[(c, Fraction(b, c), Fraction(c, N)) for c in range(b + 1, N + 1)]
                    + [(a, Fraction(N - b, N - a), Fraction(N - a, N)) for a in range(b)] for b in range(1, N)]
    policy = [None] + [(N, Fraction(b, N), Fraction(1)) for b in range(1, N)]
    while True:
        g = {0: Fraction(0), N: Fraction(0)}
        for b in range(1, N):
            path = []
            while b not in g:
                if b in path:
                    raise ValueError(f"policy links close a cycle through {b}")
                path.append(b)
                b = policy[b][0]
            for b in reversed(path):
                t, w, s = policy[b]
                g[b] = w * g[t] + s
        new = [None] + [min(links[b], key=lambda x: (x[1] * g[x[0]] + x[2], x != policy[b])) for b in range(1, N)]
        if new == policy:
            return [g[b] for b in range(N + 1)]
        policy = new


def reference_majorant(x) -> tuple[float, int]:
    """(E(x), branch) with the branch chosen by reference_branch on the Fraction d(x) = min(x, 1 - x).

    The value is k * float(d)**(1 - 1/k), and E(0) = 0 is reported on branch 2;
    a float x is read as its exact Fraction.
    """
    xq = Fraction(x) if isinstance(x, (Fraction, int)) else Fraction(float(x))
    d = min(xq, 1 - xq)
    if d == 0:
        return 0.0, 2
    k = reference_branch(d)
    return k * float(d) ** (1.0 - 1.0 / k), k


def reference_bound(order: int, m: int, n: int, mb: int) -> tuple[float, bool]:
    """(order/m) * E(n/order) and whether mb lies below it, with E evaluated at the Fraction n/order.

    The value and branch k come from reference_majorant, and the flag is the
    integer test (m*mb)**k < k**k * d**(k-1) * order at d = min(n, order - n).
    """
    d = min(n, order - n)
    value, k = reference_majorant(Fraction(d, order))
    return (order / m) * value, (m * mb) ** k < k**k * d ** (k - 1) * order


def reference_mean_tuples(N: int, m: int, samples: int, seed: int) -> np.ndarray:
    """The m-tuples check_mean_inequality draws for m >= 3, each batch truncated as it is kept.

    Batches of max(4096, (samples - have) * (m + 1)) seeded draws from 0..N,
    kept where the sum is divisible by m, until `samples` tuples are held;
    each row is sorted.  This is the batch policy the sampler used before it
    drew fixed blocks of about 2**16 values, kept unchanged as the reference:
    the seeded stream does not depend on how it is split, so both keep the
    same tuples.
    """
    rng = np.random.default_rng(seed)
    collected, have = [], 0
    while have < samples:
        batch = max(4096, (samples - have) * (m + 1))
        draw = rng.integers(0, N + 1, size=(batch, m))
        keep = draw[draw.sum(axis=1) % m == 0]
        if have + len(keep) > samples:
            keep = keep[: samples - have]
        collected.append(keep)
        have += len(keep)
    return np.sort(np.vstack(collected), axis=1)
