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
