"""Exhaustive edge-isoperimetric profiles and the abelian lower bound.

For a Cayley digraph on a finite abelian group G with generating
connection set S whose element orders are at most m, every vertex subset A
satisfies

    boundary(A) >= (1/m) * |G| * E(|A| / |G|),

with E the extremal majorant.  This module computes exact isoperimetric
profiles (minimum boundary over all subsets of each cardinality) by
exhaustive search, compares them against the bound, and tabulates
tightness ratios.

One bit-parallel kernel serves Cayley digraphs and explicit arc lists.  A
digraph is split into layers, maps in which every vertex has at most one
outgoing arc: a Cayley element e is the total map x -> x + e, and an arc
list puts the k-th arc leaving each vertex into layer k.  Subsets are
uint64 bitmasks enumerated in blocks of 2^16, so memory stays flat.  For
each layer f the preimage P(A) = f^-1(A) is the OR of a lookup table over
the low 16 mask bits and a per-block constant for the rest, and A loses
popcount(A & dom f & ~P(A)) arcs to the outside.  The per-cardinality
minimum and its lexicographically first witness come from one packed-key
reduction per block.

Cayley enumeration is canonicalized to sets containing the identity: the
boundary is translation invariant, and every translation orbit contains
such a set, so the minimum is preserved while the work halves.  Arc lists
need not be vertex-transitive and are searched over all 2^n subsets.  The
kernel refuses graphs of either kind past ORDER_CAP vertices.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cayley import (
    AbelianGroup,
    ConnectionSet,
    GenericDigraph,
    VertexSet,
    _warn_caller,
    max_order,
)
from .extremal import _majorant_at

# Largest graph the exhaustive search accepts: 2^31 identity-containing
# subsets of a Cayley digraph, 2^32 subsets of an arc list.
ORDER_CAP = 32


@dataclass(frozen=True)
class ProfileEntry:
    """Per-cardinality result: exact minimum boundary, witness, bound, ratio, and whether the minimum is below it."""

    n: int
    min_boundary: int
    witness: VertexSet
    bound: float
    ratio: float
    below_bound: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "min_boundary": self.min_boundary,
            "witness": self.witness.hex(),
            "bound": self.bound,
            "ratio": None if math.isinf(self.ratio) else self.ratio,
        }


@dataclass
class ProfileReport:
    """The profile of one graph: a Cayley digraph of an abelian group, or an arc list."""

    group: str
    connection_set: str
    order: int
    m: int | None
    hypothesis_met: bool
    entries: list[ProfileEntry]
    subsets_enumerated: int
    subsets_pruned: int
    wall_ms: float

    def bound_violations(self) -> list[int]:
        return [e.n for e in self.entries if e.below_bound]

    def rows(self) -> list[dict]:
        """One CSV row per cardinality, each with the search's wall_ms; ratio is inf where the bound is 0."""
        return [{"group": self.group, "S": self.connection_set, "n": e.n, "min_boundary": e.min_boundary,
                 "bound": e.bound, "ratio": e.ratio, "witness": e.witness.hex(), "wall_ms": self.wall_ms}
                for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "connection_set": self.connection_set,
            "order": self.order,
            "m": self.m,
            "hypothesis_met": self.hypothesis_met,
            "entries": [e.to_dict() for e in self.entries],
            "bound_violations": self.bound_violations(),
            "stats": {
                "subsets_enumerated": self.subsets_enumerated,
                "subsets_pruned": self.subsets_pruned,
                "wall_ms": self.wall_ms,
            },
        }


_BLOCK_BITS = 16  # blocks of 2^16 masks: 512 KiB per uint64 array


def _or_table(bits: np.ndarray) -> np.ndarray:
    """table[:, x] = OR of bits[:, p] over the set bits p of x, built by doubling."""
    table = np.zeros((bits.shape[0], 1 << bits.shape[1]), dtype=np.uint64)
    for p in range(bits.shape[1]):
        np.bitwise_or(table[:, : 1 << p], bits[:, p, None], out=table[:, 1 << p : 2 << p])
    return table


@functools.lru_cache(maxsize=_BLOCK_BITS + 1)
def _low_parts(w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All w-bit masks sorted by popcount, the sorting order, and each popcount's first index."""
    low = np.arange(1 << w, dtype=np.uint64)
    by_size = np.argsort(np.bitwise_count(low), kind="stable")
    low = low[by_size]
    starts = np.searchsorted(np.bitwise_count(low), np.arange(w + 1))
    for a in (low, by_size, starts):
        a.flags.writeable = False
    return low, by_size, starts


def _subset_minima(order: int, layers: Iterable[tuple[Sequence, Sequence]], identity: bool) -> list[tuple[int, int]]:
    """(minimum boundary, lex-first witness bits) for every cardinality 0..order.

    layers, any iterable, yields pairs of index sequences (src, dst) naming
    arcs src -> dst, with every source at most once.  With identity=True only
    the sets that contain vertex 0 are enumerated, and cardinality 0 is
    (0, 0).  Past ORDER_CAP vertices it raises ValueError before reading layers.

    Masks hold vertex v at bit order-1-v, so that among sets of one size the
    lex-first sorted tuple, which owns the lowest differing vertex, is the
    largest mask.  Each mask is keyed (boundary << order) | ~mask, and the
    smallest key per cardinality is the minimum with its lex-first witness.
    """
    if order > ORDER_CAP:
        raise ValueError(f"order {order} exceeds exhaustive-search cap {ORDER_CAP}")
    layers = list(layers)
    arcs = sum(len(src) for src, _ in layers)
    if order + arcs.bit_length() > 64:
        raise ValueError(f"{order} vertices and {arcs} arcs exceed the 64-bit search keys")
    full = (1 << order) - 1
    # pre[l, p]: the vertices whose layer-l image sits at bit p
    pre = np.zeros((len(layers), order), dtype=np.uint64)
    off_domain = np.full((len(layers), 1), full, dtype=np.uint64)
    for i, (src, dst) in enumerate(layers):
        src_bits = np.uint64(1) << (order - 1 - np.asarray(src)).astype(np.uint64)
        np.bitwise_or.at(pre[i], order - 1 - np.asarray(dst), src_bits)
        off_domain[i] &= ~np.bitwise_or.reduce(src_bits)

    # A mask is a block prefix `high` OR'ed with one of 2^w block-local `low`
    # parts.  Preimages distribute over OR, so each layer's preimage is a
    # table over the low parts OR'ed with a per-block constant, which also
    # covers the vertices outside the layer's domain.  The low parts are
    # sorted by popcount, so each cardinality of a block is one reduceat run.
    free = order - 1 if identity else order
    w = min(free, _BLOCK_BITS)
    low, by_size, starts = _low_parts(w)
    not_low_pre = ~np.take(_or_table(pre[:, :w]), by_size, axis=1)
    highs = np.arange(1 << (free - w), dtype=np.uint64) << np.uint64(w)
    high_pre = _or_table(pre[:, w:free]) | off_domain
    if identity:
        highs |= np.uint64(1 << (order - 1))
        high_pre |= pre[:, order - 1, None]
    not_high_pre = ~high_pre

    best = np.full(order + 1, np.iinfo(np.uint64).max, dtype=np.uint64)
    masks, departed, key = np.empty_like(low), np.empty_like(low), np.empty_like(low)
    for h, high in enumerate(highs):
        np.bitwise_or(low, high, out=masks)
        key.fill(0)
        for i in range(len(layers)):
            np.bitwise_and(masks, not_high_pre[i, h], out=departed)
            departed &= not_low_pre[i]
            key += np.bitwise_count(departed)
        key <<= np.uint64(order)
        np.bitwise_xor(masks, np.uint64(full), out=departed)
        key |= departed
        k = int(np.bitwise_count(high))
        np.minimum(best[k : k + w + 1], np.minimum.reduceat(key, starts), out=best[k : k + w + 1])

    result = [(0, 0)] if identity else []
    for packed in best[len(result) :].tolist():
        bits = (packed & full) ^ full
        result.append((packed >> order, int(f"{bits:0{order}b}"[::-1], 2) if order else 0))
    return result


def boundary_lower_bound(
    group: AbelianGroup,
    s: ConnectionSet,
    n: int,
    m_override: int | None = None,
) -> float:
    """(1/m) * |G| * E(n/|G|) with m the largest element order in S by default.

    Any m_override must be at least that maximum (a smaller value is not a
    valid exponent bound and is rejected).
    """
    order = group.order
    if not 0 <= n <= order:
        raise ValueError(f"cardinality {n} out of range for group order {order}")
    return _bound(order, _exponent(group, s, m_override), n, 0)[0]


def _exponent(group: AbelianGroup, s: ConnectionSet, m_override: int | None) -> int:
    """m_override, or by default the largest element order in S, which it may not undercut."""
    least = max_order(group, s)
    m = least if m_override is None else int(m_override)
    if m < least:
        raise ValueError(f"m={m} is smaller than the maximal element order {least} of S")
    return m


def _bound(order: int, m: int, n: int, mb: int) -> tuple[float, bool]:
    """(order/m) * E(n/order), the bound on the boundary of an n-subset, and whether mb lies below it.

    With d = min(n, order - n) and (e, k) = _majorant_at(d, order), the bound
    is (order/m) * e, so mb lies below it exactly when
    (m*mb)**k < k**k * d**(k-1) * order: an integer test, with no tolerance.
    """
    d = min(n, order - n)
    e, k = _majorant_at(d, order)
    return (order / m) * e, (m * mb) ** k < k**k * d ** (k - 1) * order


def _report(group: str, connection_set: str, order: int, m: int | None, layers, cayley: bool) -> ProfileReport:
    """Search the digraph that layers give (see _subset_minima) and report its profile.

    A Cayley digraph of an abelian group (cayley) is searched over the sets
    that hold the identity, which suffices as its boundary is translation
    invariant, and it meets the bound's hypothesis iff S generates:
    a nonempty proper A has boundary 0 iff A + S lies in A, that is, iff A is
    a union of cosets of <S>, so S generates G iff every interior minimum is
    positive.  Any other digraph is searched over all subsets and never meets
    the hypothesis.  Without an m, bound and ratio are nan and no cell lies
    below the bound.
    """
    t0 = time.perf_counter()
    entries = []
    for n, (mb, bits) in enumerate(_subset_minima(order, layers, identity=cayley)):
        bound, below = _bound(order, m, n, mb) if m else (math.nan, False)
        entries.append(ProfileEntry(n, mb, VertexSet(bits, order), bound, math.inf if bound == 0 else mb / bound, below))
    wall_ms = (time.perf_counter() - t0) * 1e3
    generating = cayley and all(e.min_boundary for e in entries[1:-1])
    # the nonempty proper subsets searched: those that hold the identity, or all
    enumerated = 2 ** (order - 1) - 1 if cayley else 2**order - 2
    return ProfileReport(group, connection_set, order, m, generating, entries,
                         enumerated, 2**order - 2 - enumerated, wall_ms)


def profile(group: AbelianGroup, s: ConnectionSet, m_override: int | None = None) -> ProfileReport:
    """Full isoperimetric profile for n = 0..|G| with bound and ratios.

    One kernel pass over the identity-containing subsets serves every
    cardinality and tells whether S generates the group; the result is
    deterministic for a given (group, S).  With generating S a bound violation
    is mathematically impossible and raises RuntimeError; with non-generating S
    the entries are computed anyway and violations are merely reported.  Groups
    of more than ORDER_CAP elements raise ValueError before a shift table of S is built.
    """
    order = group.order
    m = _exponent(group, s, m_override)
    layers = ((range(order), group.shift_table(e)) for e in s)
    report = _report(group.describe(), s.describe(), order, m, layers, cayley=True)
    if not report.hypothesis_met:
        _warn_caller(f"S={s.describe()} does not generate {group.describe()}; bound hypothesis unmet")
    elif report.bound_violations():
        raise RuntimeError(
            f"bound violated on {group.describe()} with generating S={s.describe()}: "
            f"n in {report.bound_violations()}"
        )
    return report


def digraph_profile(d: GenericDigraph, m: int | None = None, name: str = "digraph") -> ProfileReport:
    """Profile report of an explicit digraph for n = 0..d.n, labelled name.

    Without an m, bound and ratio are nan.  The k-th arc leaving each vertex
    goes to layer k, so parallel arcs and unequal out-degrees are counted
    exactly.  Arc lists need not be vertex-transitive, so all 2^n subsets are searched.
    """
    layers: list[tuple[list[int], list[int]]] = []
    last_layer: dict[int, int] = {}  # per vertex with arcs: O(arcs), not O(n)
    for u, v in d.arcs:
        k = last_layer[u] = last_layer.get(u, -1) + 1
        if k == len(layers):
            layers.append(([], []))
        layers[k][0].append(u)
        layers[k][1].append(v)
    return _report(name, "arc-list", d.n, m, layers, cayley=False)


def six_cycle_counterexample() -> tuple[int, float]:
    """Boundary vs. would-be bound of one vertex of the bidirectional 6-cycle.

    The 6-cycle arises as a Cayley graph of a non-abelian group of order 6
    generated by two involutions (m = 2); a single vertex has boundary 2,
    strictly below (1/2)*6*E(1/6).  Returns (boundary, bound), read off the
    cycle's profile, after checking that the bound really does fail.
    """
    cell = digraph_profile(GenericDigraph.bidirectional_cycle(6), 2).entries[1]
    if not cell.below_bound:
        raise RuntimeError(f"expected failure of the bound, got {cell.min_boundary} >= {cell.bound}")
    return cell.min_boundary, cell.bound
