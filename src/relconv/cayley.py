"""Finite abelian groups, Cayley connection sets, and exact edge boundaries.

Groups are direct products of cyclic groups; elements are indexed
0..order-1 by mixed-radix encoding of their coordinate tuples.  Vertex
subsets are bitsets, and the directed edge boundary of A under connection
set S counts pairs (a, s) with a in A and a+s outside A.  A tiny generic
digraph type carries the one non-abelian fixture (a bidirectional cycle)
used to show the abelian bound does not survive dropping commutativity.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _warn_caller(message: str) -> None:
    """Warn at the first frame outside this package: the line of the library's caller."""
    level, frame = 1, sys._getframe()
    while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


class AbelianGroup:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nr}, held as its factors: O(rank) state.

    Element g in 0..order-1 has coordinates g // p_i % n_i, with place values
    p_i = n1 * ... * n_{i-1}: the first factor is the least significant digit.
    """

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 2 for n in factors):
            raise ValueError(f"cyclic factors must all be >= 2, got {factors}")
        self.factors = factors
        self.order = math.prod(factors)
        self._places = tuple(math.prod(factors[:i]) for i in range(len(factors)))

    def coords(self, g: int) -> tuple[int, ...]:
        if not 0 <= g < self.order:
            raise IndexError(f"element {g} out of range for order {self.order}")
        return tuple(g // p % n for p, n in zip(self._places, self.factors))

    def index(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factors):
            raise ValueError(f"element {tuple(coords)} has {len(coords)} coordinate(s), "
                             f"{self.describe()} has rank {len(self.factors)}")
        return sum(c % n * p for c, n, p in zip(coords, self.factors, self._places))

    def add(self, a: int, b: int) -> int:
        return self.index([x + y for x, y in zip(self.coords(a), self.coords(b))])

    def neg(self, a: int) -> int:
        return self.index([-x for x in self.coords(a)])

    def shift_table(self, s: int) -> np.ndarray:
        """Permutation table t with t[x] = x + s, added per mixed-radix digit."""
        # the first factor is the least significant digit: numpy's order="F"
        digits = np.unravel_index(np.arange(self.order), self.factors, order="F")
        shifted = [(d + c) % n for d, c, n in zip(digits, self.coords(s), self.factors)]
        return np.ravel_multi_index(shifted, self.factors, order="F")

    def describe(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({self.describe()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Parse group strings like 'Z4xZ2' or '4x2'."""
        parts = re.split(r"[xX]", text.strip())
        factors = []
        for p in parts:
            m = re.fullmatch(r"[zZ]?(\d+)", p.strip())
            if not m:
                raise ValueError(f"cannot parse group token {p!r} in {text!r}")
            factors.append(int(m.group(1)))
        return cls(factors)


class ConnectionSet:
    """Sorted duplicate-free set of group element indices.

    The identity is permitted (the boundary definition allows it) but
    flagged with a warning since a+0 never leaves A.
    """

    def __init__(self, group: AbelianGroup, elements: Iterable[int]):
        self.group = group
        elems = sorted(set(int(e) for e in elements))
        if any(e < 0 or e >= group.order for e in elems):
            raise ValueError(f"connection-set element out of range for {group.describe()}")
        if 0 in elems:
            _warn_caller("connection set contains the identity; it contributes no boundary edges")
        self.elements = tuple(elems)

    @classmethod
    def from_coords(cls, group: AbelianGroup, coords: Iterable[Sequence[int]]) -> "ConnectionSet":
        return cls(group, (group.index(c) for c in coords))

    @classmethod
    def basis(cls, group: AbelianGroup) -> "ConnectionSet":
        """Standard generating set: one unit vector per cyclic factor."""
        rank = len(group.factors)
        vecs = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        return cls.from_coords(group, vecs)

    @classmethod
    def from_text(cls, group: AbelianGroup, text: str) -> "ConnectionSet":
        """Parse '(1,0),(0,1)', bare '1,5' (rank-1 groups), or 'basis'; each field is an integer literal."""
        text = text.strip()
        if text.lower() == "basis":
            return cls.basis(group)

        def field(t: str) -> int:
            try:
                return int(t)
            except ValueError:
                raise ValueError(f"cannot parse connection-set field {t.strip()!r} in {text!r}") from None

        if "(" in text:
            if not re.fullmatch(r"\([^()]*\)(\s*,\s*\([^()]*\))*", text):
                raise ValueError(f"cannot parse connection set {text!r}")
            tuples = re.findall(r"\(([^()]*)\)", text)
            return cls.from_coords(group, [tuple(map(field, grp.split(","))) for grp in tuples])
        if len(group.factors) != 1:
            raise ValueError(f"bare integers only name elements of rank-1 groups: {text!r}")
        return cls.from_coords(group, [(field(t),) for t in text.split(",")])

    def describe(self) -> str:
        return ",".join("(" + ",".join(map(str, self.group.coords(e))) + ")" for e in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"ConnectionSet[{self.describe()}]"


@dataclass(frozen=True)
class VertexSet:
    """Subset of vertices 0..size-1 encoded as an integer bitset."""

    bits: int
    size: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.size:
            raise ValueError(f"bitset 0x{self.bits:x} out of range for {self.size} vertices")

    @classmethod
    def from_indices(cls, indices: Iterable[int], size: int) -> "VertexSet":
        bits = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"vertex {i} out of range")
            bits |= 1 << i
        return cls(bits, size)

    def indices(self) -> list[int]:
        return [i for i in range(self.size) if self.bits >> i & 1]

    def contains(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def hex(self) -> str:
        return f"0x{self.bits:x}"


def element_order(group: AbelianGroup, g: int) -> int:
    """Order of element g: lcm over coordinates of n_i / gcd(g_i, n_i)."""
    return math.lcm(*(n // math.gcd(c, n) for c, n in zip(group.coords(g), group.factors)))


def max_order(group: AbelianGroup, s: ConnectionSet) -> int:
    """Largest element order in S (the least valid exponent bound)."""
    if len(s) == 0:
        raise ValueError("connection set is empty")
    return max(element_order(group, e) for e in s)


def edge_boundary(group: AbelianGroup, s: ConnectionSet, a: VertexSet) -> int:
    """Count pairs (x, e) with x in A and x + e outside A, by a double loop over A x S.

    It adds through group.add, not the shift tables, so it stays an oracle
    independent of the subset-search kernel.
    """
    if a.size != group.order:
        raise ValueError(f"vertex set size {a.size} != group order {group.order}")
    return sum(1 for x in a.indices() for e in s if not a.contains(group.add(x, e)))


@dataclass(frozen=True)
class GenericDigraph:
    """Explicit arc-list digraph (parallel arcs allowed)."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a digraph needs at least one vertex, got n = {self.n}")
        object.__setattr__(self, "arcs", tuple((int(u), int(v)) for u, v in self.arcs))
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range for {self.n} vertices")

    @classmethod
    def bidirectional_cycle(cls, n: int) -> "GenericDigraph":
        arcs = []
        for i in range(n):
            arcs.append((i, (i + 1) % n))
            arcs.append(((i + 1) % n, i))
        return cls(n, tuple(arcs))

