"""Named (group, connection set) fixtures and batch bound verification.

The default catalog spans cyclic, homocyclic, and mixed-exponent groups at
exhaustive-search scale, plus one explicit-arc digraph fixture: the
bidirectional 6-cycle on which the abelian bound provably fails (it is a
Cayley graph of the non-abelian order-6 group generated by two
involutions).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cayley import AbelianGroup, ConnectionSet, GenericDigraph
from .isoperimetry import BOUND_TOL, _bound, digraph_profile, profile


@dataclass
class CatalogEntry:
    name: str
    group: AbelianGroup | None = None
    s: ConnectionSet | None = None
    digraph: GenericDigraph | None = None
    m: int | None = None

    @property
    def is_cayley(self) -> bool:
        return self.group is not None


def default_catalog_path() -> Path:
    return Path(str(resources.files("relconv").joinpath("data/catalog.json")))


def load_catalog(path: str | Path | None = None) -> list[CatalogEntry]:
    """Load catalog entries from JSON (the built-in catalog by default)."""
    raw = json.loads(Path(path or default_catalog_path()).read_text())
    entries = []
    for item in raw["entries"]:
        if "group" in item:
            group = AbelianGroup.parse(item["group"])
            entries.append(
                CatalogEntry(
                    name=item["name"],
                    group=group,
                    s=ConnectionSet.from_text(group, item["s"]),
                    m=item.get("m"),
                )
            )
        elif "digraph" in item:
            d = item["digraph"]
            entries.append(
                CatalogEntry(
                    name=item["name"],
                    digraph=GenericDigraph(d["n"], tuple((u, v) for u, v in d["arcs"])),
                    m=item.get("m"),
                )
            )
        else:
            raise ValueError(f"catalog entry {item.get('name')!r} has neither group nor digraph")
    return entries


@dataclass
class CatalogResults:
    rows: list[dict]
    violations: list[tuple[str, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_catalog(entries: list[CatalogEntry], order_cap: int = 32) -> CatalogResults:
    """Profile every catalog entry and collect bound violations.

    Cayley entries use the exhaustive profile with m = the largest element
    order of S (the sharpest valid exponent bound).  Digraph entries are
    profiled exhaustively too; when they carry an m the would-be bound is
    tabulated for comparison, but since the abelian hypothesis is unmet,
    sub-bound ratios there are expected and never counted as violations.
    Every row carries its fixture's measured profile time as wall_ms: one
    search serves all cardinalities, so there is no per-n time.
    """
    rows: list[dict] = []
    violations: list[tuple[str, int]] = []
    for entry in entries:
        t0 = time.perf_counter()
        if entry.is_cayley:
            report = profile(entry.group, entry.s, m_override=entry.m, order_cap=order_cap)
            wall_ms = (time.perf_counter() - t0) * 1e3
            for e in report.entries:
                rows.append(
                    {
                        "group": report.group,
                        "S": report.connection_set,
                        "n": e.n,
                        "min_boundary": e.min_boundary,
                        "bound": e.bound,
                        "ratio": e.ratio,
                        "witness": e.witness.hex(),
                        "wall_ms": wall_ms,
                    }
                )
                if report.hypothesis_met and e.min_boundary < e.bound - BOUND_TOL:
                    violations.append((entry.name, e.n))
        else:
            d = entry.digraph
            minima = digraph_profile(d)
            wall_ms = (time.perf_counter() - t0) * 1e3
            for n, (mb, witness) in enumerate(minima):
                if entry.m:
                    bound = _bound(d.n, entry.m, n)
                    ratio = mb / bound if bound > 0 else math.inf
                else:
                    bound = math.nan
                    ratio = math.nan
                rows.append(
                    {
                        "group": entry.name,
                        "S": "arc-list",
                        "n": n,
                        "min_boundary": mb,
                        "bound": bound,
                        "ratio": ratio,
                        "witness": witness.hex(),
                        "wall_ms": wall_ms,
                    }
                )
    return CatalogResults(rows=rows, violations=violations)
