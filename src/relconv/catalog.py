"""Named (group, connection set) fixtures and batch bound verification.

The default catalog spans cyclic, homocyclic, and mixed-exponent groups at
exhaustive-search scale, plus one explicit-arc digraph fixture: the
bidirectional 6-cycle on which the abelian bound provably fails (it is a
Cayley graph of the non-abelian order-6 group generated by two
involutions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cayley import AbelianGroup, ConnectionSet, GenericDigraph
from .isoperimetry import ProfileReport, digraph_profile, profile


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


def default_catalog_path() -> resources.abc.Traversable:
    """The built-in catalog, readable with read_text() from a directory or a zip install."""
    return resources.files("relconv").joinpath("data/catalog.json")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# The JSON type of each catalog value: (what the error names, the check).
_TYPES = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "group": ("a string", lambda v: isinstance(v, str)),
    "s": ("a string", lambda v: isinstance(v, str)),
    "digraph": ("an object", lambda v: isinstance(v, dict)),
    "n": ("a positive int", lambda v: _is_int(v) and v > 0),
    "arcs": ("a list of [int, int] pairs", lambda v: isinstance(v, list)
             and all(isinstance(a, list) and len(a) == 2 and all(map(_is_int, a)) for a in v)),
    "m": ("a positive int", lambda v: _is_int(v) and v > 0),
}


def _get(i: int, obj: dict, key: str):
    """obj[key] of catalog entry i, of the JSON type _TYPES names (KeyError when absent)."""
    want, ok = _TYPES[key]
    if not ok(obj[key]):
        raise ValueError(f"catalog entry {i}: {key!r} must be {want}, got {obj[key]!r}")
    return obj[key]


def _build(i: int, make, *args):
    """make(*args), with a ValueError it raises reraised naming catalog entry i."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"catalog entry {i}: {exc}") from None


def load_catalog(path: str | Path | None = None) -> list[CatalogEntry]:
    """Load catalog entries from JSON (the built-in catalog by default).

    The file is outside input: a catalog without entries, an entry that
    lacks a key its kind needs, a value of the wrong JSON type, a group or
    connection set that does not parse, or a digraph with an arc out of
    range raises ValueError naming the entry's index.
    """
    raw = json.loads((Path(path) if path else default_catalog_path()).read_text())
    items = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(items, list) or not items:
        raise ValueError("catalog has no entries")
    entries = []
    for i, item in enumerate(items):
        try:
            if not isinstance(item, dict):
                raise ValueError(f"catalog entry {i} is not an object")
            name = _get(i, item, "name")
            m = _get(i, item, "m") if "m" in item else None
            if "group" in item:
                gtext, stext = _get(i, item, "group"), _get(i, item, "s")
                group = _build(i, AbelianGroup.parse, gtext)
                s = _build(i, ConnectionSet.from_text, group, stext)
                entries.append(CatalogEntry(name, group=group, s=s, m=m))
            elif "digraph" in item:
                d = _get(i, item, "digraph")
                digraph = _build(i, GenericDigraph, _get(i, d, "n"), tuple(_get(i, d, "arcs")))
                entries.append(CatalogEntry(name, digraph=digraph, m=m))
            else:
                raise ValueError(f"catalog entry {i} ({name!r}) has neither group nor digraph")
        except KeyError as exc:
            raise ValueError(f"catalog entry {i} lacks key {exc}") from None
    return entries


def verify_catalog(entries: list[CatalogEntry]) -> list[ProfileReport]:
    """One profile report per catalog entry, in catalog order.

    Cayley entries get profile's m (the largest element order of S) unless
    they name one, and raise RuntimeError on a bound violation with
    generating S.  Digraph entries are labelled with their name; an m they
    carry tabulates the would-be bound, whose abelian hypothesis they do not meet.
    A ValueError an entry raises (an m below S's largest element order, a
    graph past the search cap) is reraised naming the entry's index.
    """
    return [
        _build(i, profile, e.group, e.s, e.m) if e.is_cayley else _build(i, digraph_profile, e.digraph, e.m, e.name)
        for i, e in enumerate(entries)
    ]
