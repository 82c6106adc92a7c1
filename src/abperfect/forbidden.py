"""Fixed pattern library and induced-subgraph detection.

Detection is plain subset enumeration plus an isomorphism check against
the pattern: hosts here have at most 13 vertices and the fixed patterns at
most 6, so C(13,6) ~ 1716 subsets is negligible and the approach is
transparent.  Patterns are capped as the isomorphism test is.
Witnesses are the lexicographically smallest hitting subset, which makes
every report deterministic.  ``family_check`` scans every family in one
loop over its patterns, the odd holes and antiholes by ascending length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import (
    Graph,
    check_cap,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    is_isomorphic,
    path_graph,
)

@dataclass(frozen=True)
class Pattern:
    """A named forbidden graph, within the cap of ``is_isomorphic``."""

    name: str
    graph: Graph

    def __post_init__(self):
        check_cap("is_isomorphic", self.graph.n)


_K2 = complete_graph(2)

PATTERNS: dict[str, Pattern] = {
    "C4": Pattern("C4", cycle_graph(4)),
    "P4": Pattern("P4", path_graph(4)),
    "P3+K2": Pattern("P3+K2", disjoint_union(path_graph(3), _K2)),
    "3K2": Pattern("3K2", disjoint_union(disjoint_union(_K2, _K2), _K2)),
}

# Finite families scan their members in the listed order.
FAMILIES: dict[str, tuple[str, ...]] = {
    "omega_psi_quartet": ("C4", "P4", "P3+K2", "3K2"),
    "p4_only": ("P4",),
    "achro_triple": ("P4", "P3+K2", "3K2"),
    "odd_holes_and_antiholes": ("C2k+1", "co-C2k+1"),
}


@dataclass(frozen=True)
class FreeReport:
    """Outcome of scanning one forbidden family over a host graph."""

    family: tuple[str, ...]
    witness: tuple[str, frozenset[int]] | None

    @property
    def free(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        out: dict = {"family": list(self.family), "free": self.free}
        if self.witness is None:
            out["witness"] = None
        else:
            name, vertices = self.witness
            out["witness"] = {"pattern": name, "vertices": sorted(vertices)}
        return out


def contains_induced(g: Graph, pattern: Pattern) -> frozenset[int] | None:
    """Lexicographically smallest vertex subset inducing ``pattern``, if any.

    A subset is built and tested for isomorphism only when its induced
    degree sequence, counted on the host's adjacency rows, is the pattern's.
    """
    p = pattern.graph
    if p.n > g.n:
        return None
    target_degrees = sorted(row.bit_count() for row in p.adj)
    adj = g.adj
    singles = [1 << v for v in range(g.n)]
    for subset, members in zip(combinations(range(g.n), p.n), combinations(singles, p.n)):
        mask = sum(members)
        if sorted((adj[v] & mask).bit_count() for v in subset) != target_degrees:
            continue
        if is_isomorphic(induced_subgraph(g, subset), p):
            return frozenset(subset)
    return None


def _scan_order(g: Graph, family: str) -> Iterator[Pattern]:
    """The patterns of ``family`` to find in g, in scan order.

    Odd holes and antiholes go by ascending length up to g.n, hole before
    antihole at each length.  The longest has g.n vertices, so their cap
    depends on g.n alone; it is checked before the scan, and a host over
    it raises even with a short hole.
    """
    if family != "odd_holes_and_antiholes":
        yield from (PATTERNS[name] for name in FAMILIES[family])
        return
    check_cap("odd_holes_and_antiholes", g.n)
    for length in range(5, g.n + 1, 2):
        hole = cycle_graph(length)
        yield Pattern("C2k+1", hole)
        yield Pattern("co-C2k+1", complement(hole))


def family_check(g: Graph, family: str) -> FreeReport:
    """Scan one named family, reporting the first witness in family order."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {sorted(FAMILIES)}")
    members = FAMILIES[family]
    for pattern in _scan_order(g, family):
        hit = contains_induced(g, pattern)
        if hit is not None:
            return FreeReport(members, (pattern.name, hit))
    return FreeReport(members, None)
