"""Fixed pattern library and induced-subgraph detection.

``contains_induced`` finds the lexicographically smallest vertex subset
inducing a pattern by one pruned depth-first walk; its docstring gives the
argument.  Patterns are capped as the isomorphism test is and build their
pruning codes once; hosts are bounded only by ``MAX_VERTICES``.
``family_check`` scans every family in one loop over its patterns, the odd
holes and antiholes by ascending length, each built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .graphs import (
    Graph,
    _degree_code,
    _mapping_exists,
    check_cap,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)


@dataclass(frozen=True)
class Pattern:
    """A named forbidden graph, within the cap of ``is_isomorphic``.

    ``codes[j]`` holds the degree code of every j-vertex induced subgraph
    of ``graph``, for j = 0..n: the prefixes ``contains_induced`` extends.
    """

    name: str
    graph: Graph
    codes: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cap("is_isomorphic", self.graph.n)
        p = self.graph
        codes: list[set[int]] = [set() for _ in range(p.n + 1)]
        for mask in range(1 << p.n):
            codes[mask.bit_count()].add(_degree_code(p.adj, mask))
        object.__setattr__(self, "codes", tuple(map(frozenset, codes)))


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

    A depth-first walk adds host vertices in ascending order, so it meets
    the k-subsets (k = pattern order) in lexicographic order.  A prefix of
    j vertices carries its mask and its degree code, the sum of 16^deg over
    its induced degrees (a hex digit per degree; with at most 10 vertices
    no digit overflows, so the code is the degree multiset), and goes on
    only while the code is in ``pattern.codes[j]``.  The cut is sound:
    each j-subset of a copy of the pattern induces a j-vertex induced
    subgraph of it, so a cut prefix extends to no copy.  The walk thus
    meets every hitting k-subset in the order an uncut scan would, and its
    first hit is the lexicographically smallest.  Equal degree codes do not
    mean isomorphic (C6 and 2K3), so a full k-subset is decided by a
    degree-ranked backtracking search for an isomorphism onto the pattern.
    """
    p = pattern.graph
    k, n = p.n, g.n
    adj, codes = g.adj, pattern.codes
    degrees = [row.bit_count() for row in p.adj]
    chosen: list[int] = []

    def extend(start: int, mask: int, code: int) -> bool:
        depth = len(chosen)
        if depth == k:
            ranks = {v: (adj[v] & mask).bit_count() for v in chosen}
            return _mapping_exists(p, g, degrees, ranks)
        allowed = codes[depth + 1]
        for v in range(start, n - k + depth + 1):
            # v adds 16^deg(v) and lifts each neighbour u from 16^d to 16^(d+1).
            row = adj[v] & mask
            grown = code + (1 << 4 * row.bit_count())
            for u in chosen:
                if row >> u & 1:
                    grown += 15 << 4 * (adj[u] & mask).bit_count()
            if grown in allowed:
                chosen.append(v)
                if extend(v + 1, mask | 1 << v, grown):
                    return True
                chosen.pop()
        return False

    return frozenset(chosen) if extend(0, 0, 0) else None


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
        yield from _odd_hole_patterns(length)


@lru_cache(maxsize=None)
def _odd_hole_patterns(length: int) -> tuple[Pattern, Pattern]:
    """The hole and antihole of odd ``length``, built once per length."""
    hole = cycle_graph(length)
    return Pattern("C2k+1", hole), Pattern("co-C2k+1", complement(hole))


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
