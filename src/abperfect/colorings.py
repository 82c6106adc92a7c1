"""Vertex colorings and the three validators behind the five invariants.

A coloring assigns every vertex a color from 1..k and must use every
color at least once; non-surjective assignments are rejected outright
because the color count k is load-bearing in every definition built on
top (a silently compacted k would corrupt all of them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits


@dataclass(frozen=True)
class Coloring:
    """Surjective assignment of vertices 0..n-1 to colors 1..k."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if not self.colors:
            raise ValueError("coloring of the empty graph is undefined")
        k = max(self.colors)
        used = set(self.colors)
        if min(self.colors) < 1:
            raise ValueError("colors are 1-based")
        if used != set(range(1, k + 1)):
            missing = sorted(set(range(1, k + 1)) - used)
            raise ValueError(f"not surjective: colors {missing} unused")

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def k(self) -> int:
        return max(self.colors)

    def serialize(self) -> str:
        """Space-separated colors in vertex order, e.g. "1 2 3 1"."""
        return " ".join(str(c) for c in self.colors)


def _check_sizes(g: Graph, c: Coloring) -> None:
    if g.n != c.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge is monochromatic."""
    _check_sizes(g, c)
    return all(c.colors[u] != c.colors[v] for u, v in g.edges())


def is_complete_coloring(g: Graph, c: Coloring) -> bool:
    """True iff every pair of distinct colors appears on some edge."""
    _check_sizes(g, c)
    k = c.k
    seen: set[tuple[int, int]] = set()
    for u, v in g.edges():
        cu, cv = c.colors[u], c.colors[v]
        if cu != cv:
            seen.add((min(cu, cv), max(cu, cv)))
    return len(seen) == k * (k - 1) // 2


def is_grundy(g: Graph, c: Coloring) -> bool:
    """True iff proper and every vertex colored j sees all colors below j.

    Unlike properness and completeness this predicate is sensitive to the
    numbering of the color classes, not just the partition.
    """
    _check_sizes(g, c)
    if not is_proper(g, c):
        return False
    for v in range(g.n):
        below = set(range(1, c.colors[v]))
        for u in bits(g.adj[v]):
            below.discard(c.colors[u])
        if below:
            return False
    return True
