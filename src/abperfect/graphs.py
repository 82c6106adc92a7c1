"""Immutable small simple graphs over bitmask adjacency.

Vertices are labelled 0..n-1 and each adjacency row is a single int used
as a bitset, so every graph fits in a handful of machine words.  The hard
cap of 32 vertices is deliberate: all solvers built on top of this module
are exponential, and 32 is already far beyond their feasible range.

``Graph`` is a frozen dataclass checked in ``__post_init__``; all operations
are pure, so graphs can be shared freely between concurrent workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 32


class CapacityError(ValueError):
    """A size cap was exceeded (caps are hard errors, never silent fallbacks)."""


# Vertex cap of every capped operation, by the name its error message uses;
# ``MAX_VERTICES`` bounds the representation itself.
CAPS = {
    "canonical_form": 8,
    "canonical enumeration": 8,
    "is_isomorphic": 10,
    "is_ab_perfect": 10,
    "odd_holes_and_antiholes": 10,
    "cycle table": 12,
    "grundy_number": 13,
    "achromatic_number": 13,
    "pseudoachromatic_number": 13,
    "profile": 13,
    "lemma2 sweep": 13,
    "chromatic_number": 16,
}


def check_cap(name: str, n: int) -> None:
    """Raise ``TypeError`` unless n is an integer, ``CapacityError`` unless 1 <= n <= its cap."""
    cap = CAPS[name]
    if not 1 <= operator.index(n) <= cap:
        raise CapacityError(f"{name} capped at {cap} vertices, got {n}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degree_code(adj: Sequence[int], mask: int) -> int:
    """Sum of 16^deg over the vertices of ``mask``, degrees counted within it."""
    return sum(1 << 4 * (adj[v] & mask).bit_count() for v in bits(mask))


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmasks.

    Construction validates symmetry, irreflexivity and label range; use
    :func:`from_edge_list` or the named constructors rather than building
    adjacency rows by hand.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if not 1 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = tuple(self.adj)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions labels >= {n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "adj", rows)

    def __reduce__(self):
        # Unpickling calls Graph(n, adj), so it runs the checks too.
        return (Graph, (self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def _trusted(n: int, rows: tuple[int, ...]) -> Graph:
    """A graph the library built itself, skipping the checks of ``Graph.__post_init__``.

    Only for rows that are symmetric, loop-free and within 0..n-1 by
    construction; outside input goes through ``Graph`` and its checks.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse, order ignored.

    Rejects loops, endpoints outside 0..n-1, and n outside 1..32.  n is
    checked before any edge is read, so the named constructors below pass
    lazy edge generators and an oversized n fails at once.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop ({u},{v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint copies of g1 and g2 plus all cross edges."""
    n1, n2 = g1.n, g2.n
    if n1 + n2 > MAX_VERTICES:
        raise CapacityError(f"join of {n1}+{n2} vertices exceeds {MAX_VERTICES}")
    other1 = ((1 << n2) - 1) << n1
    other2 = (1 << n1) - 1
    rows = [g1.adj[v] | other1 for v in range(n1)]
    rows += [g2.adj[v] << n1 | other2 for v in range(n2)]
    return _trusted(n1 + n2, tuple(rows))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint copies of g1 and g2, no cross edges."""
    n1, n2 = g1.n, g2.n
    if n1 + n2 > MAX_VERTICES:
        raise CapacityError(f"union of {n1}+{n2} vertices exceeds {MAX_VERTICES}")
    return _trusted(n1 + n2, g1.adj + tuple(row << n1 for row in g2.adj))


def complement(g: Graph) -> Graph:
    """Edge present iff absent in g; an involution."""
    full = (1 << g.n) - 1
    return _trusted(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled to 0..k-1 in ascending order."""
    members = sorted(set(vertices))
    if not members:
        raise ValueError("induced subgraph on the empty set is undefined")
    if members[0] < 0 or members[-1] >= g.n:
        raise ValueError(f"vertices {members} not within 0..{g.n - 1}")
    return _induced(g, members)


def _induced(g: Graph, members: Sequence[int]) -> Graph:
    """``induced_subgraph`` on members that are already distinct, ascending and
    within 0..n-1, as the subset scan reads them from ``_MEMBERS``."""
    rows = []
    for v in members:
        row, sub = g.adj[v], 0
        for i, u in enumerate(members):
            if row >> u & 1:
                sub |= 1 << i
        rows.append(sub)
    return _trusted(len(members), tuple(rows))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertex set into components, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        out.append(frozenset(bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def universal_vertices(g: Graph) -> frozenset[int]:
    """All vertices adjacent to every other vertex (degree n-1)."""
    return frozenset(v for v in range(g.n) if g.adj[v].bit_count() == g.n - 1)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def empty_graph(n: int) -> Graph:
    return from_edge_list(n, [])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def k44_c7_graph() -> Graph:
    """K4,4 and C7 glued along one shared edge: 13 vertices, 22 edges.

    Parts {0..3} and {4..7} form the K4,4; the 7-cycle is
    0-4-8-9-10-11-12-0, sharing the edge 0-4 with the K4,4.  All five
    coloring invariants take distinct values (2,3,4,5,6) on this graph.
    Which K4,4 edge is shared is immaterial up to isomorphism because
    K4,4 is edge-transitive.
    """
    edges = [(i, 4 + j) for i in range(4) for j in range(4)]
    ring = [0, 4, 8, 9, 10, 11, 12]
    edges += [(ring[i], ring[(i + 1) % 7]) for i in range(1, 7)]
    return from_edge_list(13, edges)


# ---------------------------------------------------------------------------
# Isomorphism and canonical labelling
# ---------------------------------------------------------------------------


# _MEMBERS[row]: the vertices of an adjacency row, ascending, for every
# row of a graph on at most 10 vertices, the largest that ``_refine`` sees;
# the subset scan reads its vertex masks here too, up to its own cap of 10.
_MEMBERS: list[tuple[int, ...]] = [()]
for _v in range(CAPS["is_isomorphic"]):
    _MEMBERS += [members + (_v,) for members in _MEMBERS]
del _v


def _refine(g: Graph) -> tuple[list[int], int]:
    """Colour refinement: each vertex's cell in a stable partition, and an invariant.

    Cells start as degree classes and split by how many neighbours a
    vertex has in each cell, until no cell splits or every cell is a
    single vertex.  A vertex's neighbour counts are packed into one int by
    giving cell c the weight 2**(width*c).  Cell numbers are ranks of
    sorted isomorphism-invariant signatures, so an isomorphism maps each
    cell onto the cell of the same number.

    The invariant is the hash of the sorted final signatures: isomorphic
    graphs share it, and two graphs sharing it number their cells alike
    unless the hash collided.  Either way a cell-preserving mapping search
    (``_mapping_exists``) decides isomorphism exactly, since every
    isomorphism preserves the cells.
    """
    n = g.n
    width = n.bit_length()
    top = n * width
    neighbours = [_MEMBERS[row] for row in g.adj]
    signatures = [len(members) for members in neighbours]
    cells = 0
    while True:
        distinct = sorted(set(signatures))
        if len(distinct) == cells:
            break
        cell = list(map({s: i for i, s in enumerate(distinct)}.__getitem__, signatures))
        if len(distinct) == n:
            break
        cells = len(distinct)
        weight_of = [1 << width * c for c in cell].__getitem__
        signatures = [c << top | sum(map(weight_of, nb)) for c, nb in zip(cell, neighbours)]
    return cell, hash(tuple(sorted(signatures)))


def _canonical_search(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Minimum adjacency code and automorphisms generating Aut(g).

    The code is the minimum column-major adjacency code over the vertex
    orderings that list the refinement cells in ascending order, an
    isomorphism-invariant family.  Twins, vertices whose neighbourhoods
    agree apart from each other, are swapped by an automorphism that keeps
    every code, so each class of twins is placed in label order.  When
    that leaves one ordering (always when the partition is discrete) its
    code is the answer; otherwise a search with prefix pruning visits the
    orderings whose columns can still tie the best.  Two visited orderings
    with equal codes differ by an automorphism; those and the swaps of
    consecutive twins are collected, and together they generate Aut(g).
    """
    n, adj = g.n, g.adj
    cell, _ = _refine(g)
    order = sorted(range(n), key=cell.__getitem__)
    neighbours = [_MEMBERS[row] for row in adj]
    found: dict[tuple[int, ...], None] = {}
    # before[v]: the twins of v with smaller labels, all placed before v.
    before = [0] * n
    if len(set(cell)) < n:
        twin_classes: dict[int, int] = {}
        for v in range(n):
            for key in (adj[v], adj[v] | 1 << v):
                twins = twin_classes.get(key, 0)
                before[v] |= twins
                twin_classes[key] = twins | 1 << v
            if before[v]:
                image = list(range(n))
                u = before[v].bit_length() - 1
                image[u], image[v] = v, u
                found[tuple(image)] = None
    # A vertex at position i weighs 2**(n-1-i), so the summed weights of
    # a vertex's placed neighbours compare as its column of the code does.
    weight = [0] * n
    get_weight = weight.__getitem__
    if all(cell[u] != cell[v] or before[v] >> u & 1 for u, v in zip(order, order[1:])):
        for i, v in enumerate(order):
            weight[v] = 1 << (n - 1 - i)
        code = 0
        for j, v in enumerate(order):
            code = code << j | sum(map(get_weight, neighbours[v])) >> (n - j)
        return code, list(found)
    members: dict[int, list[int]] = {}
    for v in order:
        members.setdefault(cell[v], []).append(v)
    group_at = [members[cell[v]] for v in order]
    big = 1 << n
    best = [big] * n
    placed: list[int] = []
    first: list[int] | None = None

    def place(depth: int, placed_mask: int) -> None:
        nonlocal first
        if depth == n:
            if first is None:
                first = placed.copy()
            else:
                image = [0] * n
                for u, v in zip(first, placed):
                    image[u] = v
                found[tuple(image)] = None
            return
        here = 1 << (n - 1 - depth)
        for v in group_at[depth]:
            if placed_mask >> v & 1 or before[v] & ~placed_mask:
                continue
            col = sum(map(get_weight, neighbours[v]))
            if col > best[depth]:
                continue
            if col < best[depth]:
                best[depth] = col
                best[depth + 1:] = [big] * (n - depth - 1)
                first = None
            placed.append(v)
            weight[v] = here
            place(depth + 1, placed_mask | 1 << v)
            weight[v] = 0
            placed.pop()

    place(0, 0)
    code = 0
    for depth in range(1, n):
        code = code << depth | best[depth] >> (n - depth)
    return code, list(found)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte-string: equal for two graphs iff they are isomorphic.

    The bytes are an opaque key: the vertex count followed by the minimum
    adjacency code of ``_canonical_search``.  Capped at 8 vertices, where
    even a search of all 40320 orderings is quick.
    """
    n = g.n
    check_cap("canonical_form", n)
    code, _ = _canonical_search(g)
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8 or 1, "big")


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Distinct non-identity automorphisms generating Aut(g), as vertex images."""
    return _canonical_search(g)[1]


def _mapping_exists(g1: Graph, g2: Graph, ranks1: list[int], ranks2: dict[int, int]) -> bool:
    """Backtracking search for a bijection from g1 onto the vertices keyed in
    ``ranks2``, mapping each vertex to one of equal rank and preserving
    adjacency and non-adjacency: whether those vertices induce a copy of g1.

    With vertices 0..v-1 of g1 placed on the vertices of ``used``, v may go
    to an unused w of its rank exactly when w's neighbours among ``used``
    are the images of v's earlier neighbours.
    """
    n = g1.n
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        row, rank, want = g1.adj[v], ranks1[v], 0
        for u in range(v):
            if row >> u & 1:
                want |= 1 << image[u]
        for w, rank_w in ranks2.items():
            if rank_w == rank and not used >> w & 1 and g2.adj[w] & used == want:
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: the refinement invariant, then a cell-preserving search."""
    check_cap("is_isomorphic", max(g1.n, g2.n))
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    (cells1, key1), (cells2, key2) = _refine(g1), _refine(g2)
    if key1 != key2:
        return False
    return _mapping_exists(g1, g2, cells1, dict(enumerate(cells2)))
