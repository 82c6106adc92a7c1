"""ab-perfectness checking and the structural recognizer.

``is_ab_perfect`` decides a(H) = b(H) on every induced subgraph H by one
subset scan whose first violation is minimal.  Its docstring gives the
scan's one list of triangle codes, its per-size memos and the deletion
sandwich, proved in ROADMAP item 3, that settles most subsets with no
solve or with one step of ``solvers.INVARIANT_STEPS``.
``recognize_structure`` decides the recursive shape of the
omega-psi-perfect graphs, and ``decompose_trivially_perfect`` the
quasi-threshold one; ``StructureTree`` lists the node kinds of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .graphs import (
    _MEMBERS,
    Graph,
    _induced,
    check_cap,
    complete_graph,
    connected_components,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_connected,
    join,
    universal_vertices,
)
from .solvers import INVARIANT_CHAIN, INVARIANT_STEPS


@dataclass(frozen=True)
class PerfectnessVerdict:
    """Result of one ab-perfect check, with a minimal counterexample if any."""

    pair: tuple[str, str]
    perfect: bool
    counterexample: tuple[frozenset[int], int, int] | None

    def to_dict(self) -> dict:
        out: dict = {"pair": list(self.pair), "perfect": self.perfect}
        if self.counterexample is None:
            out["counterexample"] = None
        else:
            vertices, a_val, b_val = self.counterexample
            out["counterexample"] = {
                "vertices": sorted(vertices),
                "a_value": a_val,
                "b_value": b_val,
            }
        return out


def is_ab_perfect(g: Graph, a: str, b: str) -> PerfectnessVerdict:
    """Check a(H) = b(H) on every induced subgraph of g.

    Subsets are scanned by size then lexicographically; the first
    violating subset is returned, and minimality is automatic.  Each size
    is a level list of vertex bitmasks in lex order, at most
    C(10, 5) = 252 of them: extending each mask by every u above its last
    vertex, its top bit, gives the next size in the order of
    ``combinations``.  One list of 2^n ints, indexed by vertex bitmask,
    holds what a subset S passes on: ``code[S]``, its upper triangle
    relabelled to S's order, as ``induced_subgraph`` relabels, row j's j
    low bits at offset j(j-1)/2.  For S = P + u of size k, with P = P' + p,
    u's row is the top row of ``code[P' + u]``, at offset (k-2)(k-3)/2
    one size down in the deletion S - p, with bit k-2 set when u is
    adjacent to p; ``code[S]`` is ``code[P]`` with that row at offset
    (k-1)(k-2)/2.  The code determines the labelled subgraph, and the
    solvers are functions of the adjacency alone, so each size memoizes
    a = b on it in a dict from code to value: each distinct labelled
    subgraph is solved at most once, a memo hit costs O(1), and a
    subset's value is its size's memo entry for its code.

    On a memo miss the deletions decide first.  Every subset one size
    smaller has passed, so each deletion S - u gives x_u = a(S - u) =
    b(S - u), the previous size's memo entry for ``code[S - u]``.  The
    deletion sandwich (ROADMAP item 3) puts a(S) and b(S) in
    [max x_u, min x_u + 1]; when the x_u differ, both equal max x_u,
    which the memo records with no solve.  When they all equal x, S is
    unforced: its members, read from ``graphs._MEMBERS``, already sorted,
    induce h, and the step ``INVARIANT_STEPS[name](h, x)`` of each
    invariant returns its value, knowing it is x or x + 1; gamma's and
    chi's steps are one decision each.  Every step is exact, so a forced
    subset never disagrees, and the counterexample, always an unforced
    subset, and its values are those of the full scan.
    """
    if a not in INVARIANT_CHAIN or b not in INVARIANT_CHAIN:
        raise ValueError(f"invariants must be among {INVARIANT_CHAIN}")
    if INVARIANT_CHAIN.index(a) > INVARIANT_CHAIN.index(b):
        raise ValueError(f"{a!r} must precede or equal {b!r} in the invariant chain")
    check_cap("is_ab_perfect", g.n)
    if a == b:
        return PerfectnessVerdict((a, b), True, None)
    step_a = INVARIANT_STEPS[a]
    step_b = INVARIANT_STEPS[b]
    n, adj = g.n, g.adj
    code = [0] * (1 << n)
    level = [0]
    below = {0: 0}  # the previous size's memo: here the empty set, of value 0
    for size in range(1, n + 1):
        top = 1 << size >> 2  # 1 << (size - 2): the prefix's last vertex in u's row
        shift = (size - 2) * (size - 3) // 2  # the top row's offset one size down
        offset = (size - 1) * (size - 2) // 2
        solved: dict[int, int] = {}
        next_level = []
        for prefix in level:
            last = prefix.bit_length() - 1
            if last < 0:  # the empty prefix, whose singletons have empty rows
                rest = link = 0
            else:
                rest = prefix ^ 1 << last  # rest | 1 << u is the deletion S - last
                link = adj[last] * top  # link >> u & top: u adjacent to last, at top
            base = code[prefix]
            for u in range(last + 1, n):
                bit = 1 << u
                mask = prefix | bit
                row = code[rest | bit] >> shift | link >> u & top
                key = base | row << offset
                if key not in solved:
                    members = _MEMBERS[mask]
                    deletions = [below[code[mask ^ 1 << v]] for v in members]
                    x = max(deletions)
                    if x == min(deletions):
                        h = _induced(g, members)
                        a_val, b_val = step_a(h, x), step_b(h, x)
                        if a_val != b_val:
                            return PerfectnessVerdict(
                                (a, b), False, (frozenset(members), a_val, b_val)
                            )
                        x = a_val
                    solved[key] = x
                code[mask] = key
                next_level.append(mask)
        level, below = next_level, solved
    return PerfectnessVerdict((a, b), True, None)


# ---------------------------------------------------------------------------
# Structure trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureTree:
    """Recursive decomposition node.

    kinds: "complete" (K_m), "empty-part" (m isolated vertices), "union"
    (parts of a disconnected graph), "join" (K_m apex over one union
    part), "rejected" (with a reason).  A tree is accepted when no node
    anywhere in it is rejected.
    """

    kind: str
    m: int | None = None
    children: tuple["StructureTree", ...] = field(default=())
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        if self.kind == "rejected":
            return False
        return all(child.accepted for child in self.children)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "children": [child.to_dict() for child in self.children],
            "reason": self.reason,
        }


def _is_complete(g: Graph) -> bool:
    return g.edge_count() == g.n * (g.n - 1) // 2


def _classify_disconnected(g: Graph, comps: list[frozenset[int]]) -> StructureTree:
    """Sort a disconnected graph into one of the three allowed shapes."""
    nontrivial = [c for c in comps if len(c) >= 2]
    isolated = sum(1 for c in comps if len(c) == 1)
    if len(nontrivial) > 2:
        reason = f"{len(nontrivial)} non-trivial components, at most two allowed"
        return StructureTree("rejected", reason=reason)
    parts = [induced_subgraph(g, c) for c in nontrivial]
    if len(parts) == 1:
        children = [_peel(parts[0], _classify_disconnected)]
    elif all(_is_complete(p) for p in parts):
        children = [StructureTree("complete", m=p.n) for p in parts]
    else:
        reason = "two non-trivial components must both be complete"
        return StructureTree("rejected", reason=reason)
    if isolated:
        children.append(StructureTree("empty-part", m=isolated))
    return StructureTree("union", children=tuple(children))


def _peel(
    g: Graph, remainder: Callable[[Graph, list[frozenset[int]]], StructureTree]
) -> StructureTree:
    """Shape of a connected graph: complete, or its universal vertices as a
    K_m apex joined over the disconnected rest.

    ``remainder`` shapes the rest from its graph and its components.
    """
    if _is_complete(g):
        return StructureTree("complete", m=g.n)
    apex = universal_vertices(g)
    if not apex:
        reason = "connected, not complete, and no universal vertex"
        return StructureTree("rejected", reason=reason)
    rest = induced_subgraph(g, sorted(set(range(g.n)) - apex))
    comps = connected_components(rest)
    if len(comps) == 1:
        reason = "remainder after peeling universal vertices is connected"
        return StructureTree("rejected", reason=reason)
    return StructureTree("join", m=len(apex), children=(remainder(rest, comps),))


def recognize_structure(g: Graph) -> StructureTree:
    """Decide the recursive shape of the omega-psi-perfect characterization.

    A connected graph has the shape when it is complete, or the join of a
    complete graph with a disconnected graph whose components are an
    empty part, two non-trivial complete graphs (plus isolated vertices),
    or a single non-trivial part of the same recursive shape.

    Rejection is a value (a "rejected" node at the failing position), not
    an error; polynomial, so no size cap beyond the graph capacity.
    """
    comps = connected_components(g)
    if len(comps) == 1:
        return _peel(g, _classify_disconnected)
    return _classify_disconnected(g, comps)


def _decompose_components(g: Graph, comps: list[frozenset[int]]) -> StructureTree:
    parts = tuple(_peel(induced_subgraph(g, c), _decompose_components) for c in comps)
    return StructureTree("union", children=parts)


def decompose_trivially_perfect(g: Graph) -> StructureTree:
    """Full quasi-threshold decomposition of a connected graph.

    Peels the maximal universal clique as the apex at every level and
    recurses into every component of the remainder; accepted exactly on
    the connected graphs with no induced 4-cycle or 4-path.
    """
    if not is_connected(g):
        raise ValueError("decompose_trivially_perfect requires a connected graph")
    return _peel(g, _decompose_components)


def rebuild(tree: StructureTree) -> Graph:
    """Reconstruct a graph from an accepted structure tree."""
    if tree.kind == "complete":
        return complete_graph(tree.m)
    if tree.kind == "empty-part":
        return empty_graph(tree.m)
    if tree.kind == "union":
        out = None
        for child in tree.children:
            part = rebuild(child)
            out = part if out is None else disjoint_union(out, part)
        if out is None:
            raise ValueError("union node with no children")
        return out
    if tree.kind == "join":
        return join(complete_graph(tree.m), rebuild(tree.children[0]))
    raise ValueError(f"cannot rebuild from node kind {tree.kind!r}")
