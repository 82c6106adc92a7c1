"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the package's search code: partitions are
enumerated in full, orderings exhaustively, graph6 is re-decoded through
a string-of-bits route, and isomorphism-class counts come from the cycle
index of the symmetric group.  Agreement between these and the solvers
is the backbone of the suite.  Three exceptions reuse package code for
one layer each.  ``unpruned_levels`` keeps the enumeration loop that
predates orbit pruning: it uses ``canonical_form`` as its key and is the
reference for the pruning only.  ``reference_scan`` keeps the subset scan
of ``is_ab_perfect`` without its memo: it calls the package's solvers on
every subset and is the reference for the memo only.
``first_complete_coloring`` walks in the complete-coloring search's vertex
order, read from ``_plan``, and is the reference for its prunes only.
The module also holds the input helpers the test modules share,
``small_classes`` and ``seeded_gnp``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, gcd, inf

from abperfect import (
    Coloring,
    Graph,
    PerfectnessVerdict,
    canonical_form,
    enumerate_graphs,
    from_edge_list,
    induced_subgraph,
    is_complete_coloring,
    is_proper,
)
from abperfect.solvers import INVARIANT_SOLVERS, _plan


def small_classes(n_max):
    """One graph per isomorphism class on 1..n_max vertices, by enumeration."""
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def seeded_gnp(seed: int, n: int, p: float) -> Graph:
    """A G(n, p) graph drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def set_partitions(items: list):
    """All set partitions of ``items`` (each partition a list of lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [[first] + subset] + smaller[i + 1:]
        yield [[first]] + smaller


def partition_coloring(n: int, partition: list[list[int]]) -> Coloring:
    colors = [0] * n
    for index, block in enumerate(partition, start=1):
        for v in block:
            colors[v] = index
    return Coloring(tuple(colors))


def brute_complete_counts(g: Graph) -> tuple[set[int], set[int]]:
    """Class counts of g's complete colorings, and of its proper complete ones.

    Their maxima are psi and alpha.
    """
    complete, proper = set(), set()
    for partition in set_partitions(list(range(g.n))):
        c = partition_coloring(g.n, partition)
        if is_complete_coloring(g, c):
            complete.add(len(partition))
            if is_proper(g, c):
                proper.add(len(partition))
    return complete, proper


def first_complete_coloring(g: Graph, k: int, proper: bool) -> list[int] | None:
    """The first complete coloring, proper when asked, with exactly k classes,
    in the complete-coloring search's order, with no prune.

    Vertices are placed in ``_plan(g).order``.  A color may open only after
    all smaller ones, and colors are tried newest first: the unopened one,
    then the opened ones from the most recent down.  Every assignment is
    walked to its end and tested there.  Returns 0-based colors by vertex.
    """
    order, color = _plan(g).order, [0] * g.n

    def walk(i: int, used: int) -> bool:
        if i == g.n:
            c = Coloring(tuple(x + 1 for x in color))
            return used == k and is_complete_coloring(g, c) and (not proper or is_proper(g, c))
        for c in range(min(used, k - 1), -1, -1):
            color[order[i]] = c
            if walk(i + 1, max(used, c + 1)):
                return True
        return False

    return color if walk(0, 0) else None


def first_fit_along(g: Graph, order) -> int:
    """Colors used by the first-fit greedy coloring along ``order``."""
    color: dict[int, int] = {}
    for v in order:
        taken = {color[u] for u in color if g.has_edge(u, v)}
        c = 1
        while c in taken:
            c += 1
        color[v] = c
    return max(color.values())


def brute_grundy_counts(g: Graph) -> set[int]:
    """Color counts of first-fit along all n! vertex orderings.

    Every Grundy coloring is the first-fit coloring along the order of its
    classes, and every first-fit coloring is Grundy, so these are exactly
    the counts of the Grundy colorings.
    """
    return {first_fit_along(g, order) for order in permutations(range(g.n))}


def brute_grundy(g: Graph) -> int:
    """Worst-order first-fit over all n! vertex orderings."""
    return max(brute_grundy_counts(g))


def brute_maximal_independent_sets(g: Graph, mask: int) -> set[int]:
    """Independent submasks of ``mask`` that no vertex of ``mask`` extends."""
    out = set()
    for s in range(mask + 1):
        if s & ~mask or any(s >> v & 1 and g.adj[v] & s for v in range(g.n)):
            continue
        if all(g.adj[v] & s for v in range(g.n) if (mask & ~s) >> v & 1):
            out.add(s)
    return out


def brute_clique(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return 0


def brute_chromatic(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for assignment in product(range(1, k + 1), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    raise AssertionError("n colors always suffice")


def ref_decode_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    """String-of-bits graph6 decoder, written independently of the package."""
    n = ord(line[0]) - 63
    bitstring = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    edges = set()
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bitstring[idx] == "1":
                edges.add((row, col))
            idx += 1
    return n, edges


def labeled_graph(n: int, code: int) -> Graph:
    """The labelled graph on vertices 0..n-1 with edge code ``code``.

    Bit i of the code is the i-th pair of ``combinations(range(n), 2)``.
    """
    pairs = combinations(range(n), 2)
    return from_edge_list(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])


def labeled_graphs(n: int):
    """Every labelled graph on vertices 0..n-1, by ascending edge code."""
    for code in range(1 << n * (n - 1) // 2):
        yield labeled_graph(n, code)


def random_labeled_graphs(st, low: int, high: int):
    """A Hypothesis strategy: labelled graphs on low..high vertices.

    Each pair is drawn as its own boolean, which gives mid-density graphs
    more often than one drawn edge code would.  ``st`` is
    ``hypothesis.strategies``, passed in so that this module imports
    without Hypothesis.
    """

    def on(n: int):
        pairs = n * (n - 1) // 2
        return st.lists(st.booleans(), min_size=pairs, max_size=pairs).map(
            lambda edges: labeled_graph(n, sum(edge << i for i, edge in enumerate(edges)))
        )

    return st.integers(low, high).flatmap(on)


def brute_min_code(g: Graph) -> tuple[int, ...]:
    """Minimum column code over all n! orderings (canonical-form oracle)."""
    best: tuple[int, ...] | None = None
    for perm in permutations(range(g.n)):
        code = []
        for j in range(1, g.n):
            col = 0
            for i in range(j):
                col = col << 1 | (1 if g.has_edge(perm[j], perm[i]) else 0)
            code.append(col)
        t = tuple(code)
        if best is None or t < best:
            best = t
    return best if best is not None else ()


def brute_contains_induced(g: Graph, p: Graph) -> frozenset[int] | None:
    """First subset (lexicographic) inducing p, by trying all bijections.

    A k-subset induces p exactly when its upper-triangle adjacency code,
    read in ascending vertex order, is p's code under one of its k!
    vertex orderings.
    """
    codes = _ordering_codes(p)
    g_adjacent = _adjacent(g)
    for subset in combinations(range(g.n), p.n):
        if tuple(map(g_adjacent, combinations(subset, 2))) in codes:
            return frozenset(subset)
    return None


@lru_cache(maxsize=None)
def _ordering_codes(p: Graph) -> frozenset[tuple[bool, ...]]:
    """p's upper-triangle adjacency code under every vertex ordering, built
    once per pattern."""
    p_adjacent = _adjacent(p)
    return frozenset(
        tuple(map(p_adjacent, combinations(order, 2))) for order in permutations(range(p.n))
    )


def _adjacent(g: Graph):
    """Membership test of g's ordered vertex pairs (u, v) that are edges."""
    return {(u, v) for u in range(g.n) for v in range(g.n) if g.has_edge(u, v)}.__contains__


def _induces_cycle(subset: tuple[int, ...], adjacent) -> bool:
    """Whether ``adjacent`` restricted to ``subset`` is connected and 2-regular."""
    nbrs = {v: [u for u in subset if u != v and adjacent(u, v)] for v in subset}
    if any(len(around) != 2 for around in nbrs.values()):
        return False
    seen, stack = {subset[0]}, [subset[0]]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(subset)


def brute_odd_hole(g: Graph) -> tuple[str, frozenset[int]] | None:
    """First odd hole or antihole: the shortest, a hole before an antihole,
    then the lexicographically smallest odd subset of 5 or more vertices
    inducing a connected 2-regular graph in g or in its complement."""
    sides = (
        ("C2k+1", g.has_edge),
        ("co-C2k+1", lambda u, v: not g.has_edge(u, v)),
    )
    for length in range(5, g.n + 1, 2):
        for name, adjacent in sides:
            for subset in combinations(range(g.n), length):
                if _induces_cycle(subset, adjacent):
                    return name, frozenset(subset)
    return None


def _cycle_types(n: int, smallest: int = 1):
    """Partitions of n into parts >= smallest (cycle types of S_n)."""
    if n == 0:
        yield []
        return
    for part in range(smallest, n + 1):
        for rest in _cycle_types(n - part, part):
            yield [part] + rest


def isomorphism_class_count(n: int) -> int:
    """Number of graphs on n vertices up to isomorphism, via the cycle index.

    For a permutation of cycle type lambda the vertex-pair orbits number
    sum floor(a/2) over cycles plus sum gcd(a,b) over cycle pairs; each
    orbit is free to be edge or non-edge.
    """
    total = 0
    for parts in _cycle_types(n):
        mult: dict[int, int] = {}
        for a in parts:
            mult[a] = mult.get(a, 0) + 1
        perms = factorial(n)
        for a, m in mult.items():
            perms //= a**m * factorial(m)
        orbits = sum(a // 2 for a in parts)
        orbits += sum(
            gcd(parts[i], parts[j])
            for i in range(len(parts))
            for j in range(i + 1, len(parts))
        )
        total += perms * 2**orbits
    return total // factorial(n)


def all_surjective_colorings(n: int):
    """Every Coloring of n vertices (all color counts), brute force."""
    for assignment in product(range(1, n + 1), repeat=n):
        used = set(assignment)
        if used == set(range(1, len(used) + 1)):
            yield Coloring(assignment)


def unpruned_levels(n_max: int) -> list[list[Graph]]:
    """Class representatives on 1..n_max vertices from every one-vertex extension.

    Each representative of level n-1 gets a new vertex with each of the
    2^(n-1) neighbourhoods in ascending mask order, and the first graph
    of each canonical form is kept.
    """
    levels = [[Graph(1, (0,))]]
    for n in range(2, n_max + 1):
        seen: dict[bytes, Graph] = {}
        for parent in levels[-1]:
            for mask in range(1 << (n - 1)):
                rows = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
                g = Graph(n, rows + [mask])
                seen.setdefault(canonical_form(g), g)
        levels.append(list(seen.values()))
    return levels


def reference_scan(g: Graph, a: str, b: str) -> PerfectnessVerdict:
    """``is_ab_perfect`` with both solvers called on every subset, no memo."""
    if a == b:
        return PerfectnessVerdict((a, b), True, None)
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            h = induced_subgraph(g, subset)
            a_val = INVARIANT_SOLVERS[a](h)
            b_val = INVARIANT_SOLVERS[b](h)
            if a_val != b_val:
                return PerfectnessVerdict((a, b), False, (frozenset(subset), a_val, b_val))
    return PerfectnessVerdict((a, b), True, None)


def brute_automorphism_count(g: Graph) -> int:
    """|Aut(g)| by trying all n! vertex permutations."""
    return sum(
        all(
            g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        for perm in permutations(range(g.n))
    )



def diameter(g: Graph) -> int | float:
    """Max shortest-path distance; math.inf when g is disconnected."""
    best = 0
    full = (1 << g.n) - 1
    for v in range(g.n):
        reached = 1 << v
        frontier = reached
        dist = 0
        while reached != full:
            nxt = 0
            for u in range(g.n):
                if frontier >> u & 1:
                    nxt |= g.adj[u]
            frontier = nxt & ~reached
            if not frontier:
                return inf
            reached |= frontier
            dist += 1
        best = max(best, dist)
    return best
