"""Seeded inputs of the four benchmark workloads.

Graphs are built here as adjacency bitmask lists and handed to the
library only as graph6 strings, encoded by this module's own writer.

The corpora are generated at set-up from constant per-stratum seeds
(vertex count, edge probability or shape), and the run's ``--seed``
shuffles the order in which their queries are sent.  The graph sets stay
the same for every seed for two reasons:

- ``expected.json`` holds verified answers for every graph a run sends;
- one graph's cost depends on its edges and even on its labelling by up
  to ten times, so a seeded draw of three quarters of each stratum moved
  the work of a pass by 5-25 % between seeds, wider than the bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWEEP_HEREDITARY = "sweep_hereditary"
SWEEP_ENUMERATE = "sweep_enumerate"
SOLVE_CORPUS = "solve_corpus"
CHECK_CORPUS = "check_corpus"
WORKLOADS = (SWEEP_HEREDITARY, SWEEP_ENUMERATE, SOLVE_CORPUS, CHECK_CORPUS)

SOLVE_ORDERS = (9, 10, 11, 12)
SOLVE_PROBABILITIES = (0.2, 0.35, 0.5, 0.7)
CHECK_ORDERS = (8, 9, 10)
CHECK_PROBABILITIES = (0.35, 0.5, 0.65)
CHECK_PAIRS = (("omega", "psi"), ("chi", "psi"), ("omega", "alpha"), ("omega", "gamma"))
CYCLE_ORDERS = tuple(range(3, 13))
BIPARTITE_PARTS = ((1, 1), (1, 5), (2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (5, 5))

# Graphs per stratum.
SOLVE_PER_CELL = 12
CHECK_RANDOM_PER_ORDER = 16
CHECK_SHAPES_PER_ORDER = 6


@dataclass(frozen=True)
class Query:
    """One call the benchmark times: a CLI argv or a sweep (theorem, n_max)."""

    kind: str  # "cli" or "sweep"
    args: tuple
    graph6: str | None = None


# ---------------------------------------------------------------------------
# Graphs as (n, adjacency bitmasks)
# ---------------------------------------------------------------------------


def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, tuple(adj)


def edges_of(graph) -> list[tuple[int, int]]:
    n, adj = graph
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def complete(n: int):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int):
    return n, (0,) * n


def union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in edges_of(part)]
        offset += part[0]
    return from_edges(offset, edges)


def join(g1, g2):
    n1, n2 = g1[0], g2[0]
    cross = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    return from_edges(n1 + n2, edges_of(union(g1, g2)) + cross)


def relabel(graph, perm):
    return from_edges(graph[0], [(perm[u], perm[v]) for u, v in edges_of(graph)])


def gnp(rng: random.Random, n: int, p: float):
    return from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def cycle(n: int):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def fig2():
    """K4,4 and C7 sharing one edge: 13 vertices, invariants (2, 3, 4, 5, 6)."""
    edges = [(i, 4 + j) for i in range(4) for j in range(4)]
    ring = [0, 4, 8, 9, 10, 11, 12]
    edges += [(ring[i], ring[(i + 1) % 7]) for i in range(1, 7)]
    return from_edges(13, edges)


def encode_graph6(graph) -> str:
    """graph6 line of a graph on 1..62 vertices (upper triangle, column-major)."""
    n, adj = graph
    bitstring = "".join(
        "1" if adj[row] >> col & 1 else "0" for col in range(1, n) for row in range(col)
    )
    bitstring += "0" * (-len(bitstring) % 6)
    chunks = [bitstring[i:i + 6] for i in range(0, len(bitstring), 6)]
    return chr(63 + n) + "".join(chr(63 + int(c, 2)) for c in chunks)


# ---------------------------------------------------------------------------
# Shapes of the omega-psi-perfect characterization
# ---------------------------------------------------------------------------


def _connected_shape(rng: random.Random, n: int):
    """Complete, or K_m joined to a disconnected shape on the rest."""
    if n <= 2 or rng.random() < 0.1:
        return complete(n)
    m = rng.randint(1, max(1, n // 3))
    return join(complete(m), _disconnected_shape(rng, n - m))


def _disconnected_shape(rng: random.Random, n: int):
    """Isolated vertices only, two complete parts, or one connected shape."""
    kinds = ["empty"]
    if n >= 4:
        kinds.append("two_cliques")
    if n >= 3:
        kinds.append("one_part")
    kind = rng.choice(kinds)
    if kind == "empty":
        return empty(n)
    if kind == "two_cliques":
        a = rng.randint(2, n - 2)
        b = rng.randint(2, n - a)
        parts = [complete(a), complete(b)]
    else:
        b = rng.randint(2, n - 1)
        parts = [_connected_shape(rng, b)]
        a = 0
    isolated = n - a - b
    return union(*parts, *([empty(isolated)] if isolated else []))


def shape(rng: random.Random, n: int):
    """A graph of the recursive join/union shape, with shuffled labels."""
    g = _connected_shape(rng, n) if rng.random() < 0.75 else _disconnected_shape(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def _stratum(label: str, size: int, make) -> list[str]:
    rng = random.Random(f"abperfect-bench:{label}")
    return [encode_graph6(make(rng)) for _ in range(size)]


def named_graphs() -> dict[str, str]:
    """fig2, C3..C12 and a few complete bipartite graphs, by name."""
    named = {"fig2": encode_graph6(fig2())}
    for n in CYCLE_ORDERS:
        named[f"C{n}"] = encode_graph6(cycle(n))
    for a, b in BIPARTITE_PARTS:
        named[f"K{a},{b}"] = encode_graph6(complete_bipartite(a, b))
    return named


def solve_corpus() -> list[str]:
    """G(n,p) graphs for every (n, p) cell, then the named graphs."""
    graphs = []
    for n in SOLVE_ORDERS:
        for p in SOLVE_PROBABILITIES:
            graphs += _stratum(f"gnp:{n}:{p}", SOLVE_PER_CELL, lambda r, n=n, p=p: gnp(r, n, p))
    return graphs + list(named_graphs().values())


def check_corpus() -> list[str]:
    """Per order: random graphs, which fail early, and shapes, which scan every subset."""
    graphs = []
    for n in CHECK_ORDERS:
        graphs += _stratum(
            f"random:{n}",
            CHECK_RANDOM_PER_ORDER,
            lambda r, n=n: gnp(r, n, r.choice(CHECK_PROBABILITIES)),
        )
        graphs += _stratum(f"shape:{n}", CHECK_SHAPES_PER_ORDER, lambda r, n=n: shape(r, n))
    return graphs


def _shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(f"abperfect-bench-order:{seed}").shuffle(out)
    return out


def check_argvs(g6: str) -> list[tuple[str, ...]]:
    """The six CLI calls made for one graph of the check corpus."""
    argvs = [("check", "--a", a, "--b", b, "--g6", g6, "--format", "json") for a, b in CHECK_PAIRS]
    argvs.append(("forbidden", "--family", "omega_psi_quartet", "--g6", g6, "--format", "json"))
    argvs.append(("recognize", "--g6", g6, "--format", "json"))
    return argvs


def queries(workload: str, seed: int) -> list[Query]:
    """Every query of one pass of ``workload`` under ``seed``, in send order."""
    if workload == SWEEP_HEREDITARY:
        return [Query("sweep", ("theorem4", 7)), Query("sweep", ("figure3_inclusions", 7))]
    if workload == SWEEP_ENUMERATE:
        return [Query("sweep", ("lemma1", 8))]
    if workload == SOLVE_CORPUS:
        return [
            Query("cli", ("params", "--g6", g6, "--format", "json"), g6)
            for g6 in _shuffled(solve_corpus(), seed)
        ]
    if workload == CHECK_CORPUS:
        return [
            Query("cli", argv, g6)
            for g6 in _shuffled(check_corpus(), seed)
            for argv in check_argvs(g6)
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def jobs(workload: str, seed: int) -> list[list[int]]:
    """Query indices grouped by the fresh interpreter that runs them.

    Each sweep gets its own interpreter, so every sweep starts with a cold
    enumeration cache as a CLI sweep does; a corpus pass runs in one.
    """
    count = len(queries(workload, seed))
    if workload in (SWEEP_HEREDITARY, SWEEP_ENUMERATE):
        return [[i] for i in range(count)]
    return [list(range(count))]
