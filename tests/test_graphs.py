"""Graph construction, combinators, and isomorphism machinery."""

import math
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest

from abperfect import (
    CapacityError,
    Graph,
    canonical_form,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    induced_subgraph,
    is_isomorphic,
    join,
    k44_c7_graph,
    path_graph,
    universal_vertices,
)
from abperfect.graphs import _automorphisms, _mapping_exists, _refine, _trusted
from oracles import diameter
from oracles import brute_automorphism_count, brute_min_code, labeled_graphs, small_classes


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def test_from_edge_list_path():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g == path_graph(4)
    assert g.edge_count() == 3


def test_from_edge_list_single_vertex():
    assert from_edge_list(1, []).n == 1


def test_duplicate_and_reversed_edges_collapse():
    g = from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    assert g == path_graph(4)


def test_constructor_rejections():
    with pytest.raises(CapacityError):
        from_edge_list(0, [])
    with pytest.raises(CapacityError):
        from_edge_list(33, [])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_value_semantics():
    g = Graph(2, [2, 1])
    assert g.adj == (2, 1) and type(g.adj) is tuple
    assert pickle.loads(pickle.dumps(g)) == g
    assert g != (g.n, g.adj)
    assert hash(g) == hash((g.n, g.adj))
    assert _trusted(g.n, g.adj) == g
    with pytest.raises(AttributeError):
        g.adj = (0, 0)


def test_adjacency_invariants_enforced_by_constructor():
    # Symmetry / irreflexivity are enforced in Graph.__post_init__ itself.
    with pytest.raises(ValueError, match="asymmetric adjacency between 1 and 0"):
        Graph(2, (0b10, 0))
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph(1, (1,))
    with pytest.raises(ValueError, match="adjacency of vertex 0 mentions labels >= 2"):
        Graph(2, (0b110, 0b1))
    with pytest.raises(ValueError, match="expected 2 adjacency rows, got 1"):
        Graph(2, (0b10,))
    with pytest.raises(CapacityError, match=r"vertex count must be in 1\.\.32, got 0"):
        Graph(0, ())
    with pytest.raises(CapacityError, match=r"vertex count must be in 1\.\.32, got 33"):
        Graph(33, (0,) * 33)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def test_join_star_is_p3():
    assert is_isomorphic(join(complete_graph(1), empty_graph(2)), path_graph(3))


def test_join_of_completes_is_complete():
    assert join(complete_graph(2), complete_graph(3)) == complete_graph(5)


def test_join_apex_over_k2_plus_k1():
    g = join(complete_graph(1), disjoint_union(complete_graph(2), empty_graph(1)))
    assert g.n == 4 and g.edge_count() == 4
    # apex (vertex 0) adjacent to all, K2 pair adjacent, isolated only to apex
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]
    assert universal_vertices(g) == frozenset({0})


def test_join_counts():
    for g1 in small_classes(4):
        for g2 in small_classes(4):
            j = join(g1, g2)
            assert j.n == g1.n + g2.n
            assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n


def test_union_examples():
    g = disjoint_union(path_graph(3), complete_graph(2))
    assert g.n == 5 and g.edge_count() == 3
    assert len(connected_components(g)) == 2
    k2 = complete_graph(2)
    three = disjoint_union(disjoint_union(k2, k2), k2)
    assert three.n == 6 and three.edge_count() == 3
    assert len(connected_components(three)) == 3


def test_capacity_overflow():
    with pytest.raises(CapacityError):
        join(complete_graph(20), complete_graph(20))
    with pytest.raises(CapacityError):
        disjoint_union(empty_graph(20), empty_graph(20))


def test_complement_examples():
    assert complement(complete_graph(4)) == empty_graph(4)
    assert is_isomorphic(complement(cycle_graph(5)), cycle_graph(5))
    assert is_isomorphic(complement(path_graph(4)), path_graph(4))


def test_complement_involution():
    for g in small_classes(6):
        assert complement(complement(g)) == g


def test_join_is_complemented_union():
    # join(g1,g2) == co(co(g1) + co(g2)) for every pair with combined n <= 10
    pool = list(small_classes(7))
    for g1 in pool:
        for g2 in pool:
            if g1.n + g2.n > 10:
                continue
            lhs = join(g1, g2)
            rhs = complement(disjoint_union(complement(g1), complement(g2)))
            assert lhs == rhs


def test_induced_subgraph_examples():
    assert induced_subgraph(cycle_graph(4), {0, 1, 2}) == path_graph(3)
    g = k44_c7_graph()
    assert induced_subgraph(g, range(g.n)) == g
    assert induced_subgraph(complete_graph(5), {1, 3, 4}) == complete_graph(3)


def test_induced_subgraph_rejects_bad_sets():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), set())
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), {0, 5})


def test_induced_components_are_induced_subgraphs_of_components():
    for g in small_classes(5):
        whole = connected_components(g)
        for size in range(1, g.n + 1):
            for subset in combinations(range(g.n), size):
                sub = induced_subgraph(g, subset)
                members = sorted(subset)
                for comp in connected_components(sub):
                    original = {members[i] for i in comp}
                    assert any(original <= c for c in whole)
                    assert induced_subgraph(g, original) == induced_subgraph(sub, comp)


# ---------------------------------------------------------------------------
# Component analysis, universal vertices, diameter
# ---------------------------------------------------------------------------


def test_components_ordering_and_singletons():
    g = disjoint_union(path_graph(3), complete_graph(2))
    comps = connected_components(g)
    assert comps == [frozenset({0, 1, 2}), frozenset({3, 4})]
    assert connected_components(complete_graph(1)) == [frozenset({0})]


def test_universal_vertices_examples():
    assert universal_vertices(cycle_graph(4)) == frozenset()
    assert universal_vertices(complete_graph(4)) == frozenset(range(4))


def test_diameter_examples():
    assert diameter(path_graph(4)) == 3
    assert diameter(empty_graph(2)) == math.inf
    assert diameter(complete_graph(1)) == 0


def test_diameter_at_most_2_on_connected_c4_p4_free():
    from abperfect import PATTERNS, contains_induced, is_connected

    for g in small_classes(7):
        if not is_connected(g):
            continue
        if contains_induced(g, PATTERNS["C4"]) is not None:
            continue
        if contains_induced(g, PATTERNS["P4"]) is not None:
            continue
        assert diameter(g) <= 2


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def test_witness_graph_shape():
    g = k44_c7_graph()
    assert g.n == 13
    assert g.edge_count() == 22
    # triangle-free by construction
    for triple in combinations(range(g.n), 3):
        assert not all(g.has_edge(u, v) for u, v in combinations(triple, 2))


def test_cycle_and_bipartite():
    assert cycle_graph(7).edge_count() == 7
    g = complete_bipartite(4, 4)
    assert g.edge_count() == 16
    for triple in combinations(range(8), 3):
        assert not all(g.has_edge(u, v) for u, v in combinations(triple, 2))


def test_named_rejections():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_oversized_named_graphs_fail_before_building_edges():
    # The vertex count is checked before any edge is read, so an oversized
    # named graph costs nothing; an edge list built first would take
    # hundreds of MB and seconds at these sizes.
    for make in (
        lambda: path_graph(3000),
        lambda: cycle_graph(3000),
        lambda: complete_graph(3000),
        lambda: complete_bipartite(1500, 1500),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="vertex count"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Isomorphism and canonical form
# ---------------------------------------------------------------------------


def test_isomorphism_examples():
    p4 = path_graph(4)
    assert is_isomorphic(p4, complement(p4))
    c4_variant = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_isomorphic(cycle_graph(4), c4_variant)
    assert not is_isomorphic(p4, cycle_graph(4))


def test_canonical_form_matches_brute_min_code_equality():
    # On all labeled graphs with 4 vertices: canonical forms agree exactly
    # when the unrestricted minimum permutation codes agree.
    labeled = list(labeled_graphs(4))
    brute = [brute_min_code(g) for g in labeled]
    canon = [canonical_form(g) for g in labeled]
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            assert (brute[i] == brute[j]) == (canon[i] == canon[j])


def test_canonical_form_invariant_under_relabeling():
    from itertools import permutations

    for g in small_classes(5):
        base = canonical_form(g)
        for perm in list(permutations(range(g.n)))[:6]:
            relabeled = from_edge_list(
                g.n, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            assert canonical_form(relabeled) == base


def test_canonical_distinct_across_classes():
    forms = [canonical_form(g) for g in small_classes(6)]
    assert len(forms) == len(set(forms))


def test_capacity_caps_on_isomorphism_machinery():
    with pytest.raises(CapacityError):
        canonical_form(empty_graph(9))
    with pytest.raises(CapacityError):
        is_isomorphic(empty_graph(11), empty_graph(11))


def test_automorphisms_preserve_adjacency_and_generate_the_group():
    # Uncapped, the search returns generators of Aut(g): ties of the search
    # and swaps of twins.  Their closure must have brute-force |Aut(g)|.
    for g in small_classes(6):
        n = g.n
        found = _automorphisms(g)
        for sigma in found:
            assert sorted(sigma) == list(range(n))
            assert all(
                g.has_edge(sigma[u], sigma[v]) == g.has_edge(u, v)
                for u, v in combinations(range(n), 2)
            )
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            images = {tuple(sigma[v] for v in p) for p in frontier for sigma in found}
            frontier = list(images - group)
            group |= images
        assert len(group) == brute_automorphism_count(g)


def _random_pairs_with_networkx_verdicts():
    """600 pairs of 8-vertex graphs, each with networkx's isomorphism verdict."""
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(2015)
    for trial in range(600):
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        edges = [(u, v) for u, v in combinations(range(8), 2) if rng.random() < p]
        perm = list(range(8))
        rng.shuffle(perm)
        other = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        if trial % 2 and len(other) >= 2:
            # One degree-preserving swap ab, cd -> ad, cb: usually another
            # class with the same degree sequence, sometimes the same class.
            for _ in range(50):
                (a, b), (c, d) = rng.sample(sorted(other), 2)
                ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
                if len({a, b, c, d}) == 4 and ad not in other and cb not in other:
                    other = other - {(a, b), (c, d)} | {ad, cb}
                    break
        g, h = from_edge_list(8, edges), from_edge_list(8, other)
        yield g, h, nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_form_agrees_with_networkx_on_random_pairs():
    outcomes = []
    for g, h, expected in _random_pairs_with_networkx_verdicts():
        assert (canonical_form(g) == canonical_form(h)) == expected, (g, h)
        outcomes.append(expected)
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 100


def test_refinement_invariant_under_random_relabeling():
    # An isomorphism keeps the invariant and sends each vertex to the
    # cell of the same number, which the cell-preserving search relies on.
    rng = random.Random(1980)
    for g in small_classes(6):
        cells, key = _refine(g)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            moved, moved_key = _refine(relabeled)
            assert moved_key == key, g
            assert [moved[perm[v]] for v in range(g.n)] == cells, g


def test_refinement_match_agrees_with_networkx_on_random_pairs():
    # The level lookups' test: the same invariant, then a mapping found
    # between cells of equal number.
    outcomes = []
    for g, h, expected in _random_pairs_with_networkx_verdicts():
        (g_cells, g_key), (h_cells, h_key) = _refine(g), _refine(h)
        found = g_key == h_key and _mapping_exists(g, h, g_cells, dict(enumerate(h_cells)))
        assert found == expected, (g, h)
        outcomes.append((expected, g_key == h_key))
    # Some pairs share the invariant without being isomorphic, so the
    # search decides them.
    assert outcomes.count((True, True)) >= 300 and outcomes.count((False, True)) >= 1
