"""ab-perfectness verdicts, the structure recognizer, and the equivalence."""

import random
import tracemalloc
from itertools import combinations, product

import pytest

from abperfect import (
    CapacityError,
    INVARIANT_CHAIN,
    StructureTree,
    canonical_form,
    complete_graph,
    cycle_graph,
    decompose_trivially_perfect,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    family_check,
    from_edge_list,
    induced_subgraph,
    is_ab_perfect,
    is_connected,
    is_isomorphic,
    join,
    parse_graph6,
    path_graph,
    rebuild,
    recognize_structure,
    to_graph6,
)
from abperfect.graphs import _MEMBERS, CAPS, bits
from abperfect.solvers import INVARIANT_SOLVERS, INVARIANT_STEPS
from oracles import reference_scan, seeded_gnp, small_classes

PAIRS = tuple(combinations(INVARIANT_CHAIN, 2))


# ---------------------------------------------------------------------------
# is_ab_perfect
# ---------------------------------------------------------------------------


def test_p4_is_not_omega_psi_perfect():
    verdict = is_ab_perfect(path_graph(4), "omega", "psi")
    assert not verdict.perfect
    vertices, a_val, b_val = verdict.counterexample
    assert vertices == frozenset({0, 1, 2, 3})
    assert (a_val, b_val) == (2, 3)


def test_complete_graphs_are_perfect_for_every_pair():
    g = complete_graph(5)
    for i, a in enumerate(INVARIANT_CHAIN):
        for b in INVARIANT_CHAIN[i:]:
            assert is_ab_perfect(g, a, b).perfect


def test_c5_omega_chi_counterexample_is_itself():
    verdict = is_ab_perfect(cycle_graph(5), "omega", "chi")
    assert not verdict.perfect
    vertices, a_val, b_val = verdict.counterexample
    assert vertices == frozenset(range(5))
    assert (a_val, b_val) == (2, 3)


def test_pair_order_is_validated():
    with pytest.raises(ValueError):
        is_ab_perfect(path_graph(3), "psi", "omega")
    with pytest.raises(ValueError):
        is_ab_perfect(path_graph(3), "omega", "size")


def test_capacity_cap():
    with pytest.raises(CapacityError):
        is_ab_perfect(empty_graph(11), "omega", "psi")


def test_counterexample_minimality():
    # Every strictly smaller subset agrees, and the reported subset is the
    # lexicographically first of its size.
    for g in small_classes(5):
        verdict = is_ab_perfect(g, "omega", "psi")
        if verdict.perfect:
            continue
        vertices, _, _ = verdict.counterexample
        size = len(vertices)
        solve_a = INVARIANT_SOLVERS["omega"]
        solve_b = INVARIANT_SOLVERS["psi"]
        for smaller in range(1, size):
            for subset in combinations(range(g.n), smaller):
                h = induced_subgraph(g, subset)
                assert solve_a(h) == solve_b(h)
        for subset in combinations(range(g.n), size):
            if frozenset(subset) == vertices:
                break
            h = induced_subgraph(g, subset)
            assert solve_a(h) == solve_b(h)


def test_verdict_serialization():
    verdict = is_ab_perfect(path_graph(4), "omega", "psi")
    assert verdict.to_dict() == {
        "pair": ["omega", "psi"],
        "perfect": False,
        "counterexample": {"vertices": [0, 1, 2, 3], "a_value": 2, "b_value": 3},
    }
    clean = is_ab_perfect(complete_graph(3), "omega", "psi")
    assert clean.to_dict() == {
        "pair": ["omega", "psi"],
        "perfect": True,
        "counterexample": None,
    }


def _shape(rng, n, connected):
    if connected:
        if n <= 2 or rng.random() < 0.1:
            return complete_graph(n)
        m = rng.randint(1, max(1, n // 3))
        return join(complete_graph(m), _shape(rng, n - m, False))
    kinds = ["empty"] + ["two_cliques"] * (n >= 4) + ["one_part"] * (n >= 3)
    kind = rng.choice(kinds)
    if kind == "empty":
        return empty_graph(n)
    if kind == "two_cliques":
        a = rng.randint(2, n - 2)
        b = rng.randint(2, n - a)
        part = disjoint_union(complete_graph(a), complete_graph(b))
    else:
        part = _shape(rng, rng.randint(2, n - 1), True)
    return disjoint_union(part, empty_graph(n - part.n)) if part.n < n else part


def seeded_shape(seed, n):
    """A join/union shape of the omega-psi-perfect characterization, labels shuffled."""
    rng = random.Random(seed)
    g = _shape(rng, n, rng.random() < 0.75)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in combinations(range(n), 2) if g.has_edge(u, v)]
    return from_edge_list(n, edges)


def test_scan_memo_matches_reference_scan():
    # Same flag, counterexample subset and values as the scan that solves
    # every subset, for all 10 pairs.  Random graphs mostly fail early; the
    # shapes are perfect for every pair, so their scans visit every subset.
    random_graphs = [
        seeded_gnp(seed, n, p) for seed, (n, p) in enumerate(product((9, 10), (0.2, 0.5)))
    ]
    shapes = [seeded_shape(seed, n) for seed, n in ((0, 9), (1, 9), (1, 10), (8, 10))]
    assert len(PAIRS) == 10
    for full_scan, graphs in ((False, [*small_classes(6), *random_graphs]), (True, shapes)):
        for g in graphs:
            for a, b in PAIRS:
                verdict = is_ab_perfect(g, a, b)
                assert verdict == reference_scan(g, a, b), (to_graph6(g), a, b)
                assert verdict.perfect or not full_scan


def _full_scan_shape():
    """K2 joined over K3 + K3 + 2 isolated vertices, and the distinct labelled
    subgraphs of its unforced subsets.

    It is a cograph and omega-psi-perfect, so every pair's scan visits all
    1,023 subsets, which induce 86 distinct labelled subgraphs.  A subset
    whose deletions' values differ is forced by the deletion sandwich;
    the others induce 14 of the 86.
    """
    g = join(
        complete_graph(2),
        disjoint_union(disjoint_union(complete_graph(3), complete_graph(3)), empty_graph(2)),
    )
    assert to_graph6(g) == "I~~EMN?o?"
    subsets = [s for size in range(1, g.n + 1) for s in combinations(range(g.n), size)]
    distinct = {induced_subgraph(g, s).adj for s in subsets}
    assert len(subsets) == 1023 and len(distinct) == 86
    value = {(): 0} | {s: INVARIANT_SOLVERS["omega"](induced_subgraph(g, s)) for s in subsets}
    unforced = {
        induced_subgraph(g, s).adj
        for s in subsets
        if len({value[tuple(w for w in s if w != v)] for v in s}) == 1
    }
    assert len(unforced) == 14
    return g, unforced


def test_scan_solves_each_distinct_subgraph_once(monkeypatch):
    # Each solver runs once on each labelled subgraph of an unforced
    # subset and on no other.  The memo is keyed per size by the relabelled
    # upper triangle as one int, so that code must be injective on each
    # size's labelled subgraphs.
    g, unforced = _full_scan_shape()
    solved: dict = {}
    for name in ("omega", "psi"):

        def counted(h, name=name, solver=INVARIANT_SOLVERS[name]):
            solved.setdefault(name, []).append(h.adj)
            return solver(h)

        monkeypatch.setitem(INVARIANT_SOLVERS, name, counted)
    assert is_ab_perfect(g, "omega", "psi").perfect
    for name in ("omega", "psi"):
        assert len(solved[name]) == len(set(solved[name])), name
        assert set(solved[name]) == unforced, name


def test_scan_decides_gamma_once_per_unforced_subgraph(monkeypatch):
    # The omega-gamma scan of the same shape settles gamma by its decision
    # step alone: the full Grundy solver is never called, and the step runs
    # once on each labelled subgraph of an unforced subset, told an x with
    # gamma = omega in {x, x + 1}.
    g, unforced = _full_scan_shape()
    stepped = []

    def counted(h, x, step=INVARIANT_STEPS["gamma"]):
        stepped.append(h.adj)
        assert INVARIANT_SOLVERS["omega"](h) - x in (0, 1)
        return step(h, x)

    def refused(h):
        raise AssertionError("the scan called grundy_number")

    monkeypatch.setitem(INVARIANT_STEPS, "gamma", counted)
    monkeypatch.setitem(INVARIANT_SOLVERS, "gamma", refused)
    assert is_ab_perfect(g, "omega", "gamma").perfect
    assert len(stepped) == len(set(stepped)) and set(stepped) == unforced


def test_scan_reads_members_for_every_mask_up_to_its_cap():
    # The scan reads each subset's members from the table that colour
    # refinement builds for its own cap; both caps must cover 10 vertices.
    assert len(_MEMBERS) >= 1 << CAPS["is_ab_perfect"]
    assert all(_MEMBERS[mask] == tuple(bits(mask)) for mask in range(len(_MEMBERS)))


def test_scan_keeps_one_table_at_its_cap():
    # K10 omega-psi visits all 1,023 subsets.  One list of 2^10 triangle
    # codes and the per-size memos peak at 41-48 KiB on Python 3.10-3.13;
    # a second list of 2^10 ints adds 8 KiB of slots alone.
    g = complete_graph(10)
    is_ab_perfect(g, "omega", "psi")  # warm-up: module-level caches fill here
    tracemalloc.start()
    try:
        assert is_ab_perfect(g, "omega", "psi").perfect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 52 * 1024


def test_scan_rows_match_induced_subgraph(monkeypatch):
    # With omega and psi stubbed to agree, every scan is perfect and visits
    # every subset, so each distinct triangle code, built from the rows of
    # the subset's deletions one size down, reaches a solver once: the
    # graphs solved must be exactly the induced subgraphs, each solved once
    # per solver.
    solved = []
    for name in ("omega", "psi"):

        def constant(h, name=name):
            solved.append((name, h.n, h.adj))
            return 1

        monkeypatch.setitem(INVARIANT_SOLVERS, name, constant)
    for seed in range(6):
        g = seeded_gnp(seed, 10, 0.5)
        solved.clear()
        assert is_ab_perfect(g, "omega", "psi").perfect
        expected = {
            (h.n, h.adj)
            for size in range(1, g.n + 1)
            for h in (induced_subgraph(g, s) for s in combinations(range(g.n), size))
        }
        for name in ("omega", "psi"):
            got = sorted((n, adj) for solver, n, adj in solved if solver == name)
            assert got == sorted(expected), (seed, name)


def test_scan_edge_cases_match_reference_scan():
    # K1 and K2 start the scan from the empty prefix and build the first
    # one-bit row; K10 and the empty graph on 10 vertices are full scans at
    # the cap; the two P4s (on 6-9, and on 0-9-5-8 with labels out of order)
    # use vertex 9, so a wrong relabelling of the last vertex shows.
    graphs = [complete_graph(1), complete_graph(2), complete_graph(10), empty_graph(10)]
    graphs += [parse_graph6("I????C@?G"), parse_graph6("I?????C`?")]
    for g in graphs:
        for a, b in PAIRS:
            assert is_ab_perfect(g, a, b) == reference_scan(g, a, b), (to_graph6(g), a, b)


def test_scan_reports_the_first_subset_in_size_then_lex_order(monkeypatch):
    # omega is 1 everywhere and psi is 2 only on P3 labelled with its middle
    # vertex as 1, so no deletion forces a value and the first disagreement
    # is the first subset, in combinations order by size, inducing that
    # labelled P3: the scan's order and its memo key must both be right.
    p3 = (0b010, 0b101, 0b010)
    monkeypatch.setitem(INVARIANT_SOLVERS, "omega", lambda h: 1)
    monkeypatch.setitem(INVARIANT_SOLVERS, "psi", lambda h: 2 if h.adj == p3 else 1)
    # Each graph but the last has other labellings of P3 before that one;
    # the last has none, so its scan is perfect.
    for seed, p in ((3, 0.15), (6, 0.15), (7, 0.3), (5, 0.5), (6, 0.5), (4, 0.15)):
        g = seeded_gnp(seed, 10, p)
        first = next(
            (
                s
                for size in range(1, g.n + 1)
                for s in combinations(range(g.n), size)
                if induced_subgraph(g, s).adj == p3
            ),
            None,
        )
        expected = None if first is None else (frozenset(first), 1, 2)
        assert is_ab_perfect(g, "omega", "psi").counterexample == expected, (seed, p)


# The four pairs of the bench's check corpus.
CHECK_PAIRS = (("omega", "psi"), ("chi", "psi"), ("omega", "alpha"), ("omega", "gamma"))


def test_scan_matches_reference_scan_on_late_failures():
    # Each single-edge toggle of two perfect shapes, on four pairs: 288 cases,
    # 232 of which fail at a subset of 4-6 vertices, so the scan solves a
    # subset after forcing others.
    for g in (seeded_shape(0, 9), seeded_shape(1, 9)):
        for u, v in combinations(range(g.n), 2):
            h = from_edge_list(g.n, set(g.edges()) ^ {(u, v)})
            for a, b in CHECK_PAIRS:
                assert is_ab_perfect(h, a, b) == reference_scan(h, a, b), (to_graph6(h), a, b)


def _sandwich_violations(n_max):
    """Deletions on 1..n_max vertices where some invariant leaves
    a(G - v) <= a(G) <= a(G - v) + 1; each deletion's values are looked up
    by canonical form one level down."""
    violations = []
    below: dict[bytes, tuple[int, ...]] = {}
    for n in range(1, n_max + 1):
        here = {}
        labels: dict[tuple[int, ...], bytes] = {}
        for g in enumerate_graphs(n):
            values = tuple(solve(g) for solve in INVARIANT_SOLVERS.values())
            here[canonical_form(g)] = values
            if n == 1:
                continue  # K1 - v is the empty graph, 0 for every invariant
            for v in range(n):
                h = induced_subgraph(g, [w for w in range(n) if w != v])
                if h.adj not in labels:
                    labels[h.adj] = canonical_form(h)
                for name, x, y in zip(INVARIANT_SOLVERS, below[labels[h.adj]], values):
                    if not x <= y <= x + 1:
                        violations.append((to_graph6(g), v, name, x, y))
        below = here
    return violations


def test_deletion_sandwich_on_every_class_to_7():
    # The scan skips the solves this lemma forces (ROADMAP item 3).
    assert _sandwich_violations(7) == []


@pytest.mark.slow
def test_deletion_sandwich_on_every_class_at_8():
    assert _sandwich_violations(8) == []


# ---------------------------------------------------------------------------
# Forbidden-family equivalences at small scale (full depth runs in the
# acceptance module)
# ---------------------------------------------------------------------------


def test_gamma_perfectness_matches_p4_freeness():
    for g in small_classes(5):
        og = is_ab_perfect(g, "omega", "gamma").perfect
        cg = is_ab_perfect(g, "chi", "gamma").perfect
        assert og == cg == family_check(g, "p4_only").free


def test_alpha_perfectness_matches_triple_freeness():
    for g in small_classes(5):
        oa = is_ab_perfect(g, "omega", "alpha").perfect
        ca = is_ab_perfect(g, "chi", "alpha").perfect
        assert oa == ca == family_check(g, "achro_triple").free


# ---------------------------------------------------------------------------
# Structure recognizer
# ---------------------------------------------------------------------------


def test_recognize_complete():
    assert recognize_structure(complete_graph(3)) == StructureTree("complete", m=3)


def test_recognize_apex_join():
    g = join(complete_graph(1), disjoint_union(complete_graph(2), empty_graph(1)))
    tree = recognize_structure(g)
    assert tree == StructureTree(
        "join",
        m=1,
        children=(
            StructureTree(
                "union",
                children=(
                    StructureTree("complete", m=2),
                    StructureTree("empty-part", m=1),
                ),
            ),
        ),
    )
    assert tree.accepted


def test_recognize_rejects_p4():
    tree = recognize_structure(path_graph(4))
    assert tree.kind == "rejected"
    assert "universal" in tree.reason


def test_recognize_rejects_connected_remainder():
    # Wheel over C4: the hub is universal but peeling it leaves the 4-cycle.
    wheel = join(complete_graph(1), cycle_graph(4))
    tree = recognize_structure(wheel)
    assert not tree.accepted
    assert "connected" in tree.reason


def test_recognize_disconnected_shapes():
    assert recognize_structure(empty_graph(3)).accepted
    two_complete = disjoint_union(complete_graph(3), complete_graph(2))
    assert recognize_structure(two_complete).accepted
    with_isolated = disjoint_union(two_complete, empty_graph(2))
    assert recognize_structure(with_isolated).accepted
    three_parts = disjoint_union(two_complete, complete_graph(4))
    assert not recognize_structure(three_parts).accepted
    non_complete_pair = disjoint_union(path_graph(3), complete_graph(2))
    assert not recognize_structure(non_complete_pair).accepted


def test_recognizer_matches_quartet_freeness_everywhere():
    for g in small_classes(6):
        quartet_free = family_check(g, "omega_psi_quartet").free
        assert recognize_structure(g).accepted == quartet_free


def test_recognizer_rebuild_soundness():
    for g in small_classes(6):
        tree = recognize_structure(g)
        if tree.accepted:
            assert is_isomorphic(rebuild(tree), g)


def test_rebuild_refuses_trees_that_are_not_accepted():
    three_k2 = disjoint_union(
        complete_graph(2), disjoint_union(complete_graph(2), complete_graph(2))
    )
    trees = {
        "rejected root": recognize_structure(path_graph(4)),
        "rejected join child": recognize_structure(join(complete_graph(1), three_k2)),
        "rejected union child": recognize_structure(
            disjoint_union(path_graph(4), complete_graph(1))
        ),
        "empty union": StructureTree("union"),
    }
    assert [tree.kind for tree in trees.values()] == ["rejected", "join", "union", "union"]
    for tree in trees.values():
        with pytest.raises(ValueError):
            rebuild(tree)


def test_tree_serialization():
    tree = recognize_structure(complete_graph(2))
    assert tree.to_dict() == {
        "kind": "complete",
        "m": 2,
        "children": [],
        "reason": None,
    }


# ---------------------------------------------------------------------------
# Trivially perfect decomposition
# ---------------------------------------------------------------------------


def test_decompose_examples():
    assert decompose_trivially_perfect(complete_graph(5)) == StructureTree(
        "complete", m=5
    )
    assert not decompose_trivially_perfect(cycle_graph(4)).accepted
    with pytest.raises(ValueError):
        decompose_trivially_perfect(empty_graph(2))


def test_decompose_accepts_exactly_c4_p4_free_and_rebuilds():
    def c4_p4_free(g):
        return family_check(g, "p4_only").free and not any(
            is_isomorphic(induced_subgraph(g, s), cycle_graph(4))
            for s in combinations(range(g.n), 4)
        )

    for g in small_classes(6):
        if not is_connected(g):
            continue
        tree = decompose_trivially_perfect(g)
        assert tree.accepted == c4_p4_free(g)
        if tree.accepted:
            assert is_isomorphic(rebuild(tree), g)


def test_deep_nesting_decomposes():
    # K1 + (K1 + (K2 u K1) u K1): two levels of apex peeling
    inner = join(complete_graph(1), disjoint_union(complete_graph(2), empty_graph(1)))
    g = join(complete_graph(1), disjoint_union(inner, empty_graph(1)))
    tree = decompose_trivially_perfect(g)
    assert tree.accepted
    assert is_isomorphic(rebuild(tree), g)


# ---------------------------------------------------------------------------
# Four-way equivalence
# ---------------------------------------------------------------------------


def four_predicates(g):
    """omega-psi-perfect, chi-psi-perfect, quartet-free, structure: each on its own."""
    return (
        is_ab_perfect(g, "omega", "psi").perfect,
        is_ab_perfect(g, "chi", "psi").perfect,
        family_check(g, "omega_psi_quartet").free,
        recognize_structure(g).accepted,
    )


def test_equivalence_examples():
    assert four_predicates(disjoint_union(complete_graph(3), complete_graph(3))) == (True,) * 4
    assert four_predicates(path_graph(4)) == (False,) * 4
    assert four_predicates(cycle_graph(4)) == (False,) * 4


def test_equivalence_on_mixed_union():
    g = disjoint_union(
        join(complete_graph(2), disjoint_union(complete_graph(1), complete_graph(2))),
        empty_graph(2),
    )
    assert four_predicates(g) == (True,) * 4


def test_ab_perfect_at_the_10_vertex_cap():
    # Even cycles are classically perfect but fail the psi pairs via P4.
    c10 = cycle_graph(10)
    assert is_ab_perfect(c10, "omega", "chi").perfect
    verdict = is_ab_perfect(c10, "omega", "psi")
    assert not verdict.perfect and len(verdict.counterexample[0]) == 4


@pytest.mark.slow
def test_equivalence_sampled_at_the_enumeration_cap():
    import random

    rng = random.Random(90125)
    pool = list(enumerate_graphs(8))
    for g in rng.sample(pool, 120):
        assert len(set(four_predicates(g))) == 1, to_graph6(g)


def test_two_clique_union_full_profiles_at_grid_corners():
    # The sweep checks omega = psi across the whole grid; the corners also
    # get the full five-invariant treatment (chain validated on build).
    from abperfect import profile

    for m1, m2, t in [(1, 1, 0), (5, 5, 3), (5, 1, 3), (2, 4, 1)]:
        g = disjoint_union(complete_graph(m1), complete_graph(m2))
        if t:
            g = disjoint_union(g, empty_graph(t))
        p = profile(g)
        assert p.omega == p.psi == max(m1, m2)
