"""Pattern detection against a brute-force bijection oracle."""

import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

import abperfect
from abperfect import (
    FAMILIES,
    PATTERNS,
    CapacityError,
    Pattern,
    chromatic_number,
    complement,
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    family_check,
    from_edge_list,
    induced_subgraph,
    k44_c7_graph,
    path_graph,
    pseudoachromatic_number,
    to_graph6,
)
from abperfect.forbidden import _copy_through
from oracles import brute_contains_induced, brute_odd_hole, seeded_gnp, small_classes


def test_detection_examples():
    hit = contains_induced(cycle_graph(5), PATTERNS["P4"])
    assert hit is not None and len(hit) == 4
    assert contains_induced(complete_graph(5), PATTERNS["C4"]) is None
    hit = contains_induced(k44_c7_graph(), PATTERNS["C4"])
    assert hit is not None


def test_witness_is_lexicographically_smallest_and_induces_pattern():
    for g in small_classes(5):
        for pattern in PATTERNS.values():
            got = contains_induced(g, pattern)
            expected = brute_contains_induced(g, pattern.graph)
            assert got == expected
            if got is not None:
                sub = induced_subgraph(g, got)
                assert brute_contains_induced(sub, pattern.graph) is not None


def test_detection_matches_oracle_to_6():
    for g in small_classes(6):
        for pattern in PATTERNS.values():
            assert contains_induced(g, pattern) == brute_contains_induced(
                g, pattern.graph
            )


def test_detection_matches_oracle_sampled_7():
    rng = random.Random(48151623)
    pool = list(enumerate_graphs(7))
    for g in rng.sample(pool, 120):
        for pattern in PATTERNS.values():
            assert contains_induced(g, pattern) == brute_contains_induced(
                g, pattern.graph
            )


@pytest.mark.slow
def test_detection_matches_oracle_every_class_at_7():
    for g in enumerate_graphs(7):
        for pattern in PATTERNS.values():
            assert contains_induced(g, pattern) == brute_contains_induced(
                g, pattern.graph
            )


@pytest.mark.slow
def test_detection_matches_oracle_every_class_at_8():
    for g in enumerate_graphs(8):
        for pattern in PATTERNS.values():
            assert contains_induced(g, pattern) == brute_contains_induced(
                g, pattern.graph
            ), (to_graph6(g), pattern.name)


def test_detection_matches_oracle_on_9_to_32_vertices():
    grid = product(range(9, 14), (0.1, 0.25, 0.5, 0.75, 0.9))
    hosts = [seeded_gnp(seed, n, p) for seed, (n, p) in enumerate(grid)]
    hosts += [complete_graph(13), empty_graph(13), complete_graph(32)]
    absent = dict.fromkeys(PATTERNS, 0)
    for g in hosts:
        for pattern in PATTERNS.values():
            got = contains_induced(g, pattern)
            assert got == brute_contains_induced(g, pattern.graph), (to_graph6(g), pattern.name)
            absent[pattern.name] += got is None
    # Every pattern is found in some hosts and missing from others.
    assert all(0 < count < len(hosts) for count in absent.values()), absent


def test_walk_through_a_vertex_matches_oracle():
    # The enumeration's entry: the walk anchored at the last vertex finds
    # the lexicographically smallest copy holding it, which the oracle
    # finds by trying every bijection of every k-subset holding that
    # vertex.  Each vertex of each host is moved last by relabelling.
    gnp = [seeded_gnp(seed, 8 + seed % 2, (0.3, 0.5, 0.7)[seed % 3]) for seed in range(40)]
    missing = dict.fromkeys(PATTERNS, 0)
    tests = 0
    for g in [*small_classes(6), *gnp]:
        for v in range(g.n):
            place = [u - (u > v) for u in range(g.n)]
            place[v] = g.n - 1
            h = from_edge_list(g.n, [(place[a], place[b]) for a, b in g.edges()])
            for pattern in PATTERNS.values():
                got = _copy_through(h, pattern, True)
                assert got == brute_contains_induced(h, pattern.graph, h.n - 1), (to_graph6(g), v)
                missing[pattern.name] += got is None
                tests += 1
    # Every pattern is found through some vertices and missing through others.
    assert all(0 < count < tests // 4 for count in missing.values()), missing


def test_equal_degree_codes_are_decided_by_isomorphism():
    # The hosts' vertices are ordered so that each prefix of the one full
    # subset passes the degree-code cut; only the exact test rejects it.
    c6 = Pattern("C6", cycle_graph(6))
    two_triangles = from_edge_list(6, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5)])
    assert contains_induced(two_triangles, c6) is None
    c6_and_k1 = disjoint_union(cycle_graph(6), complete_graph(1))
    assert contains_induced(c6_and_k1, c6) == frozenset(range(6))
    c7 = Pattern("C7", cycle_graph(7))
    k3_and_c4 = from_edge_list(7, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 6), (3, 5), (5, 6)])
    assert contains_induced(k3_and_c4, c7) is None


def test_odd_hole_patterns_are_built_on_first_use():
    code = (
        "from abperfect import cycle_graph, family_check\n"
        "from abperfect.forbidden import _odd_hole_patterns, _scan_order\n"
        "assert _odd_hole_patterns.cache_info().currsize == 0\n"
        "family_check(cycle_graph(9), 'odd_holes_and_antiholes')\n"
        "first = list(_scan_order(cycle_graph(9), 'odd_holes_and_antiholes'))\n"
        "again = list(_scan_order(cycle_graph(9), 'odd_holes_and_antiholes'))\n"
        "assert all(a is b for a, b in zip(first, again)) and len(first) == 6\n"
        "assert _odd_hole_patterns.cache_info().currsize == 3\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(abperfect.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_family_examples():
    report = family_check(path_graph(4), "omega_psi_quartet")
    assert report.witness == ("P4", frozenset({0, 1, 2, 3}))
    assert not report.free

    two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
    assert family_check(two_triangles, "omega_psi_quartet").free

    report = family_check(cycle_graph(5), "odd_holes_and_antiholes")
    assert report.witness == ("C2k+1", frozenset({0, 1, 2, 3, 4}))


def test_family_scan_order_is_fixed():
    # C4 precedes P4 in the quartet, so the 4-cycle is reported over the
    # 4-path whenever both occur; C5 contains only the path.
    assert family_check(cycle_graph(5), "omega_psi_quartet").witness[0] == "P4"
    assert family_check(cycle_graph(4), "omega_psi_quartet").witness[0] == "C4"


def test_antihole_detection():
    co_c7 = from_edge_list(
        7, [(i, j) for i in range(7) for j in range(i + 1, 7)
            if j - i not in (1, 6)]
    )
    report = family_check(co_c7, "odd_holes_and_antiholes")
    # The only odd hole reachable lives in the complement (the 7-cycle).
    assert report.witness == ("co-C2k+1", frozenset(range(7)))
    assert family_check(complete_graph(4), "odd_holes_and_antiholes").free


def test_odd_holes_match_oracle_on_9_and_10_vertices():
    rng = random.Random(31415)
    hosts = [cycle_graph(9), complement(cycle_graph(9)), complete_graph(9)]
    for n in (9, 10):
        for p in (0.15, 0.25, 0.5, 0.75, 0.85):
            for _ in range(6):
                pairs = combinations(range(n), 2)
                hosts.append(from_edge_list(n, [e for e in pairs if rng.random() < p]))
        for _ in range(6):
            # Bipartite, so free: the scan runs to the longest length.
            side = [rng.randrange(2) for _ in range(n)]
            pairs = combinations(range(n), 2)
            hosts.append(
                from_edge_list(
                    n, [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < 0.5]
                )
            )
    shapes = set()
    for g in hosts:
        witness = family_check(g, "odd_holes_and_antiholes").witness
        assert witness == brute_odd_hole(g), to_graph6(g)
        shapes.add(witness and (witness[0], len(witness[1])))
    assert {None, ("C2k+1", 9), ("co-C2k+1", 9), ("C2k+1", 7)} <= shapes


def test_odd_hole_cap_depends_on_order_alone():
    # An 11-vertex host raises even when it has a short hole.
    host = disjoint_union(cycle_graph(5), empty_graph(6))
    with pytest.raises(
        CapacityError, match="odd_holes_and_antiholes capped at 10 vertices, got 11"
    ):
        family_check(host, "odd_holes_and_antiholes")
    assert family_check(complete_graph(10), "odd_holes_and_antiholes").free
    assert Pattern("C9", cycle_graph(9)).graph.n == 9
    with pytest.raises(CapacityError, match="is_isomorphic capped at 10 vertices, got 11"):
        Pattern("C11", cycle_graph(11))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family_check(path_graph(3), "no_such_family")


def test_hereditary_closure_of_family_free_graphs():
    for g in small_classes(6):
        if not family_check(g, "omega_psi_quartet").free:
            continue
        for size in range(1, g.n + 1):
            for subset in combinations(range(g.n), size):
                h = induced_subgraph(g, subset)
                assert family_check(h, "omega_psi_quartet").free


def test_quartet_members_share_chi_2_psi_3():
    for name in FAMILIES["omega_psi_quartet"]:
        member = PATTERNS[name].graph
        assert chromatic_number(member) == 2
        assert pseudoachromatic_number(member) == 3
