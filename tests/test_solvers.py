"""Solver values against frozen expected constants and brute-force oracles."""

import hashlib
import random
from dataclasses import fields
from itertools import combinations, product

import pytest

from abperfect import (
    INVARIANT_CHAIN,
    CapacityError,
    ParameterProfile,
    achromatic_number,
    canonical_form,
    chromatic_number,
    complement,
    clique_number,
    complete_bipartite,
    complete_graph,
    cycle_alpha_psi,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    family_check,
    from_edge_list,
    grundy_number,
    has_coloring,
    is_ab_perfect,
    is_complete_coloring,
    is_grundy,
    is_isomorphic,
    is_proper,
    join,
    k44_c7_graph,
    path_graph,
    profile,
    pseudoachromatic_number,
    sweep,
    to_graph6,
)
from abperfect.graphs import CAPS, check_cap
from abperfect.solvers import (
    _MODE_SOLVERS,
    INVARIANT_STEPS,
    _colorable,
    _complete_partition,
    _grundy_at_least,
    _grundy_reachable,
    _maximal_independent_sets,
    _plan,
)
from oracles import (
    brute_chromatic,
    brute_clique,
    brute_complete_counts,
    brute_grundy,
    brute_grundy_counts,
    brute_maximal_independent_sets,
    first_complete_coloring,
    labeled_graphs,
    random_labeled_graphs,
    seeded_gnp,
    small_classes,
)


# ---------------------------------------------------------------------------
# Published and derived values
# ---------------------------------------------------------------------------


def test_clique_number_examples():
    assert clique_number(k44_c7_graph()) == 2
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(7)) == 2


def test_chromatic_number_examples():
    assert chromatic_number(k44_c7_graph()) == 3
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(path_graph(4)) == 2


def test_grundy_number_examples():
    assert grundy_number(k44_c7_graph()) == 4
    p4 = path_graph(4)
    assert grundy_number(p4) == brute_grundy(p4) == 3
    for n in range(1, 6):
        assert grundy_number(complete_graph(n)) == n


def test_achromatic_number_examples():
    assert achromatic_number(k44_c7_graph()) == 5
    c4 = cycle_graph(4)
    assert achromatic_number(c4) == max(brute_complete_counts(c4)[1]) == 2
    for n in range(1, 6):
        assert achromatic_number(complete_graph(n)) == n


def test_pseudoachromatic_number_examples():
    assert pseudoachromatic_number(k44_c7_graph()) == 6
    assert pseudoachromatic_number(path_graph(4)) == 3
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            g = disjoint_union(complete_graph(m1), complete_graph(m2))
            assert pseudoachromatic_number(g) == max(m1, m2)


def test_full_witness_profile():
    assert profile(k44_c7_graph()).as_tuple() == (2, 3, 4, 5, 6)


def test_profile_examples():
    assert profile(complete_graph(4)).as_tuple() == (4, 4, 4, 4, 4)
    assert profile(cycle_graph(4)).as_tuple() == (2, 2, 2, 2, 3)


def test_profile_chain_is_validated():
    with pytest.raises(ValueError):
        ParameterProfile(omega=3, chi=2, gamma=3, alpha=3, psi=3)


def test_profile_fields_follow_the_invariant_chain():
    assert tuple(f.name for f in fields(ParameterProfile)) == INVARIANT_CHAIN


# ---------------------------------------------------------------------------
# Oracle equivalence and chain (quick slice; the full-depth run is in
# the acceptance module)
# ---------------------------------------------------------------------------


def test_solvers_match_oracles_small():
    for g in small_classes(5):
        assert clique_number(g) == brute_clique(g)
        assert chromatic_number(g) == brute_chromatic(g)
        assert grundy_number(g) == brute_grundy(g)
        complete, proper = brute_complete_counts(g)
        assert achromatic_number(g) == max(proper)
        assert pseudoachromatic_number(g) == max(complete)


def test_complete_solvers_match_oracles_at_6():
    for g in enumerate_graphs(6):
        complete, proper = brute_complete_counts(g)
        assert achromatic_number(g) == max(proper), to_graph6(g)
        assert pseudoachromatic_number(g) == max(complete), to_graph6(g)


def test_complete_counts_match_oracle_to_6():
    # Every feasible class count in both complete modes on every class up
    # to n=6: the class claims and the degree cover act at every k, and the
    # interpolation sweeps read each count, not only the largest one.
    for g in small_classes(6):
        for mode, counts in zip(("complete", "proper_complete"), brute_complete_counts(g)):
            test = _colorable(g, mode)
            assert {k for k in range(1, g.n + 1) if test(k)} == counts, (to_graph6(g), mode)


def test_complete_counts_match_oracle_at_8_and_9():
    # Every feasible class count in both complete modes, against set
    # partitions that no search prune touches, beyond the n <= 7 pins.
    cases = [(8, p) for p in (0.3, 0.5, 0.7)] * 8 + [(9, p) for p in (0.3, 0.5, 0.5, 0.7)]
    for seed, (n, p) in enumerate(cases):
        g = seeded_gnp(seed, n, p)
        for mode, counts in zip(("complete", "proper_complete"), brute_complete_counts(g)):
            test = _colorable(g, mode)
            found = {k for k in range(1, n + 1) if test(k)}
            assert found == counts, (seed, to_graph6(g), mode)


def test_complete_counts_match_oracle_on_complete_bipartite():
    # K_{a,b} has few edges for its vertices and no edge inside a part, so
    # the unopened-color cut binds: r unopened colors need r(r-1)/2 edges
    # among the unplaced vertices.  Every feasible count in both modes
    # against set partitions, then two profiles read before the cut.
    for a in range(1, 5):
        for b in range(a, 10 - a):
            g = complete_bipartite(a, b)
            for mode, counts in zip(("complete", "proper_complete"), brute_complete_counts(g)):
                test = _colorable(g, mode)
                assert {k for k in range(1, a + b + 1) if test(k)} == counts, (a, b, mode)
    for (a, b), psi in (((4, 8), 5), ((6, 6), 7)):
        g = complete_bipartite(a, b)
        assert (achromatic_number(g), pseudoachromatic_number(g)) == (2, psi), (a, b)


def test_complete_partition_returns_the_first_solution_in_its_order():
    # The witness of every k in both modes is the first complete k-coloring
    # of an unpruned walk in the same order, so no prune or refusal cuts a
    # solution that comes earlier; the counts tests above check only that
    # some solution survives.  2,334 cases on every class up to 6 vertices.
    for g in small_classes(6):
        plan = _plan(g)
        for k, proper in product(range(1, g.n + 1), (False, True)):
            expected = first_complete_coloring(g, k, proper)
            assert _complete_partition(plan, k, proper) == expected, (to_graph6(g), k, proper)


def test_complete_partition_refuses_more_classes_than_vertices():
    # The search has no k > n test of its own: the edge count refuses such k,
    # since k(k-1)/2 > n(n-1)/2 >= |E|, with equality on K_n.  Both modes.
    for g in [complete_graph(n) for n in range(1, 9)] + list(small_classes(6)):
        plan = _plan(g)
        for k, proper in product((g.n + 1, g.n + 2), (False, True)):
            assert _complete_partition(plan, k, proper) is None, (to_graph6(g), k, proper)


def test_grundy_counts_match_oracle_at_6():
    # Every feasible count, not only the largest one; the scan's decision
    # "gamma >= t" for every t, past n too, where its degree cut refuses.
    for g in small_classes(6):
        counts = {k for k in range(1, g.n + 1) if has_coloring(g, k, "grundy")}
        assert counts == brute_grundy_counts(g), to_graph6(g)
        for t in range(g.n + 2):
            assert _grundy_at_least(g, t) == (t <= max(counts)), (to_graph6(g), t)


def test_scan_steps_match_full_solvers_on_random_graphs():
    # The gamma decision at every t against the Grundy memo, and each
    # decided step, at both values it may be told, against the full solver.
    for seed in range(40):
        g = seeded_gnp(seed, 8 + seed % 4, (0.3, 0.5, 0.7)[seed % 3])
        gamma = _grundy_reachable(g)[(1 << g.n) - 1].bit_length() - 1
        for t in range(g.n + 2):
            assert _grundy_at_least(g, t) == (t <= gamma), (seed, t)
        for name, value in (("gamma", gamma), ("chi", chromatic_number(g))):
            for x in (value - 1, value):
                assert INVARIANT_STEPS[name](g, x) == value, (seed, name, x)


def test_maximal_independent_sets_match_oracle_at_6():
    # Each maximal independent subset of every vertex mask, listed once.
    for g in small_classes(6):
        non = complement(g).adj
        for mask in range(1 << g.n):
            found = _maximal_independent_sets(non, mask)
            assert len(found) == len(set(found)), (to_graph6(g), mask)
            assert set(found) == brute_maximal_independent_sets(g, mask), (to_graph6(g), mask)


# The G(n, p) cells of the 9-12 vertex pins: n and p, seeded by position.
_WITNESS_CELLS = [(n, q) for n in (9, 10, 11, 12) for q in (0.2, 0.35, 0.5, 0.7)] * 3


def test_alpha_psi_values_are_frozen():
    # SHA-256 of "alpha psi" per class over enumerate_graphs(1..7), in
    # enumeration order (pinned by test_enumeration_stream_is_frozen); the
    # value was recorded before the complete-coloring search was rewritten.
    digest = hashlib.sha256()
    for g in small_classes(7):
        digest.update(f"{achromatic_number(g)} {pseudoachromatic_number(g)}\n".encode())
    assert digest.hexdigest() == "64268daa055436f73a3295acbcefeb859144a0f4e3645578ce66dae2d9b10124"


def test_alpha_psi_values_are_frozen_on_9_to_12_vertices():
    # SHA-256 of "alpha psi" per G(n, p) graph of the witness pin below; the
    # value was recorded before the search's color order changed, so it
    # holds whichever witness the search returns first.
    digest = hashlib.sha256()
    for seed, (n, q) in enumerate(_WITNESS_CELLS):
        g = seeded_gnp(seed, n, q)
        digest.update(f"{achromatic_number(g)} {pseudoachromatic_number(g)}\n".encode())
    assert digest.hexdigest() == "1dca3c7c3835c5d27a6005af63693a09106b3b3c5ab3be5fef0f60f141aa0b1b"


@pytest.mark.slow
def test_alpha_psi_values_are_frozen_at_8():
    # SHA-256 of "alpha psi" per class over the 12,346 classes of
    # enumerate_graphs(8), in enumeration order; the value was recorded
    # before the search's color order changed.
    digest = hashlib.sha256()
    for g in enumerate_graphs(8):
        digest.update(f"{achromatic_number(g)} {pseudoachromatic_number(g)}\n".encode())
    assert digest.hexdigest() == "bb398ab019bd134ad36becfdfce0616b253227e435d9b9ad2458434431af7c5d"


def _checked_witness_line(g) -> str:
    """"alpha witness psi witness" for g, each witness checked first: it has
    as many classes as its value and is complete, and alpha's is proper."""
    a, aw = achromatic_number(g, witness=True)
    p, pw = pseudoachromatic_number(g, witness=True)
    assert aw.k == a and is_complete_coloring(g, aw) and is_proper(g, aw), to_graph6(g)
    assert pw.k == p and is_complete_coloring(g, pw), to_graph6(g)
    return f"{a} {aw.colors} {p} {pw.colors}\n"


def test_alpha_psi_witnesses_are_frozen():
    # SHA-256 of "alpha witness psi witness" per class over
    # enumerate_graphs(1..7), in enumeration order; the value was recorded
    # when the complete-coloring search began trying colors newest first.
    digest = hashlib.sha256()
    for g in small_classes(7):
        digest.update(_checked_witness_line(g).encode())
    assert digest.hexdigest() == "7dd254f3e267921e80b91193e61c405badcf0121d201f06f16e0ac71ef250562"


def test_alpha_psi_witnesses_are_frozen_on_9_to_12_vertices():
    # SHA-256 of "alpha witness psi witness" per G(n, p) graph on 9-12
    # vertices, where the class claims cut most; the value was recorded
    # when the search began trying colors newest first.
    digest = hashlib.sha256()
    for seed, (n, q) in enumerate(_WITNESS_CELLS):
        g = seeded_gnp(seed, n, q)
        digest.update(_checked_witness_line(g).encode())
    assert digest.hexdigest() == "26749a22f9dae6c2fce72619cc992107117fb76b5317b81248de3faa8a2fdbec"


@pytest.mark.slow
def test_alpha_psi_witnesses_are_frozen_at_8():
    # SHA-256 of "alpha witness psi witness" per class over the 12,346
    # classes of enumerate_graphs(8), in enumeration order; the value was
    # recorded when the search began trying colors newest first.
    digest = hashlib.sha256()
    for g in enumerate_graphs(8):
        digest.update(_checked_witness_line(g).encode())
    assert digest.hexdigest() == "6fb36108ec6d461ba189c56c97c047886bc8d34765d7dd566ca52b0eeb223203"


def test_grundy_values_witnesses_and_counts_are_frozen():
    # SHA-256 of "gamma witness feasible-counts" per class over
    # enumerate_graphs(1..7), in enumeration order; the value was recorded
    # before the Grundy search moved to bitmask count sets.
    digest = hashlib.sha256()
    for g in small_classes(7):
        value, w = grundy_number(g, witness=True)
        ks = [k for k in range(1, g.n + 1) if has_coloring(g, k, "grundy")]
        digest.update(f"{value} {w.colors} {ks}\n".encode())
    assert digest.hexdigest() == "18d61472d27a2974933142dd052f09317874f2d5a7d3887e7fe64d7ef55b0f2f"


def test_chain_holds_small():
    for g in small_classes(5):
        p = profile(g)  # construction validates the chain
        assert p.omega >= 1


@pytest.mark.slow
def test_chain_holds_on_every_labeled_graph_to_6():
    for n in range(1, 7):
        for g in labeled_graphs(n):
            profile(g)


def test_grundy_p4_matches_validator_enumeration():
    # Second oracle route: maximum k over all colorings passing is_grundy.
    from oracles import all_surjective_colorings

    p4 = path_graph(4)
    best = max(c.k for c in all_surjective_colorings(4) if is_grundy(p4, c))
    assert best == grundy_number(p4) == 3


def test_psi_edge_bound():
    # psi colour classes pairwise share an edge, so psi*(psi-1)/2 <= |E|.
    for g in small_classes(6):
        psi = pseudoachromatic_number(g)
        assert psi * (psi - 1) // 2 <= g.edge_count()


# ---------------------------------------------------------------------------
# Witness colorings
# ---------------------------------------------------------------------------


def opens_in_vertex_order(c) -> bool:
    """The colours' first occurrences, in vertex order, read 1..k."""
    return list(dict.fromkeys(c.colors)) == list(range(1, c.k + 1))


def test_witnesses_validate():
    for g in [*small_classes(5), k44_c7_graph()]:
        chi, proper_w = chromatic_number(g, witness=True)
        assert proper_w.k == chi and is_proper(g, proper_w)
        gamma, grundy_w = grundy_number(g, witness=True)
        assert grundy_w.k == gamma and is_grundy(g, grundy_w)
        alpha, achro_w = achromatic_number(g, witness=True)
        assert achro_w.k == alpha
        assert is_proper(g, achro_w) and is_complete_coloring(g, achro_w)
        psi, complete_w = pseudoachromatic_number(g, witness=True)
        assert complete_w.k == psi and is_complete_coloring(g, complete_w)
        # Canonically ordered searches return normalized witnesses; Grundy
        # witnesses number their classes by the Grundy order instead.
        for w in (proper_w, achro_w, complete_w):
            assert opens_in_vertex_order(w), (to_graph6(g), w)


def test_complete_search_off_label_order():
    # The complete-coloring search branches in degree order; on these graphs
    # that differs from label order, so witnesses are mapped back to labels.
    rng = random.Random(1507)
    for seed, (n, p) in enumerate(product((9, 10, 11, 12), (0.3, 0.5))):
        g = seeded_gnp(seed, n, p)
        degrees = [row.bit_count() for row in g.adj]
        assert degrees != sorted(degrees, reverse=True)
        alpha, achro_w = achromatic_number(g, witness=True)
        assert achro_w.k == alpha
        assert is_proper(g, achro_w) and is_complete_coloring(g, achro_w)
        psi, complete_w = pseudoachromatic_number(g, witness=True)
        assert complete_w.k == psi and is_complete_coloring(g, complete_w)
        assert opens_in_vertex_order(achro_w) and opens_in_vertex_order(complete_w)
        assert psi < n and not has_coloring(g, psi + 1, "complete")
        edges = [(u, v) for u, v in combinations(range(n), 2) if g.adj[u] >> v & 1]
        for _ in range(3):
            perm = rng.sample(range(n), n)
            h = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
            assert (achromatic_number(h), pseudoachromatic_number(h)) == (alpha, psi)


def test_grundy_witness_and_chain_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @hypothesis.given(random_labeled_graphs(st, 9, 10))
    def check(g):
        gamma, w = grundy_number(g, witness=True)
        assert w.k == gamma and is_grundy(g, w)
        assert has_coloring(g, gamma, "grundy")
        if gamma < g.n:
            assert not has_coloring(g, gamma + 1, "grundy")
        assert profile(g).gamma == gamma  # construction checks the chain

    check()


def test_proper_and_complete_witnesses_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @hypothesis.given(random_labeled_graphs(st, 9, 10))
    def check(g):
        chi, proper_w = chromatic_number(g, witness=True)
        assert proper_w.k == chi and is_proper(g, proper_w)
        alpha, achro_w = achromatic_number(g, witness=True)
        assert achro_w.k == alpha
        assert is_proper(g, achro_w) and is_complete_coloring(g, achro_w)
        psi, complete_w = pseudoachromatic_number(g, witness=True)
        assert complete_w.k == psi and is_complete_coloring(g, complete_w)
        # Merging two classes of a complete coloring leaves it complete, so
        # no complete coloring above psi rules out every count above it.
        if psi < g.n:
            assert not has_coloring(g, psi + 1, "complete")

    check()


def test_clique_and_chromatic_numbers_add_over_joins():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # Every vertex of G is joined to every vertex of H, so a clique of the
    # join is one of G's beside one of H's, and a proper coloring gives
    # the two sides disjoint colors.
    pairs = random_labeled_graphs(st, 1, 9).flatmap(
        lambda g: st.tuples(st.just(g), random_labeled_graphs(st, 1, 10 - g.n))
    )

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @hypothesis.given(pairs)
    def check(pair):
        g, h = pair
        both = join(g, h)
        for solve in (clique_number, chromatic_number):
            assert solve(both) == solve(g) + solve(h), (solve.__name__, to_graph6(g), to_graph6(h))

    check()


def test_clique_witness():
    size, members = clique_number(k44_c7_graph(), witness=True)
    assert size == 2 and len(members) == 2


def test_witnesses_are_deterministic():
    g = cycle_graph(5)
    assert achromatic_number(g, witness=True) == achromatic_number(g, witness=True)
    assert grundy_number(g, witness=True) == grundy_number(g, witness=True)


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------


def test_has_coloring_examples():
    p4 = path_graph(4)
    assert has_coloring(p4, 2, "proper_complete")
    assert has_coloring(p4, 3, "proper_complete")
    assert not has_coloring(cycle_graph(4), 3, "proper_complete")


def test_has_coloring_consistency_with_extremes():
    for g in small_classes(5):
        assert has_coloring(g, chromatic_number(g), "proper_complete")
        assert has_coloring(g, achromatic_number(g), "proper_complete")
        assert has_coloring(g, grundy_number(g), "grundy")
        psi = pseudoachromatic_number(g)
        assert has_coloring(g, psi, "complete")
        if psi < g.n:
            assert not has_coloring(g, psi + 1, "complete")


def test_has_coloring_argument_validation():
    with pytest.raises(ValueError):
        has_coloring(path_graph(3), 1, "nonsense")
    with pytest.raises(ValueError):
        has_coloring(path_graph(3), 0, "complete")
    with pytest.raises(ValueError):
        has_coloring(path_graph(3), 4, "complete")


# ---------------------------------------------------------------------------
# Capacity caps
# ---------------------------------------------------------------------------


def test_capacity_caps_are_errors():
    # One call per entry of the cap table, on n vertices; a cap without a
    # call here fails the key check.
    def on_empty(solve):
        return lambda n: solve(empty_graph(n))

    capped = {
        "canonical_form": on_empty(canonical_form),
        "canonical enumeration": lambda n: next(enumerate_graphs(n)),
        "is_isomorphic": lambda n: is_isomorphic(empty_graph(n), empty_graph(n)),
        "is_ab_perfect": lambda n: is_ab_perfect(empty_graph(n), "omega", "psi"),
        "odd_holes_and_antiholes": lambda n: family_check(
            empty_graph(n), "odd_holes_and_antiholes"
        ),
        "cycle table": cycle_alpha_psi,
        "grundy_number": on_empty(grundy_number),
        "achromatic_number": on_empty(achromatic_number),
        "pseudoachromatic_number": on_empty(pseudoachromatic_number),
        "profile": on_empty(profile),
        "lemma2 sweep": lambda n: sweep("lemma2", n),
        "chromatic_number": on_empty(chromatic_number),
    }
    assert capped.keys() == CAPS.keys()
    for name, cap in CAPS.items():
        with pytest.raises(CapacityError, match=rf"\b{cap}\b.*, got {cap + 1}$"):
            capped[name](cap + 1)
        capped[name](cap)
        # A vertex count must be an integer; a bool counts as 0 or 1.
        with pytest.raises(TypeError):
            check_cap(name, 2.5)
        check_cap(name, True)
    assert set(_MODE_SOLVERS) == {"complete", "proper_complete", "grundy"}
    for mode, name in _MODE_SOLVERS.items():
        cap = CAPS[name]
        with pytest.raises(CapacityError, match=f"capped at {cap} vertices, got {cap + 1}"):
            has_coloring(empty_graph(cap + 1), 1, mode)
        assert has_coloring(empty_graph(cap), 1, mode)
