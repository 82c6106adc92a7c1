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
from abperfect.graphs import CAPS
from abperfect.solvers import _MODE_SOLVERS, _colorable, _maximal_independent_sets
from oracles import (
    brute_achromatic,
    brute_chromatic,
    brute_clique,
    brute_complete_counts,
    brute_grundy,
    brute_grundy_counts,
    brute_maximal_independent_sets,
    brute_pseudoachromatic,
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
    assert achromatic_number(c4) == brute_achromatic(c4) == 2
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
        assert achromatic_number(g) == brute_achromatic(g)
        assert pseudoachromatic_number(g) == brute_pseudoachromatic(g)


def test_complete_solvers_match_oracles_at_6():
    for g in enumerate_graphs(6):
        assert achromatic_number(g) == brute_achromatic(g), to_graph6(g)
        assert pseudoachromatic_number(g) == brute_pseudoachromatic(g), to_graph6(g)


def test_complete_counts_match_oracle_at_8_and_9():
    # Every feasible class count in both complete modes, against set
    # partitions that no search prune touches, beyond the n <= 7 pins.
    cases = [(8, p) for p in (0.3, 0.5, 0.7)] * 8 + [(9, p) for p in (0.3, 0.5, 0.5, 0.7)]
    for seed, (n, p) in enumerate(cases):
        g = seeded_gnp(seed, n, p)
        for mode, proper in (("complete", False), ("proper_complete", True)):
            test = _colorable(g, mode)
            found = {k for k in range(1, n + 1) if test(k)}
            assert found == brute_complete_counts(g, proper), (seed, to_graph6(g), mode)


def test_grundy_counts_match_oracle_at_6():
    # Every feasible count, not only the largest one.
    for g in small_classes(6):
        counts = {k for k in range(1, g.n + 1) if has_coloring(g, k, "grundy")}
        assert counts == brute_grundy_counts(g), to_graph6(g)


def test_maximal_independent_sets_match_oracle_at_6():
    # Each maximal independent subset of every vertex mask, listed once.
    for g in small_classes(6):
        non = complement(g).adj
        for mask in range(1 << g.n):
            found = _maximal_independent_sets(non, mask)
            assert len(found) == len(set(found)), (to_graph6(g), mask)
            assert set(found) == brute_maximal_independent_sets(g, mask), (to_graph6(g), mask)


def test_alpha_psi_values_are_frozen():
    # SHA-256 of "alpha psi" per class over enumerate_graphs(1..7), in
    # enumeration order (pinned by test_enumeration_stream_is_frozen); the
    # value was recorded before the complete-coloring search was rewritten.
    digest = hashlib.sha256()
    for g in small_classes(7):
        digest.update(f"{achromatic_number(g)} {pseudoachromatic_number(g)}\n".encode())
    assert digest.hexdigest() == "64268daa055436f73a3295acbcefeb859144a0f4e3645578ce66dae2d9b10124"


def test_alpha_psi_witnesses_are_frozen():
    # SHA-256 of "alpha witness psi witness" per class over
    # enumerate_graphs(1..7), in enumeration order; the value was recorded
    # before the complete-coloring search moved to one color per vertex.
    digest = hashlib.sha256()
    for g in small_classes(7):
        a, aw = achromatic_number(g, witness=True)
        p, pw = pseudoachromatic_number(g, witness=True)
        digest.update(f"{a} {aw.colors} {p} {pw.colors}\n".encode())
    assert digest.hexdigest() == "ed36468af3aa6334aa4185338020b4a2c6ef663ac75ec91e1844a766bbd6d4f3"


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
    assert set(_MODE_SOLVERS) == {"complete", "proper_complete", "grundy"}
    for mode, name in _MODE_SOLVERS.items():
        cap = CAPS[name]
        with pytest.raises(CapacityError, match=f"capped at {cap} vertices, got {cap + 1}"):
            has_coloring(empty_graph(cap + 1), 1, mode)
        assert has_coloring(empty_graph(cap), 1, mode)
