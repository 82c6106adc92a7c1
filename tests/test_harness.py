"""Enumeration counts, sweep plumbing, and report formats."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import combinations
from multiprocessing import get_context
from pathlib import Path

import pytest

import abperfect

from abperfect import (
    INVARIANT_CHAIN,
    THEOREM_IDS,
    CapacityError,
    Graph,
    canonical_form,
    chromatic_number,
    complete_graph,
    cycle_alpha_psi,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    induced_subgraph,
    is_ab_perfect,
    is_connected,
    path_graph,
    sweep,
    to_graph6,
)
from abperfect import harness, solvers
from abperfect.forbidden import PATTERNS
from abperfect.graphs import _degree_code
from oracles import (
    brute_complete_counts,
    brute_contains_induced,
    brute_grundy_counts,
    isomorphism_class_count,
    labeled_graphs,
    unpruned_levels,
)


def test_labeled_enumeration_counts():
    assert sum(1 for _ in labeled_graphs(2)) == 2
    assert sum(1 for _ in labeled_graphs(4)) == 64


def test_canonical_counts_match_labeled_dedup_oracle():
    for n in range(1, 6):
        labeled_classes = {canonical_form(g) for g in labeled_graphs(n)}
        canonical = list(enumerate_graphs(n))
        assert len(canonical) == len(labeled_classes)
        assert {canonical_form(g) for g in canonical} == labeled_classes


def test_canonical_counts_match_cycle_index_oracle():
    for n in range(1, 8):
        count = sum(1 for _ in enumerate_graphs(n))
        assert count == isomorphism_class_count(n)


def test_enumeration_caps_and_modes():
    with pytest.raises(CapacityError):
        next(enumerate_graphs(9))
    with pytest.raises(CapacityError):
        next(enumerate_graphs(9, ("P4", "C4")))
    with pytest.raises(ValueError, match="unknown patterns"):
        next(enumerate_graphs(4, ("P4", "K5")))
    # The checks run at the call, before anything is read.
    with pytest.raises(CapacityError):
        enumerate_graphs(9)
    with pytest.raises(CapacityError):
        enumerate_graphs(0, ("P4",))
    with pytest.raises(ValueError, match="unknown patterns"):
        enumerate_graphs(4, ("P4", "K5"))


def test_enumeration_is_deterministic():
    first = [to_graph6(g) for g in enumerate_graphs(5)]
    second = [to_graph6(g) for g in enumerate_graphs(5)]
    assert first == second


def test_enumeration_stream_is_frozen():
    # SHA-256 of the graph6 line of every representative for n = 1..7 and
    # 1..8: any change to the classes, their representatives or their order
    # shows here.
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            digest.update((to_graph6(g) + "\n").encode())
        if n == 7:
            assert (
                digest.copy().hexdigest()
                == "ae0c52541b1bcc8d36d4443ba759f8ca12c72c5a0aaff7a08294304a6dd47486"
            )
    assert digest.hexdigest() == "b6da418edc55e66979e9e005e58e1a001a98fbaedfd0d268886ce40742ecf6a9"


def test_orbit_pruned_levels_equal_unpruned_reference():
    for n, level in enumerate(unpruned_levels(7), start=1):
        assert list(enumerate_graphs(n)) == level, n


def test_earlier_parent_pruning_skips_only_children_an_earlier_parent_produced():
    # Each skipped child is checked against the definition: some deletion,
    # labelled by canonical_form and looked up one level down, is the class
    # of a representative before the child's parent.  The orbit-pruned
    # children of levels 2..7 number 2, 6, 20, 90, 544 and 5,096.
    skipped = 0
    for n in range(2, 8):
        below = harness._canonical_level(n - 1, ()).graphs
        index = {canonical_form(p): j for j, p in enumerate(below)}
        last = {_degree_code(p.adj, (1 << p.n) - 1): j for j, p in enumerate(below)}
        for i, parent in enumerate(below):
            produced_earlier = harness._produced_earlier(parent, i, last)
            for mask in harness._extension_masks(parent):
                rows = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
                g = Graph(n, rows + [mask])
                if not produced_earlier(mask):
                    continue
                skipped += 1
                deletions = (induced_subgraph(g, set(range(n)) - {v}) for v in range(n - 1))
                assert min(index[canonical_form(h)] for h in deletions) < i, to_graph6(g)
    assert skipped == 3_910


def _assert_earlier_parent_test_is_the_definition(levels):
    # The per-parent tables give each deletion's code without building the
    # child; the definition builds the child and codes each deletion g - v
    # from its rows.  Every orbit-kept child of each level is compared.
    for n, free_of in levels:
        below = harness._canonical_level(n - 1, free_of).graphs
        full = (1 << n) - 1
        last = {_degree_code(p.adj, full >> 1): j for j, p in enumerate(below)}
        for i, parent in enumerate(below):
            produced_earlier = harness._produced_earlier(parent, i, last)
            for mask in harness._extension_masks(parent):
                rows = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
                g = Graph(n, rows + [mask])
                expected = any(
                    last.get(_degree_code(g.adj, full ^ 1 << v), -1) < i for v in range(n - 1)
                )
                assert produced_earlier(mask) == expected, (free_of, to_graph6(g))


def test_earlier_parent_tables_give_the_deletion_codes():
    _assert_earlier_parent_test_is_the_definition(
        [(n, ()) for n in range(2, 8)] + [(n, ("C4", "P4")) for n in range(2, 9)]
    )


@pytest.mark.slow
def test_earlier_parent_tables_give_the_deletion_codes_at_8():
    _assert_earlier_parent_test_is_the_definition([(8, ())])


def _orbit_kept_masks(n, free_of):
    """The masks the orbit filter keeps over level n - 1, each parent's ascending."""
    total = 0
    for parent in harness._canonical_level(n - 1, free_of).graphs:
        masks = harness._extension_masks(parent)
        assert masks == sorted(set(masks)), to_graph6(parent)
        total += len(masks)
    return total


def test_orbit_filter_keeps_one_mask_per_rooted_graph():
    # One child per rooted graph on n vertices, which are the graphs with
    # loops on n - 1 vertices (OEIS A000666): the parents' generators are
    # enough to leave no two masks of one orbit.
    assert [_orbit_kept_masks(n, ()) for n in range(2, 8)] == [2, 6, 20, 90, 544, 5_096]
    assert sum(_orbit_kept_masks(n, ("C4", "P4")) for n in range(2, 9)) == 6_415


@pytest.mark.slow
def test_orbit_filter_keeps_one_mask_per_rooted_graph_at_8():
    assert _orbit_kept_masks(8, ()) == 79_264


def _count_lookups(monkeypatch):
    """Record each graph that harness refines and the first graph of each mapping search."""
    refined, searched = [], []
    refine, mapping_exists = harness._refine, harness._mapping_exists

    def counted_refine(g):
        refined.append(g)
        return refine(g)

    def counted_mapping_exists(g1, g2, ranks1, ranks2):
        searched.append(g1)
        return mapping_exists(g1, g2, ranks1, ranks2)

    monkeypatch.setattr(harness, "_refine", counted_refine)
    monkeypatch.setattr(harness, "_mapping_exists", counted_mapping_exists)
    return refined, searched


def test_cold_enumeration_labels_pinned_children(monkeypatch):
    # A fresh cache over the same function enumerates cold; the shared
    # cache is back in place, still warm, after the test.  Each child that
    # pruning keeps is refined once and searched against each earlier
    # representative sharing its invariant: 628 searches to level 7 for
    # 597 children whose class an earlier child has.
    cold = lru_cache(maxsize=None)(harness._canonical_level.__wrapped__)
    monkeypatch.setattr(harness, "_canonical_level", cold)
    refined, searched = _count_lookups(monkeypatch)
    cold(7, ())
    counts = [[g.n for g in refined].count(n) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 174, 1_623]
    assert [[g.n for g in searched].count(n) for n in range(1, 8)] == [0] * 5 + [22, 606]
    assert sum(counts) - sum(len(cold(n, ()).graphs) for n in range(1, 8)) == 597
    # A restricted level drops a child holding a pattern before refining
    # it, and builds no full level on the way.
    refined.clear()
    searched.clear()
    cold(8, ("C4", "P4"))
    counts = [[g.n for g in refined].count(n) for n in range(1, 9)]
    assert counts == [1, 2, 4, 9, 20, 48, 115, 288]
    assert [g.n for g in searched] == [8, 8]
    assert cold.cache_info().currsize == 7 + 8


def _assert_lookups_agree_with_canonical_form(monkeypatch, n_values):
    # Every deletion of every class is asked for its class twice on a cold
    # level one down.  The first ask refines it, unless its rows are a
    # representative's, which the level's first lookup maps, or were asked
    # before; the second reads the level's map.  Both answers are checked
    # against the canonical form, the slow path, which shares no code with
    # the buckets beyond _refine.
    cold, _ = _record_levels(monkeypatch)
    refined, _ = _count_lookups(monkeypatch)
    for free_of in ((), ("C4", "P4")):
        for n in n_values:
            below = cold(n - 1, free_of)
            by_form = {canonical_form(h): i for i, h in enumerate(below.graphs)}
            representatives = {h.adj for h in below.graphs}
            for g in cold(n, free_of).graphs:
                for v in range(n):
                    h = induced_subgraph(g, set(range(n)) - {v})
                    want = by_form[canonical_form(h)]
                    first = h.adj not in below.by_rows and h.adj not in representatives
                    for refines in (first, False):
                        refined.clear()
                        found = harness._class_index(below, h.adj)
                        assert found == want, (free_of, to_graph6(g), v)
                        assert len(refined) == refines


def test_deletion_lookups_agree_with_canonical_form(monkeypatch):
    _assert_lookups_agree_with_canonical_form(monkeypatch, range(2, 8))


@pytest.mark.slow
def test_deletion_lookups_agree_with_canonical_form_at_8(monkeypatch):
    _assert_lookups_agree_with_canonical_form(monkeypatch, [8])


def _assert_restricted_levels_filter_the_full_ones(n_values):
    # The filter is the oracle's pattern test, which tries every bijection
    # of every subset and shares no code with contains_induced.
    for free_of in (("P4", "C4"), ("P4",)):
        patterns = [PATTERNS[name].graph for name in free_of]
        for n in n_values:
            filtered = [
                g
                for g in enumerate_graphs(n)
                if all(brute_contains_induced(g, p) is None for p in patterns)
            ]
            assert list(enumerate_graphs(n, free_of)) == filtered, (free_of, n)


def test_restricted_levels_equal_the_filtered_full_levels():
    _assert_restricted_levels_filter_the_full_ones(range(1, 8))


@pytest.mark.slow
def test_restricted_levels_equal_the_filtered_full_levels_at_8():
    _assert_restricted_levels_filter_the_full_ones([8])


def test_restricted_level_counts_are_pinned():
    # (P4, C4)-free graphs are the trivially perfect graphs, one per rooted
    # tree on n + 1 vertices (OEIS A000081 shifted by one); P4-free graphs
    # are the cographs (A000084).
    for free_of, counts in (
        (("P4", "C4"), [1, 2, 4, 9, 20, 48, 115, 286]),
        (("P4",), [1, 2, 4, 10, 24, 66, 180, 522]),
    ):
        assert [sum(1 for _ in enumerate_graphs(n, free_of)) for n in range(1, 9)] == counts


def test_restricted_pruning_skips_only_children_outside_or_produced_earlier():
    # On the (P4, C4)-free levels a skipped child either holds a pattern,
    # by the oracle's test, or has a deletion that is the class of a
    # member parent before its own, by canonical_form.  A free child's
    # deletions are all free, so each is found one level down.
    free_of = ("C4", "P4")
    patterns = [PATTERNS[name].graph for name in free_of]
    skipped = outside = 0
    for n in range(2, 9):
        below = harness._canonical_level(n - 1, free_of).graphs
        index = {canonical_form(p): j for j, p in enumerate(below)}
        last = {_degree_code(p.adj, (1 << p.n) - 1): j for j, p in enumerate(below)}
        for i, parent in enumerate(below):
            produced_earlier = harness._produced_earlier(parent, i, last)
            for mask in harness._extension_masks(parent):
                rows = [row | (mask >> u & 1) << (n - 1) for u, row in enumerate(parent.adj)]
                g = Graph(n, rows + [mask])
                if not produced_earlier(mask):
                    continue
                skipped += 1
                if any(brute_contains_induced(g, p) is not None for p in patterns):
                    outside += 1
                    continue
                deletions = (induced_subgraph(g, set(range(n)) - {v}) for v in range(n - 1))
                assert min(index[canonical_form(h)] for h in deletions) < i, to_graph6(g)
    assert (skipped, outside) == (5_907, 4_647)


def test_enumeration_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")

    def invariants(n, edges, degrees):
        return n, edges, tuple(sorted(degrees))

    atlas: dict = {}
    for index, h in enumerate(nx.graph_atlas_g()):
        key = invariants(h.number_of_nodes(), h.number_of_edges(), (d for _, d in h.degree()))
        atlas.setdefault(key, []).append((index, h))
    for n, count in zip(range(1, 8), (1, 2, 4, 11, 34, 156, 1044)):
        representatives = list(enumerate_graphs(n))
        matched = set()
        for g in representatives:
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            key = invariants(n, g.edge_count(), (row.bit_count() for row in g.adj))
            hits = [i for i, a in atlas.get(key, []) if nx.is_isomorphic(h, a)]
            assert len(hits) == 1, to_graph6(g)
            matched.add(hits[0])
        assert len(representatives) == len(matched) == count, n


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_all_sweeps_pass_at_small_scale():
    for theorem, n_max in [
        ("eq1_chain", 5),
        ("theorem4", 5),
        ("theorem1_cs", 5),
        ("theorem2_cs", 5),
        ("lemma1", 6),
        ("lemma2", 8),
        ("interpolation_hhp", 5),
        ("interpolation_grundy", 5),
        ("figure3_inclusions", 6),
    ]:
        result = sweep(theorem, n_max)
        assert result.passed, result.violations
        assert result.theorem == theorem and result.n_max == n_max


@pytest.mark.slow
def test_every_sweep_report_at_8_is_frozen():
    # SHA-256 of each theorem's report at n = 8 as sorted-key JSON without
    # elapsed_ms, recorded before the levels were indexed by refinement:
    # any change to a count, a violation or their order shows here.
    frozen = {
        "eq1_chain": "e94f2c509498805ede7282f468651af8ab8023125ed3ca0715c462a79027cac8",
        "figure3_inclusions": "f436b9d059c30e85c596411c3b5af8e370a227fa9927d96201188971d002e450",
        "interpolation_grundy": "7d5a947a99ca4871350882012ee51f6ae45405885cb8cb0b8a355194e398368e",
        "interpolation_hhp": "965f6170aca96f8c0e9c421182807b317b7f351f62abb3e9a2cd788fa20298d5",
        "lemma1": "e2a64664ef6e8c77a143bbad5c5e92c9a487a0d65ff45c8d688efd1ddbbbabaf",
        "lemma2": "a167586a43d1e17df4371608e04c7c6647fc6a293d657e32680ae4bd53134741",
        "theorem1_cs": "36ac174a6ea8e852d1fa8d8c72f2cf73f810b96dcf1b1ac9511b78b03ae4d085",
        "theorem2_cs": "5d53e68c65afbc1d954d219512eab30b073d9443b5424bc92ae9b8d3b81d8b84",
        "theorem4": "9ba44c6ae794d565dc51d6fda61cd3e042a44572e84b542e603ad5beb7337830",
    }
    digests = {}
    for theorem in THEOREM_IDS:
        payload = sweep(theorem, 8).to_dict()
        del payload["elapsed_ms"]
        digests[theorem] = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digests == frozen


def test_sweep_reports_are_deterministic():
    a = sweep("eq1_chain", 4)
    b = sweep("eq1_chain", 4)
    assert (a.theorem, a.n_max, a.checked, a.violations) == (
        b.theorem,
        b.n_max,
        b.checked,
        b.violations,
    )


PAIR_SWEEPS = ("theorem4", "theorem1_cs", "theorem2_cs", "figure3_inclusions")


def test_sweep_with_worker_pool_matches_serial(monkeypatch):
    # Two cpus are reported so the pool runs even on a one-cpu machine.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # At n = 5 the pair sweeps leave most classes unsolved, so the split
    # between this process (deletions) and the workers (solves) is used.
    cases = [(theorem, 4) for theorem in sorted(harness._TARGETS)]
    cases += [(theorem, 5) for theorem in PAIR_SWEEPS]
    for theorem, n_max in cases:
        serial = sweep(theorem, n_max, jobs=1)
        parallel = sweep(theorem, n_max, jobs=2)
        assert serial.checked == parallel.checked, theorem
        assert serial.violations == parallel.violations, theorem
    # No sweep reports a violation, so the rows themselves are compared:
    # each carries its flags and the detail its check returned in a worker.
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        for theorem in sorted(harness._TARGETS):
            pooled = list(harness._table_rows(theorem, 5, pool))
            assert pooled == list(harness._table_rows(theorem, 5)), theorem


def _record_levels(monkeypatch):
    """A fresh level cache that records every (n, free_of) asked of it."""
    cold = lru_cache(maxsize=None)(harness._canonical_level.__wrapped__)
    asked = []

    def recording(n, free_of):
        asked.append((n, free_of))
        return cold(n, free_of)

    monkeypatch.setattr(harness, "_canonical_level", recording)
    return cold, asked


def test_lemma1_runs_in_process_on_its_own_levels(monkeypatch):
    # With two cpus reported, lemma1 still starts no pool for jobs=2, and
    # it builds none of the full levels it skips.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("lemma1 started a process pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cold, asked = _record_levels(monkeypatch)
    serial = sweep("lemma1", 7, jobs=1)
    parallel = sweep("lemma1", 7, jobs=2)
    assert (serial.checked, serial.violations) == (parallel.checked, parallel.violations)
    assert serial.checked == 85
    assert {free_of for _, free_of in asked} == {("C4", "P4")}
    assert cold.cache_info().currsize == 7


def test_each_level_is_cached_once(monkeypatch):
    # The sweep's levels, its labelled deletions' lookups one level down and
    # the public stream all reach one cache entry per level.
    cold, _ = _record_levels(monkeypatch)
    sweep("theorem4", 6)
    list(enumerate_graphs(6))
    list(enumerate_graphs(6, []))
    assert cold.cache_info().currsize == 6
    # A pattern named more than once reads the levels of the name given once.
    for free_of in (["P4"], ["P4", "P4"], ["P4", "P4", "P4"]):
        assert list(enumerate_graphs(6, free_of)) == cold(6, ("P4",)).graphs
        assert cold.cache_info().currsize == 12, free_of
    # Names in any order, repeated or not, key one entry per pattern set,
    # and a one-shot stream of names is read once.
    expected = cold(6, ("C4", "P4")).graphs
    assert cold.cache_info().currsize == 18
    for free_of in (("C4", "P4"), ("P4", "C4"), ["P4", "C4", "P4"], iter(["P4", "C4"])):
        assert list(enumerate_graphs(6, free_of)) == expected
        assert cold.cache_info().currsize == 18, free_of


def test_level_maps_are_built_on_first_lookup(monkeypatch):
    # Building a level or streaming it fills no rows map; only a lookup
    # does, and only on the level it reads.
    cold, _ = _record_levels(monkeypatch)
    sweep("lemma1", 8)
    restricted = [cold(n, ("C4", "P4")) for n in range(1, 9)]
    assert sum(len(level.graphs) for level in restricted) == 485
    assert all(not level.by_rows for level in restricted)
    list(enumerate_graphs(7))
    full = [cold(n, ()) for n in range(1, 8)]
    assert all(not level.by_rows for level in full)
    g = full[5].graphs[-1]
    assert harness._class_index(full[5], g.adj) == len(full[5].graphs) - 1
    assert [len(level.by_rows) for level in full] == [0] * 5 + [156, 0]
    assert all(not level.by_rows for level in restricted)


def test_sweep_argument_validation():
    with pytest.raises(ValueError):
        sweep("not_a_theorem", 4)
    with pytest.raises(CapacityError):
        sweep("theorem4", 9)
    with pytest.raises(CapacityError):
        sweep("lemma2", 14)
    with pytest.raises(CapacityError, match="lemma1 sweep capped at n=8, got 9"):
        sweep("lemma1", 9)
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs"):
            sweep("theorem4", 3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            sweep("lemma1", 3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            sweep("lemma2", 3, jobs=jobs)


@pytest.mark.skipif(harness._worker_count(2, 2) < 2, reason="a worker pool needs two cpus")
def test_pool_in_script_without_main_guard_raises_runtime_error(tmp_path):
    script = tmp_path / "no_guard.py"
    script.write_text("from abperfect import sweep\nsweep('theorem4', 3, jobs=2)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(abperfect.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 1
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: sweep(jobs=2) lost its worker processes")
    assert 'if __name__ == "__main__":' in last
    assert "BrokenProcessPool" not in result.stderr


def test_worker_count_is_clamped(monkeypatch):
    # Without an affinity call, every cpu of the machine counts.
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert harness._worker_count(10_000, 5_000) == 4
    assert harness._worker_count(3, 5_000) == 3
    assert harness._worker_count(8, 2) == 2
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._worker_count(8, 100) == 1


def test_worker_count_reads_the_affinity_set(monkeypatch):
    # Two of the machine's eight cpus are open to this process.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert harness._worker_count(8, 100) == 2
    assert harness._worker_count(1, 100) == 1


def test_violations_capped_at_100(monkeypatch):
    # No real theorem can fail, so the cap is exercised with an injected
    # always-violating target.
    fake = harness._Target(lambda g, values, flags: "synthetic violation")
    monkeypatch.setitem(harness._TARGETS, "always_fail", fake)
    result = harness.sweep("always_fail", 6)
    assert result.checked == 208
    assert len(result.violations) == 100
    assert not result.passed


def test_one_violation_cap_spans_the_table_and_its_witnesses(monkeypatch):
    # Three witness rows of two violations each follow the table's 208
    # classes.  When all of them fail, the table's first 100 fill the cap;
    # when only its first 99 do, the first witness violation is the 100th.
    classes = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    witnesses = [path_graph(k) for k in (2, 3, 4)]

    def witness_rows():
        for g in witnesses:
            yield g, [f"witness {g.n} a", f"witness {g.n} b"]

    for failing in (208, 99):
        first = {g.adj for g in classes[:failing]}
        fake = harness._Target(
            lambda g, values, flags: "table" if g.adj in first else None,
            witnesses=witness_rows,
        )
        monkeypatch.setitem(harness._TARGETS, "always_fail", fake)
        result = sweep("always_fail", 6)
        assert result.checked == 208 + 3
        expected = [(to_graph6(g), "table") for g in classes[:failing]]
        expected += [(to_graph6(witnesses[0]), "witness 2 a")]
        assert result.violations == expected[:100], failing


# ---------------------------------------------------------------------------
# Invariant table
# ---------------------------------------------------------------------------


def test_table_flags_match_subset_scan_oracle(monkeypatch):
    pairs = tuple(combinations(INVARIANT_CHAIN, 2))
    target = harness._Target(lambda g, values, flags: None, pairs)
    monkeypatch.setitem(harness._TARGETS, "all_pairs", target)
    classes = 0
    for g, (flags, _) in harness._table_rows("all_pairs", 6):
        classes += 1
        for a, b in pairs:
            assert flags[a, b] == is_ab_perfect(g, a, b).perfect, (to_graph6(g), a, b)
    assert len(pairs) == 10 and classes == 208


def test_table_flags_match_every_deletion_read_at_7(monkeypatch):
    # The subset scan is too slow for every class at n = 7, so there the
    # flags are compared with the definition evaluated in full: every
    # invariant solved, every G - v read, no early exit.  A deletion the
    # table skips first changes a flag at n = 7.
    pairs = tuple(combinations(INVARIANT_CHAIN, 2))
    target = harness._Target(lambda g, values, flags: None, pairs)
    monkeypatch.setitem(harness._TARGETS, "all_pairs", target)
    reference: dict = {}
    for g, (got, _) in harness._table_rows("all_pairs", 7):
        values = {name: solve(g) for name, solve in solvers.INVARIANT_SOLVERS.items()}
        below = [
            reference[canonical_form(induced_subgraph(g, set(range(g.n)) - {v}))]
            for v in range(g.n)
            if g.n > 1
        ]
        flags = {
            (a, b): values[a] == values[b] and all(h[a, b] for h in below) for a, b in pairs
        }
        reference[canonical_form(g)] = flags
        assert got == flags, to_graph6(g)
    assert len(reference) == 1252


def test_pair_sweeps_solve_only_where_every_deletion_is_perfect(monkeypatch):
    # Each invariant must be solved once on exactly the classes where some
    # pair naming it has every G - v perfect by the subset scan: fewer is a
    # skip the definition does not allow, more is a solve whose flag was
    # already False.
    verdicts: dict = {}

    def perfect(h, pair):
        key = canonical_form(h), pair
        if key not in verdicts:
            verdicts[key] = is_ab_perfect(h, *pair).perfect
        return verdicts[key]

    classes = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    deletions = [
        [induced_subgraph(g, set(range(g.n)) - {v}) for v in range(g.n)] if g.n > 1 else []
        for g in classes
    ]
    expected: dict = {}
    for theorem in ("theorem4", "figure3_inclusions"):
        for g, below in zip(classes, deletions):
            for pair in harness._TARGETS[theorem].pairs:
                if all(perfect(h, pair) for h in below):
                    for name in pair:
                        expected.setdefault((theorem, name), set()).add(canonical_form(g))

    solved: dict = {}
    for name, solver in list(solvers.INVARIANT_SOLVERS.items()):

        def counted(g, name=name, solver=solver):
            solved.setdefault(name, []).append(canonical_form(g))
            return solver(g)

        monkeypatch.setitem(solvers.INVARIANT_SOLVERS, name, counted)
    for theorem in ("theorem4", "figure3_inclusions"):
        solved.clear()
        for _ in harness._table_rows(theorem, 6):
            pass
        for name in INVARIANT_CHAIN:
            want = sorted(expected.get((theorem, name), ()))
            assert sorted(solved.get(name, [])) == want, (theorem, name)
    # 129 of the 208 classes have a deletion imperfect for both psi pairs.
    assert len(expected["theorem4", "psi"]) == 79


def test_pair_sweep_labels_each_deletion_at_most_once(monkeypatch):
    # Each level's map holds its representatives' rows from the start, the
    # enumeration parent's among them, and gains any other deletion the
    # first time a sweep in the process asks for it.  The levels are built
    # cold first, so every refinement that harness makes here is a
    # deletion's lookup, and a mapping search runs only where the lookup's
    # bucket has two members.
    cold, _ = _record_levels(monkeypatch)
    cold(7, ())
    representatives = {h.adj for n in range(1, 7) for h in cold(n, ()).graphs}
    refined, searched = _count_lookups(monkeypatch)
    counts = []
    for theorem in ("theorem4", "figure3_inclusions", "theorem1_cs", "theorem2_cs"):
        before = (len(refined), len(searched))
        assert sweep(theorem, 7).passed
        counts.append((len(refined) - before[0], len(searched) - before[1]))
    assert counts == [(182, 4), (1_166, 45), (0, 0), (0, 0)]
    looked_up = [g.adj for g in refined]
    assert not representatives.intersection(looked_up)
    assert len(set(looked_up)) == len(looked_up)
    assert len(cold(6, ()).by_rows) == 1_338


def test_interpolation_gap_matches_brute_force_counts(monkeypatch):
    # The detail from chi to the largest count, high, against brute force:
    # set partitions filtered by the coloring validators, and first-fit
    # along every ordering.  Besides the true chi, chi is forced to 1,
    # below which counts without a coloring of the mode exist, so a gap
    # is really reported.
    for theorem, high, label, counts in (
        ("interpolation_grundy", "gamma", "Grundy", brute_grundy_counts),
        ("interpolation_hhp", "alpha", "proper complete", lambda g: brute_complete_counts(g)[1]),
    ):
        check = harness._TARGETS[theorem].check
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                have = counts(g)
                top = max(have)
                for chi in (chromatic_number(g), 1):
                    gap = next((k for k in range(chi, top + 1) if k not in have), None)
                    want = None
                    if gap is not None:
                        want = f"no {label} coloring with {gap} colors (chi={chi}, {high}={top})"
                    assert check(g, {"chi": chi}, {}) == want, (theorem, to_graph6(g))
    # The HHP check builds one search plan per class for all its counts,
    # and reads alpha from it rather than solving it.
    plans, alphas = [], []
    real = solvers._plan

    def counted(g):
        plans.append(canonical_form(g))
        return real(g)

    def achromatic(g, *args, **kwargs):
        alphas.append(g)
        return solvers.achromatic_number(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "_plan", counted)
    monkeypatch.setitem(solvers.INVARIANT_SOLVERS, "alpha", achromatic)
    report = sweep("interpolation_hhp", 6)
    assert report.checked == 208 and report.passed
    assert len(plans) == len(set(plans)) == 208
    assert alphas == []


def test_interpolation_grundy_builds_one_reachable_set_per_class(monkeypatch):
    # gamma and every count of the gap are read from one set per class;
    # solving gamma by grundy_number as well would build a second one.
    built = []
    real = solvers._grundy_reachable

    def counted(g):
        built.append(canonical_form(g))
        return real(g)

    monkeypatch.setattr(solvers, "_grundy_reachable", counted)
    report = sweep("interpolation_grundy", 6)
    assert report.checked == 208 and report.passed
    assert len(built) == len(set(built)) == 208


def _off_by_one(monkeypatch, invariant, victim, delta):
    """Make the table's solver for ``invariant`` wrong by ``delta`` on victim's
    class, and the subset scan's step for it too, by solving through it."""
    real = solvers.INVARIANT_SOLVERS[invariant]
    key = canonical_form(victim)

    def broken(g, *args, **kwargs):
        value = real(g, *args, **kwargs)
        return value + delta if g.n == victim.n and canonical_form(g) == key else value

    monkeypatch.setitem(solvers.INVARIANT_SOLVERS, invariant, broken)
    monkeypatch.setitem(solvers.INVARIANT_STEPS, invariant, lambda h, x: broken(h))


def test_table_sweeps_do_not_assume_the_theorem(monkeypatch):
    # psi(P4) = 3 read as 2 makes P4 look omega-psi-perfect although it is
    # not quartet-free and not omega-alpha-perfect.
    _off_by_one(monkeypatch, "psi", path_graph(4), -1)
    theorem4 = sweep("theorem4", 5)
    figure3 = sweep("figure3_inclusions", 5)
    assert any(
        detail == "omega_psi=True chi_psi=True quartet_free=False structure=False"
        for _, detail in theorem4.violations
    )
    assert any(
        detail == "inclusion omega_psi -> omega_alpha violated"
        for _, detail in figure3.violations
    )
    # C5 contains P4, now imperfect for (alpha, psi), so the C5 witness fails.
    c5_witness = (to_graph6(cycle_graph(5)), "witness C5 not alpha-psi-perfect")
    assert figure3.violations[-1] == c5_witness


def test_cs_sweeps_and_witnesses_report_an_off_by_one(monkeypatch):
    # gamma(P4) = 3 read as 2 makes P4 omega-gamma-perfect although it is
    # not P4-free, and makes the P4 witness perfect for the pair it must
    # fail; alpha(P4) read as 2 breaks theorem2_cs the same way.
    key = canonical_form(path_graph(4))
    level = harness._canonical_level(4, ()).graphs
    p4 = next(to_graph6(g) for g in level if canonical_form(g) == key)
    with monkeypatch.context() as patch:
        _off_by_one(patch, "gamma", path_graph(4), -1)
        assert sweep("theorem1_cs", 4).violations == [
            (p4, "omega_gamma=True chi_gamma=True p4_free=False")
        ]
        assert sweep("figure3_inclusions", 4).violations == [
            (to_graph6(path_graph(4)), "witness P4 unexpectedly omega-gamma-perfect")
        ]
    _off_by_one(monkeypatch, "alpha", path_graph(4), -1)
    assert sweep("theorem2_cs", 4).violations == [
        (p4, "omega_alpha=True chi_alpha=True triple_free=False")
    ]


def test_eq1_chain_reports_a_broken_chain(monkeypatch):
    _off_by_one(monkeypatch, "gamma", complete_graph(3), -1)
    result = sweep("eq1_chain", 4)
    assert result.checked == 18
    assert result.violations == [
        (to_graph6(complete_graph(3)), "chain violated: omega=3 chi=3 gamma=2 alpha=3 psi=3")
    ]


def test_lemma_sweeps_report_a_broken_helper(monkeypatch):
    # lemma1 reads universal vertices from the name harness imported, and
    # lemma2 psi from the invariant table; breaking each must surface as its detail.
    monkeypatch.setattr(harness, "universal_vertices", lambda g: [])
    lemma1 = sweep("lemma1", 3)
    assert lemma1.checked == 4
    assert [detail for _, detail in lemma1.violations] == [
        "connected (C4,P4)-free graph without a universal vertex"
    ] * 4
    psi = solvers.INVARIANT_SOLVERS["psi"]
    monkeypatch.setitem(solvers.INVARIANT_SOLVERS, "psi", lambda g: psi(g) + 1)
    lemma2 = sweep("lemma2", 2)
    assert lemma2.checked == 1
    assert lemma2.violations == [
        (to_graph6(empty_graph(2)), "m1=1 m2=1 t=0: omega=1 psi=2 expected 1")
    ]


def test_lemma1_filters_to_hypothesis_class():
    # Counts of connected graphs with no induced 4-cycle/4-path follow the
    # rooted-tree numbers 1, 1, 2, 4, 9, 20, 48.
    assert sweep("lemma1", 6).checked == 1 + 1 + 2 + 4 + 9 + 20
    assert sweep("lemma1", 7).checked == 1 + 1 + 2 + 4 + 9 + 20 + 48


def test_lemma1_reports_every_class_of_its_hypothesis_in_full_order(monkeypatch):
    # With no universal vertex anywhere, every class lemma1 checks is a
    # violation, so its report lists the classes it walks: they must be
    # the full levels' connected classes free of P4 and C4 by the oracle's
    # pattern test, in their order.
    monkeypatch.setattr(harness, "universal_vertices", lambda g: [])
    patterns = [PATTERNS["P4"].graph, PATTERNS["C4"].graph]
    expected = [
        to_graph6(g)
        for n in range(1, 8)
        for g in enumerate_graphs(n)
        if is_connected(g) and all(brute_contains_induced(g, p) is None for p in patterns)
    ]
    report = sweep("lemma1", 7)
    assert report.checked == len(expected) == 85
    assert [g6 for g6, _ in report.violations] == expected


def test_sweep_report_formats():
    result = sweep("eq1_chain", 3)
    payload = result.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["theorem"] == "eq1_chain"
    assert payload["checked"] == 7
    assert payload["violations"] == []
    assert "elapsed_ms" in payload


# ---------------------------------------------------------------------------
# Cycle table
# ---------------------------------------------------------------------------


def test_cycle_table_small():
    rows = cycle_alpha_psi(8)
    assert [row["n"] for row in rows] == [3, 4, 5, 6, 7, 8]
    for row in rows:
        assert row["equal"] == row["predicted_equal"]
        assert row["predicted_equal"] == (row["n"] != 4)


def test_cycle_table_caps():
    with pytest.raises(CapacityError):
        cycle_alpha_psi(13)
    with pytest.raises(CapacityError):
        cycle_alpha_psi(2)
