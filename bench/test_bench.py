"""Fast self-checks of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import abperfect as ab  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, read_spans, subset_rank  # noqa: E402


def test_same_seed_same_corpus_and_other_seed_same_graphs():
    for workload in workloads.WORKLOADS:
        assert workloads.queries(workload, 7) == workloads.queries(workload, 7)
    first = workloads.queries(workloads.CHECK_CORPUS, 7)
    other = workloads.queries(workloads.CHECK_CORPUS, 8)
    assert first != other
    assert sorted(first, key=repr) == sorted(other, key=repr)


def test_corpora_leave_ten_queries_beyond_p95():
    for workload in (workloads.SOLVE_CORPUS, workloads.CHECK_CORPUS):
        assert len(workloads.queries(workload, 1)) >= 200


def test_subset_rank_by_hand():
    # Size-1 subsets of range(4) come first (4), then (0,1), (0,2), (0,3), (1,2).
    assert subset_rank(4, [1, 2]) == 8
    assert subset_rank(4, [0]) == 1
    assert subset_rank(4, [3]) == 4
    assert subset_rank(4, [0, 1, 2, 3]) == 15
    # P4 is not omega-psi-perfect and its only counterexample is itself.
    verdict = ab.is_ab_perfect(ab.path_graph(4), "omega", "psi")
    assert subset_rank(4, verdict.counterexample[0]) == 2**4 - 1


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.WORKLOADS]:
        assert run.METRIC_NAME.fullmatch(name), name


def test_graph6_writer_matches_library_reader():
    for g6 in workloads.solve_corpus() + workloads.check_corpus():
        g = ab.parse_graph6(g6)
        assert ab.to_graph6(g) == g6
    assert ab.parse_graph6(workloads.named_graphs()["fig2"]) == ab.k44_c7_graph()


def test_shapes_are_recognized():
    for n in workloads.CHECK_ORDERS:
        for g6 in workloads._stratum(f"shape:{n}", workloads.CHECK_SHAPES_PER_ORDER,
                                     lambda r, n=n: workloads.shape(r, n)):
            assert ab.recognize_structure(ab.parse_graph6(g6)).accepted


def test_every_query_has_a_frozen_answer():
    expected = checks.load_expected()
    for workload in (workloads.SOLVE_CORPUS, workloads.CHECK_CORPUS):
        for query in workloads.queries(workload, 1):
            assert checks.query_key(query.args) in expected[query.graph6]


def test_quantile():
    assert run.quantile([7.5], 0.95) == 7.5
    assert abs(run.quantile(range(1, 100), 0.5) - 50) < 1e-6
    low, high = run.quantile(range(1, 101), 0.05), run.quantile(range(1, 101), 0.95)
    assert abs(low + high - 101) < 1e-6 and 94 < high < 97


def test_cycle_rule():
    assert [n for n in range(3, 13) if checks.alpha_below_psi_on_cycle(n)] == [4, 11]


def test_self_time_subtracts_children(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    summary = tracer.summary()["spans"]
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    tracer.write(tmp_path / "spans.bin")
    names, spans = read_spans(tmp_path / "spans.bin")
    assert names == ["inner", "outer"] and len(spans) == 3
    outer_span = spans[0]
    children = [s for s in spans if s[1] == 0]
    child_time = sum(end - start for _, _, start, end in children)
    assert len(children) == 2
    assert abs(summary["outer"]["self_s"] - (outer_span[3] - outer_span[2] - child_time)) < 1e-12


def test_traced_generator_counts_items():
    tracer = Tracer()
    numbers = tracer.wrap("gen", lambda: (yield from range(3)))
    assert list(numbers()) == [0, 1, 2]
    assert tracer.counters["gen.graphs"] == 3
    # One span per resumption, including the one that finds the end.
    assert tracer.summary()["spans"]["gen"]["calls"] == 4
