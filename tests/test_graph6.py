"""graph6 codec: hand-checked values, reference decoder, round trips."""

import random

import pytest

from abperfect import (
    CapacityError,
    Graph6Error,
    complete_graph,
    enumerate_graphs,
    from_edge_list,
    parse_graph6,
    parse_graph6_lines,
    to_graph6,
)
from oracles import (
    isomorphism_class_count,
    labeled_graphs,
    random_labeled_graphs,
    ref_decode_graph6,
)


def test_known_line_decodes_to_star():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_single_vertex_encodes_as_at_sign():
    # n=1 is the header byte 1+63 = '@' and an empty bit field.
    assert to_graph6(complete_graph(1)) == "@"


def test_header_prefix_stripped():
    line = ">>graph6<<D?{"
    assert parse_graph6(line) == parse_graph6("D?{")


def test_parse_rejections():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # n = 0
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated bit field
    with pytest.raises(Graph6Error):
        parse_graph6("D?{{")  # extra bytes
    with pytest.raises(Graph6Error):
        parse_graph6("!abc")  # header byte below the offset
    with pytest.raises(CapacityError):
        parse_graph6("~??")  # multi-byte n >= 63
    with pytest.raises(CapacityError):
        parse_graph6(chr(40 + 63))  # n = 40 beyond capacity


def test_roundtrip_all_classes_to_7():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert parse_graph6(to_graph6(g)) == g


def test_codec_agrees_with_networkx_to_7():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            line = to_graph6(g)
            assert nx.to_graph6_bytes(h, header=False) == f"{line}\n".encode()
            back = nx.from_graph6_bytes(line.encode())
            assert list(back) == list(range(n))
            assert parse_graph6(line) == from_edge_list(n, back.edges())


def test_roundtrip_all_labeled_to_4():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            assert parse_graph6(to_graph6(g)) == g


def test_roundtrip_random_labeled_graphs_to_32():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @hypothesis.given(random_labeled_graphs(st, 1, 32))
    def check(g):
        line = to_graph6(g)
        assert parse_graph6(line) == g
        assert ref_decode_graph6(line) == (g.n, set(g.edges()))

    check()


def test_corpus_against_reference_decoder():
    # <=100 lines: every class on up to 5 vertices plus seeded 6/7-vertex graphs.
    corpus = []
    for n in range(1, 6):
        corpus.extend(to_graph6(g) for g in enumerate_graphs(n))
    rng = random.Random(20250501)
    for n in (6, 7):
        for _ in range(24):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            corpus.append(to_graph6(from_edge_list(n, edges)))
    assert len(corpus) <= 100
    for line in corpus:
        n, edges = ref_decode_graph6(line)
        g = parse_graph6(line)
        assert g.n == n
        assert set(g.edges()) == edges


def test_line_stream_reports_line_numbers():
    lines = ["Ch", "", "not graph6 at all", "Ch"]
    out = []
    with pytest.raises(Graph6Error, match="line 3"):
        for g in parse_graph6_lines(lines):
            out.append(g)
    assert len(out) == 1  # the first line parsed before the failure


def test_lines_from_an_ascii_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Ch\nD?{\n@\n")
    with open(path, encoding="ascii") as handle:
        assert [g.n for g in parse_graph6_lines(handle)] == [4, 5, 1]


def test_lines_name_a_bad_first_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("*nope\nCh\n")
    with open(path, encoding="ascii") as handle:
        with pytest.raises(Graph6Error, match="line 1"):
            list(parse_graph6_lines(handle))


def test_lines_keep_order_and_stream():
    read = []

    def lines():
        for line in ["@", "A_", "Bw"]:
            read.append(line)
            yield line

    stream = parse_graph6_lines(lines())
    assert next(stream).n == 1 and read == ["@"]
    assert [g.n for g in stream] == [2, 3]


@pytest.mark.slow
def test_roundtrip_and_class_count_at_8():
    count = 0
    for g in enumerate_graphs(8):
        count += 1
        assert parse_graph6(to_graph6(g)) == g
    assert count == isomorphism_class_count(8)
