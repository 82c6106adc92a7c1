"""Coloring representation and the proper/complete/Grundy validators."""

from itertools import permutations

import pytest

from abperfect import (
    Coloring,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    is_complete_coloring,
    is_grundy,
    is_proper,
    path_graph,
)
from oracles import all_surjective_colorings


def test_construction_rejects_non_surjective():
    with pytest.raises(ValueError):
        Coloring((1, 3))  # color 2 unused
    with pytest.raises(ValueError):
        Coloring((0, 1))  # colors are 1-based
    with pytest.raises(ValueError):
        Coloring(())


def test_serialization_roundtrip():
    c = Coloring((1, 2, 3, 1))
    assert c.serialize() == "1 2 3 1"
    assert Coloring(tuple(int(tok) for tok in c.serialize().split())) == c
    assert c.k == 3 and c.n == 4


def test_proper_examples():
    p4 = path_graph(4)
    assert is_proper(p4, Coloring((1, 2, 1, 2)))
    assert not is_proper(complete_graph(2), Coloring((1, 1)))
    # three colors along the path still proper
    assert is_proper(p4, Coloring((1, 2, 3, 1)))


def test_complete_examples():
    p4 = path_graph(4)
    assert is_complete_coloring(p4, Coloring((1, 2, 3, 1)))
    assert is_complete_coloring(complete_graph(3), Coloring((1, 2, 3)))
    assert not is_complete_coloring(empty_graph(2), Coloring((1, 2)))


def test_grundy_examples():
    p4 = path_graph(4)
    # vertex colored 3 (the middle one) sees colors 1 and 2
    assert is_grundy(p4, Coloring((1, 2, 3, 1)))
    # a color-2 vertex with no color-1 neighbor fails
    assert not is_grundy(path_graph(3), Coloring((1, 1, 2)))
    assert is_grundy(complete_graph(1), Coloring((1,)))


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        is_proper(path_graph(3), Coloring((1, 2)))


def test_grundy_implies_proper_and_complete_everywhere():
    for n in range(1, 6):
        colorings = list(all_surjective_colorings(n))
        for g in enumerate_graphs(n):
            for c in colorings:
                if is_grundy(g, c):
                    assert is_proper(g, c)
                    assert is_complete_coloring(g, c)


def test_proper_and_complete_are_color_permutation_invariant():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            for c in all_surjective_colorings(n):
                base = (is_proper(g, c), is_complete_coloring(g, c))
                for perm in permutations(range(1, c.k + 1)):
                    mapped = Coloring(tuple(perm[x - 1] for x in c.colors))
                    assert (is_proper(g, mapped), is_complete_coloring(g, mapped)) == base


def test_grundy_is_not_color_permutation_invariant():
    p4 = path_graph(4)
    witness = Coloring((1, 2, 3, 1))
    assert is_grundy(p4, witness)
    swapped = Coloring((3, 2, 1, 3))  # exchange colors 1 and 3
    assert not is_grundy(p4, swapped)
