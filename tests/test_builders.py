"""The builders that work in neighbor runs against their edge-by-edge
references in conftest: equal Graphs, and byte-equal edge-list text."""

import random
from itertools import combinations

import pytest

from conftest import (
    complete_graph,
    edgewise_complement_in_host,
    edgewise_csplit_graph,
    edgewise_graph_from_cent_layout,
    edgewise_serialize_edge_list,
)
from kncomp.graph import Graph, Problem, complement_in_host, serialize_edge_list
from kncomp.oracle import (
    all_graphs,
    csplit_graph,
    graph_from_cent_layout,
    random_cent_layout,
    star_graph,
)


def assert_same(g: Graph, reference: Graph):
    assert g == reference
    assert serialize_edge_list(g) == edgewise_serialize_edge_list(reference)


def test_layout_graphs_match_the_edgewise_expansion():
    rng = random.Random(19)
    for _ in range(500):
        layout = random_cent_layout(rng.randint(1, 14), rng.randint(1, 5), rng)
        assert_same(graph_from_cent_layout(*layout), edgewise_graph_from_cent_layout(*layout))


def layout_with_leaf_fans(rng: random.Random):
    """A random layout, each node given a fan of 0 to 6 one-member leaves,
    its node ids then shuffled so that the fans of different parents, at
    several depths, interleave in id order."""
    parents, mults = random_cent_layout(rng.randint(1, 14), rng.randint(1, 4), rng)
    for node in range(1, len(parents)):
        for _ in range(rng.randint(0, 6)):
            parents.append(node)
            mults.append(1)
    rename = [0, *rng.sample(range(1, len(parents)), len(parents) - 1)]
    new_parents, new_mults = [0] * len(parents), [0] * len(parents)
    for old in range(1, len(parents)):
        new_parents[rename[old]] = rename[parents[old]]
        new_mults[rename[old]] = mults[old]
    return new_parents, new_mults


def test_one_member_leaf_fans_match_the_edgewise_expansion():
    rng = random.Random(23)
    for _ in range(300):
        layout = layout_with_leaf_fans(rng)
        assert_same(graph_from_cent_layout(*layout), edgewise_graph_from_cent_layout(*layout))
    # Fans under a chain of one-member nodes, three levels deep, and under
    # the root of several members, with one-member roots beside them.
    parents = [0, 0, 1, 2, 3] + [1] * 5 + [2] * 4 + [3] * 6 + [4] * 3 + [0] * 2
    mults = [0, 3, 1, 1, 1] + [1] * 20
    assert_same(graph_from_cent_layout(parents, mults), edgewise_graph_from_cent_layout(parents, mults))


@pytest.mark.parametrize("size_k", range(1, 9))
def test_complete_split_graphs_match_the_edgewise_build(size_k):
    for size_s in range(9):
        assert_same(csplit_graph(size_k, size_s), edgewise_csplit_graph(size_k, size_s))


@pytest.mark.parametrize("p", range(1, 6))
def test_complements_match_the_edgewise_filter(p):
    for h in all_graphs(p):
        for n in (p, p + 1, p + 3):
            problem = Problem(n, h)
            assert_same(complement_in_host(problem), edgewise_complement_in_host(problem))


def qt_dense_sized_layout():
    """A root of 60 members over 40 nodes of 10, each over two nodes of 8:
    1,100 vertices and 74,610 edges, the size of a qt-dense input."""
    parents = [0, 0] + [1] * 40 + [i for i in range(2, 42) for _ in range(2)]
    mults = [0, 60] + [10] * 40 + [8] * 80
    return parents, mults


@pytest.mark.parametrize(
    "g",
    [
        Graph(0),
        Graph(1),
        Graph(7),
        Graph(9, [(3, 7)]),
        star_graph(2),
        star_graph(12),
        Graph(12, [(v, 12) for v in range(1, 12)]),
        Graph(30, [(u + 4, v + 4) for u, v in combinations(range(1, 21), 2)]),
        *(complete_graph(k) for k in range(1, 13)),
        graph_from_cent_layout(*qt_dense_sized_layout()),
    ],
    ids=repr,
)
def test_edge_lists_match_the_edgewise_text(g):
    assert serialize_edge_list(g) == edgewise_serialize_edge_list(g)
