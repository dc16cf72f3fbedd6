"""The independent checker against kncomp's oracles on small instances.

    PYTHONPATH=src python3 -m pytest perfbench/test_check.py -q
"""

import random
from itertools import combinations

import pytest

import check
from kncomp.graph import Graph, Problem, complement_in_host, serialize_edge_list
from kncomp.oracle import (
    all_graphs,
    all_labeled_trees,
    enumerate_count,
    graph_from_cent_layout,
    kirchhoff_count,
    random_cent_layout,
    random_graph,
    random_labeled_tree,
)


def oracle_tau(g: Graph, n: int, oracle=kirchhoff_count) -> int:
    return oracle(complement_in_host(Problem(n, g)))


def tree_tau(g: Graph, n: int) -> int:
    det = check.tree_determinant(g.vertex_count, g.edges(), n)
    return check.tau_from_determinant(n, g.vertex_count, det)


def layout_tau(parents, mults, n: int) -> int:
    det = check.layout_determinant(parents, mults, n)
    return check.tau_from_determinant(n, sum(mults), det)


def dense_tau(g: Graph, n: int) -> int:
    det = check.dense_determinant(g.vertex_count, g.edges(), n)
    return check.tau_from_determinant(n, g.vertex_count, det)


# Exhaustive enumeration stays quick up to this many host vertices.
ENUMERATED_HOST = 7


@pytest.mark.parametrize("k", range(1, 6))
def test_tree_recursion_matches_enumeration(k):
    for tree in all_labeled_trees(k):
        for n in range(k, ENUMERATED_HOST + 1):
            assert tree_tau(tree, n) == oracle_tau(tree, n, enumerate_count)


def test_tree_recursion_matches_kirchhoff_on_larger_trees():
    for seed in range(20):
        k = 10 + seed
        tree = random_labeled_tree(k, seed)
        for n in (k, k + 1, k + 7):
            assert tree_tau(tree, n) == oracle_tau(tree, n)


def test_layout_spectrum_matches_oracles():
    rng = random.Random(7)
    for _ in range(200):
        parents, mults = random_cent_layout(4, 3, rng)
        g = graph_from_cent_layout(parents, mults)
        p = g.vertex_count
        for n in range(p, p + 3):
            oracle = enumerate_count if n <= ENUMERATED_HOST else kirchhoff_count
            assert layout_tau(parents, mults, n) == oracle_tau(g, n, oracle)


def test_layout_spectrum_covers_single_child_and_complete_split_layouts():
    # A root with one child is a clique split over two nodes; K=3, S=4 is a
    # complete split graph in the form the benchmark writes it.
    for parents, mults in (
        ([0, 0, 1], [0, 2, 3]),
        ([0, 0] + [1] * 4, [0, 3] + [1] * 4),
        ([0, 0, 1, 1, 2, 2], [0, 2, 1, 3, 2, 1]),
    ):
        g = graph_from_cent_layout(parents, mults)
        for n in (g.vertex_count + 1, g.vertex_count + 4):
            assert layout_tau(parents, mults, n) == oracle_tau(g, n)


def test_dense_elimination_matches_enumeration():
    for g in all_graphs(4):
        for n in range(4, ENUMERATED_HOST + 1):
            assert dense_tau(g, n) == oracle_tau(g, n, enumerate_count)


def test_dense_elimination_matches_kirchhoff_on_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.randint(5, 12)
        g = random_graph(p, rng, rng.uniform(0.1, 0.6))
        for n in (p, p + 2, p + 9):
            assert dense_tau(g, n) == oracle_tau(g, n)


def test_dense_elimination_refuses_large_inputs():
    with pytest.raises(ValueError):
        check.dense_determinant(check.DENSE_LIMIT + 1, [], 30)


def test_negative_power_needs_exact_division():
    assert check.tau_from_determinant(4, 4, 48) == 3
    with pytest.raises(ArithmeticError):
        check.tau_from_determinant(4, 4, 49)


def write(tmp_path, g: Graph):
    path = tmp_path / "h.el"
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "cls, g, layout",
    [
        ("tree", random_labeled_tree(9, 3), None),
        ("fallback", Graph(6, [(1, 2), (3, 4), (5, 6)]), None),
        ("qt", graph_from_cent_layout([0, 0, 1, 1, 2, 2], [0, 2, 1, 3, 2, 1]), ([0, 0, 1, 1, 2, 2], [0, 2, 1, 3, 2, 1])),
        ("csplit", graph_from_cent_layout([0, 0, 1, 1], [0, 2, 1, 1]), ([0, 0, 1, 1], [0, 2, 1, 1])),
    ],
)
def test_check_output_accepts_the_count_and_flags_tau_plus_one(tmp_path, cls, g, layout):
    n = g.vertex_count + 3
    entry = {"n": n, "class": cls, "layout": layout}
    expected = check.expected_tau(entry, write(tmp_path, g))
    assert expected == oracle_tau(g, n)
    method = check.EXPECTED_METHOD[cls]
    assert check.check_output(entry, expected, str(expected), method) is None
    assert check.check_output(entry, expected, str(expected + 1), method)
    wrong = "kirchhoff" if method != "kirchhoff" else "tree"
    assert check.check_output(entry, expected, str(expected), wrong)


def test_read_edge_list_rejects_a_short_file(tmp_path):
    path = tmp_path / "short.el"
    path.write_text("3 2\n1 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        check.read_edge_list(path)


def test_tree_recursion_rejects_non_trees():
    with pytest.raises(ValueError):
        check.tree_determinant(4, list(combinations(range(1, 4), 2)), 5)
