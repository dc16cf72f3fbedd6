import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bareiss_determinant, prufer_encode, qt_count
from kncomp.graph import Graph, Problem, complement_in_host, is_tree
from kncomp.oracle import (
    all_labeled_trees,
    caterpillar_graph,
    complete_graph,
    cst_matrix,
    cst_matrix_count,
    cycle_graph,
    enumerate_count,
    kirchhoff_count,
    path_graph,
    prufer_decode,
    random_graph,
    random_labeled_tree,
    random_qt_graph,
    rational_determinant,
)
from kncomp.qt_engine import recognize_and_build_cent_tree
from kncomp.tree_engine import count_kn_minus_tree


def laplacian_minor(g: Graph):
    """The full Laplacian of g less its last row and column."""
    n = g.vertex_count
    return [
        [g.degree(v) if u == v else -int(u in g.neighbors(v)) for u in range(1, n)]
        for v in range(1, n)
    ]


def test_kirchhoff_small_cases():
    assert kirchhoff_count(complete_graph(4)) == 16
    assert kirchhoff_count(cycle_graph(4)) == 4
    assert kirchhoff_count(Graph(1)) == 1
    assert kirchhoff_count(Graph(3, [(1, 2)])) == 0  # disconnected
    # Zero pivots at the first step (vertex 1 isolated) and at a later step,
    # each also with steps left after it, where going on would divide by
    # the zero pivot; and the 1x1 zero minor.
    assert kirchhoff_count(Graph(3, [(2, 3)])) == 0
    assert kirchhoff_count(Graph(4, [(2, 3), (3, 4)])) == 0
    assert kirchhoff_count(Graph(4, [(1, 2), (3, 4)])) == 0
    assert kirchhoff_count(Graph(5, [(1, 2), (3, 4), (4, 5)])) == 0
    assert kirchhoff_count(Graph(2)) == 0
    k4_minus_p3 = Graph(4, [(1, 3), (1, 4), (2, 4), (3, 4)])
    assert kirchhoff_count(k4_minus_p3) == 3
    assert enumerate_count(k4_minus_p3) == 3


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 25), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_kirchhoff_matches_bareiss_of_the_full_minor(k, edge_prob, seed):
    g = random_graph(k, random.Random(seed), edge_prob)
    assert kirchhoff_count(g) == bareiss_determinant(laplacian_minor(g))


def test_kirchhoff_matches_the_engines_on_large_entries():
    # n = 150: the eliminated entries grow to about 300 digits.
    tree = Problem(150, random_labeled_tree(20, 5))
    assert kirchhoff_count(complement_in_host(tree)) == count_kn_minus_tree(tree)
    qt = Problem(150, random_qt_graph(8, 4, 11))
    assert kirchhoff_count(complement_in_host(qt)) == qt_count(qt)


def test_cst_matrix_shape_and_entries():
    problem = Problem(4, Graph(3, [(1, 2), (2, 3)]))
    rows = cst_matrix(problem)
    b = Fraction(1, 4)
    assert [len(row) for row in rows] == [3, 3, 3]  # H's vertices only
    assert rows[0][0] == 1 - b and rows[1][1] == 1 - 2 * b and rows[2][2] == 1 - b
    assert rows[0][1] == b and rows[1][2] == b
    assert rows[0][2] == 0 and rows[2][0] == 0


def test_cst_matrix_is_sized_by_the_subtrahend_not_the_host():
    # A host vertex outside H adds only an identity row and column, so the
    # system on C_20 in K_2000 is 20 x 20, not 2000 x 2000.
    rows = cst_matrix(Problem(2000, cycle_graph(20)))
    assert [len(row) for row in rows] == [20] * 20
    assert cst_matrix(Problem(5, Graph(0))) == []


def test_cst_count_examples():
    assert cst_matrix_count(Problem(6, Graph(0))) == 1296  # identity system
    assert cst_matrix_count(Problem(4, Graph(3, [(1, 2), (2, 3)]))) == 3
    assert cst_matrix_count(Problem(2, Graph(2, [(1, 2)]))) == 0
    assert cst_matrix_count(Problem(1, Graph(1))) == 1


def test_enumerate_small_cases():
    assert enumerate_count(complete_graph(3)) == 3
    assert enumerate_count(path_graph(4)) == 1
    assert enumerate_count(complete_graph(5)) == 125
    assert enumerate_count(Graph(1)) == 1
    assert enumerate_count(Graph(4, [(1, 2), (3, 4)])) == 0


def test_enumerate_guards_large_graphs():
    with pytest.raises(ValueError, match="guard"):
        enumerate_count(complete_graph(9))


def test_three_oracles_agree_on_random_problems():
    rng = random.Random(64)
    for _ in range(60):
        k = rng.randint(1, 5)
        h = random_graph(k, rng)
        n = rng.randint(k, 7)
        problem = Problem(n, h)
        comp = complement_in_host(problem)
        count = kirchhoff_count(comp)
        assert cst_matrix_count(problem) == count
        assert enumerate_count(comp) == count


def test_bareiss_matches_rational_elimination():
    rng = random.Random(17)
    for _ in range(80):
        size = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        expected = rational_determinant([[Fraction(x) for x in row] for row in rows])
        assert bareiss_determinant(rows) == expected


def test_rational_determinant_is_exact_on_integer_rows():
    # True division of these ints gave -7224.000000000003.
    rows = [
        [0, 0, -1, -9, 1, 2],
        [1, 0, -9, 0, 3, -1],
        [2, -1, 2, 1, -2, -1],
        [0, 2, 0, 0, 1, -1],
        [7, 1, 2, 2, 2, -1],
        [-2, -1, 1, 8, 0, 5],
    ]
    det = rational_determinant(rows)
    assert type(det) is Fraction and det == -7224
    assert bareiss_determinant(rows) == -7224
    # Fraction rows, as cst_matrix_count passes them, give the same value.
    fractions = [[Fraction(x) for x in row] for row in rows]
    assert rational_determinant(fractions) == det


def test_bareiss_handles_zero_pivots():
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0
    assert bareiss_determinant([]) == 1


def test_prufer_decode_basics():
    single = prufer_decode([], 1)
    assert single.vertex_count == 1
    edge = prufer_decode([], 2)
    assert edge.edges() == [(1, 2)]
    star = prufer_decode([1] * 6, 8)
    assert star.edges() == [(1, i) for i in range(2, 9)]


def test_prufer_round_trip_exhaustive():
    from itertools import product

    for k in range(2, 7):
        for seq in product(range(1, k + 1), repeat=k - 2):
            assert prufer_encode(prufer_decode(seq, k)) == seq


def test_prufer_round_trip_random_k9():
    rng = random.Random(3)
    for _ in range(200):
        seq = tuple(rng.randint(1, 9) for _ in range(7))
        assert prufer_encode(prufer_decode(seq, 9)) == seq


def test_random_labeled_tree_is_a_seeded_tree():
    assert random_labeled_tree(1, 0).vertex_count == 1
    assert random_labeled_tree(2, 0).edges() == [(1, 2)]
    t1 = random_labeled_tree(12, 77)
    t2 = random_labeled_tree(12, 77)
    assert t1 == t2
    assert is_tree(t1)
    assert random_labeled_tree(12, 78) != t1


def test_all_labeled_trees_counts_match_cayley():
    for k in range(1, 7):
        trees = list(all_labeled_trees(k))
        assert len(trees) == (k ** (k - 2) if k >= 2 else 1)
        assert len(set(trees)) == len(trees)
        assert all(is_tree(t) for t in trees)


def test_random_qt_graph_is_recognizable_and_seeded():
    assert random_qt_graph(1, 3, 5).vertex_count <= 3
    g1 = random_qt_graph(7, 3, 123)
    g2 = random_qt_graph(7, 3, 123)
    assert g1 == g2
    ct = recognize_and_build_cent_tree(g1)
    assert ct.vertex_count == g1.vertex_count
    assert 1 not in Counter(ct.parents[2:]).values()  # no internal node has one child


def test_builders():
    assert path_graph(4).edges() == [(1, 2), (2, 3), (3, 4)]
    assert caterpillar_graph(6).edge_count == 5
    assert is_tree(caterpillar_graph(9))
    assert complete_graph(4).edge_count == 6
    with pytest.raises(ValueError):
        cycle_graph(2)
