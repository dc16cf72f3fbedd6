import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_permutation, relabel
from kncomp.arith import ExactField, PrimeField
from kncomp.graph import Graph, Problem, complement_in_host
from kncomp.oracle import (
    all_labeled_trees,
    kirchhoff_count,
    random_labeled_tree,
    star_graph,
)
from kncomp.qt_engine import count_kn_minus_qt
from kncomp.tree_engine import (
    NotATreeError,
    count_kn_minus_tree,
    st_decompose,
    st_function,
)

P3 = Graph(3, [(1, 2), (2, 3)])


def test_decompose_path3():
    dec = st_decompose(P3)
    assert dec.levels == [[1, 3], [2]]
    assert dec.labels[1:] == [1, 3, 2]
    assert dec.order[1:] == [1, 3, 2]
    assert dec.ch[2] == (1, 3)
    assert dec.ch[1] == () and dec.ch[3] == ()


def test_decompose_single_vertex():
    dec = st_decompose(Graph(1))
    assert dec.levels == [[1]]
    assert dec.ch[1] == ()


def test_decompose_star_centered_at_5():
    star = Graph(5, [(5, i) for i in range(1, 5)])
    dec = st_decompose(star)
    assert dec.levels == [[1, 2, 3, 4], [5]]
    assert dec.ch[5] == (1, 2, 3, 4)


def test_decompose_single_edge_peels_in_one_level():
    dec = st_decompose(Graph(2, [(1, 2)]))
    assert dec.levels == [[1, 2]]
    assert dec.ch[1] == ()
    assert dec.ch[2] == (1,)


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),  # cycle
        Graph(4, [(1, 2), (3, 4)]),  # two disjoint edges
        Graph(3, []),  # edgeless
        Graph(4, [(1, 2), (2, 3), (1, 3)]),  # k - 1 edges: triangle plus isolated vertex
    ],
)
def test_decompose_rejects_non_trees(g):
    with pytest.raises(NotATreeError):
        st_decompose(g)


def test_st_function_path3():
    values = st_function(st_decompose(P3), 4)
    assert values[1:] == [Fraction(3, 4), Fraction(3, 4), Fraction(1, 3)]


def test_st_function_single_vertex():
    assert st_function(st_decompose(Graph(1)), 3)[1:] == [Fraction(1)]


def test_st_function_single_edge_ends_at_zero():
    # The zero appears only as a final value, never in a denominator.
    values = st_function(st_decompose(Graph(2, [(1, 2)])), 2)
    assert values[1:] == [Fraction(1, 2), Fraction(0)]


def test_st_function_rejects_small_host():
    with pytest.raises(ValueError):
        st_function(st_decompose(P3), 2)


def test_count_examples():
    assert count_kn_minus_tree(Problem(4, P3)) == 3
    assert count_kn_minus_tree(Problem(2, Graph(2, [(1, 2)]))) == 0
    assert count_kn_minus_tree(Problem(5, Graph(1))) == 125
    assert count_kn_minus_tree(Problem(1, Graph(1))) == 1


def _paper_pivot_product(t: Graph, n: int) -> int:
    """tau(K_n - T) = n^(n-2) * L(1) * ... * L(k), in exact rationals."""
    total = Fraction(n) ** (n - 2)
    for value in st_function(st_decompose(t), n)[1:]:
        total *= value
    assert total.denominator == 1
    return total.numerator


def test_paper_pivot_product_matches_count_and_oracle_exhaustively():
    checked = 0
    for k in range(1, 8):
        for t in all_labeled_trees(k):
            for n in (k, k + 1, k + 3):
                problem = Problem(n, t)
                count = count_kn_minus_tree(problem)
                assert _paper_pivot_product(t, n) == count
                assert count == kirchhoff_count(complement_in_host(problem))
                checked += 1
    assert checked == 54747


@given(st.integers(1, 60), st.integers(0, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_paper_pivot_product_matches_count_on_random_trees(k, slack, seed):
    # slack 0 and 1 give n = k and n = k + 1, where n^(n-k-2) is a fraction.
    t = random_labeled_tree(k, seed)
    n = k + slack
    problem = Problem(n, t)
    count = count_kn_minus_tree(problem)
    assert _paper_pivot_product(t, n) == count
    assert count == kirchhoff_count(complement_in_host(problem))


def test_count_matches_oracle_on_random_k8_trees():
    rng = random.Random(4242)
    for _ in range(60):
        t = random_labeled_tree(8, rng.randint(0, 10**9))
        for n in (8, 9, 11):
            problem = Problem(n, t)
            assert count_kn_minus_tree(problem) == kirchhoff_count(
                complement_in_host(problem)
            )


@given(st.integers(1, 40), st.integers(0, 10**6))
@settings(max_examples=60)
def test_partition_and_orientation_properties(k, seed):
    t = random_labeled_tree(k, seed)
    dec = st_decompose(t)
    flat = [v for level in dec.levels for v in level]
    assert sorted(flat) == list(range(1, k + 1))
    assert len(flat) == len(set(flat))
    assert len(dec.levels[-1]) in (1, 2)
    # every vertex except the last-labeled one keeps exactly one neighbor
    # with a larger label
    for v in t.vertices():
        expected = dec.deg[v] if dec.labels[v] == k else dec.deg[v] - 1
        assert len(dec.ch[v]) == expected
    assert sum(len(dec.ch[v]) for v in t.vertices()) == k - 1


@given(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60)
def test_relabeling_never_changes_the_count(k, seed, perm_seed):
    t = random_labeled_tree(k, seed)
    perm = random_permutation(k, random.Random(perm_seed))
    n = k + 2
    assert count_kn_minus_tree(Problem(n, t)) == count_kn_minus_tree(
        Problem(n, relabel(t, perm))
    )


def test_star_agrees_with_qt_engine():
    for k in range(2, 9):
        for n in (k, k + 2):
            star = star_graph(k)
            assert count_kn_minus_tree(Problem(n, star)) == count_kn_minus_qt(
                Problem(n, star)
            )


def test_field_operation_count_is_linear():
    for k in (50, 100, 200):
        field = ExactField()
        t = random_labeled_tree(k, 11)
        st_function(st_decompose(t), k + 1, field)
        assert field.ops <= 3 * k
        assert field.ops >= k


def test_zero_pivot_raises_with_label():
    # Mod 3 the leaf value 3/4 of the path collapses to zero, so the center,
    # whose recursion divides by it, raises ZeroDivisionError naming the modulus.
    field = PrimeField(3)
    with pytest.raises(ZeroDivisionError, match="mod 3"):
        st_function(st_decompose(P3), 4, field)
