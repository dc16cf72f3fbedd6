import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qt_count, random_permutation, relabel, shifted_laplacian_determinant
from kncomp.arith import ExactField, PrimeField, random_prime
from kncomp.graph import Graph, Problem, complement_in_host, is_tree
from kncomp.oracle import (
    all_graphs,
    all_labeled_trees,
    caterpillar_graph,
    csplit_layout,
    kirchhoff_count,
    path_graph,
    random_labeled_tree,
    star_graph,
)
from kncomp.qt_engine import layout_determinant
from kncomp.tree_engine import (
    NotATreeError,
    count_kn_minus_tree,
    st_decompose,
    st_function,
    st_tau,
    tree_determinant,
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


NON_TREES = [
    Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),  # cycle
    Graph(4, [(1, 2), (3, 4)]),  # two disjoint edges
    Graph(3, []),  # edgeless
    Graph(4, [(1, 2), (2, 3), (1, 3)]),  # k - 1 edges: triangle plus isolated vertex
    # k - 1 edges: the path 1-2 peels to its last vertex, the triangle never
    Graph(5, [(1, 2), (3, 4), (4, 5), (5, 3)]),
    Graph(0),
]


@pytest.mark.parametrize("g", NON_TREES)
def test_decompose_rejects_non_trees(g):
    message = "has a cycle" if g.edge_count == g.vertex_count - 1 else "is not a tree"
    with pytest.raises(NotATreeError, match=message):
        st_decompose(g)


@pytest.mark.parametrize("g", NON_TREES)
def test_count_rejects_non_trees(g):
    message = "has a cycle" if g.edge_count == g.vertex_count - 1 else "is not a tree"
    with pytest.raises(NotATreeError, match=message):
        count_kn_minus_tree(Problem(6, g))


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


def test_count_rejects_exactly_the_non_trees_with_k_minus_1_edges():
    rejected = 0
    for p in range(1, 7):
        for g in all_graphs(p):
            if g.edge_count != p - 1:
                continue
            if not is_tree(g):
                with pytest.raises(NotATreeError):
                    count_kn_minus_tree(Problem(p, g))
                rejected += 1
                continue
            for n in (p, p + 1, p + 3):
                problem = Problem(n, g)
                assert count_kn_minus_tree(problem) == kirchhoff_count(
                    complement_in_host(problem)
                )
    # C(C(p,2), p-1) graphs minus p^(p-2) trees for p = 4, 5, 6; none below
    assert rejected == 4 + 85 + 1707


@pytest.mark.parametrize("make", [path_graph, caterpillar_graph])
def test_large_tau_matches_the_pivot_product_mod_a_prime(make):
    # Vertex 1 is an end of the path and of the spine, so these trees check
    # a peel that ends at a center, far from vertex 1.
    k = n = 20000
    t = make(k)
    tau = count_kn_minus_tree(Problem(n, t))
    assert 10**86011 <= tau < 10**86012
    field = PrimeField(random_prime(62, random.Random(k)))
    assert tau % field.modulus == st_tau(t, n, field)


def test_st_tau_in_a_prime_field_is_the_count_residue():
    rng = random.Random(6363)
    field = PrimeField(random_prime(rng=rng))
    for _ in range(100):
        k = rng.randint(1, 300)
        t = random_labeled_tree(k, rng.randint(0, 10**9))
        for n in (k + 1, k + 5):
            count = count_kn_minus_tree(Problem(n, t))
            assert st_tau(t, n, field) == count % field.modulus, (t.edges(), n)


def test_paper_pivot_product_matches_count_and_oracle_exhaustively():
    checked = 0
    for k in range(1, 8):
        for t in all_labeled_trees(k):
            for n in (k, k + 1, k + 3):
                problem = Problem(n, t)
                count = count_kn_minus_tree(problem)
                assert st_tau(t, n) == count
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
    assert st_tau(t, n) == count
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
    # each level holds, ascending, every vertex with at most one neighbor
    # outside the earlier levels
    peeled = set()
    for level in dec.levels:
        leaves = [
            v
            for v in t.vertices()
            if v not in peeled and sum(u not in peeled for u in t.neighbors(v)) <= 1
        ]
        assert level == leaves
        peeled.update(level)
    assert len(peeled) == k


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
        star = star_graph(k)
        for n in (k, k + 2):
            assert count_kn_minus_tree(Problem(n, star)) == qt_count(
                Problem(n, star)
            )
        for x in range(-2, k + 3):
            assert tree_determinant(star, x) == layout_determinant(*csplit_layout(1, k - 1), x)


def test_tree_determinant_is_the_shifted_laplacian_determinant():
    # The fold never divides, so it is exact at every integer x, below 0 and
    # below k included, and not only at the host size n.
    rng = random.Random(2828)
    trees = [t for k in range(1, 7) for t in all_labeled_trees(k)]
    trees += [random_labeled_tree(rng.randint(7, 20), rng.randint(0, 10**9)) for _ in range(40)]
    for t in trees:
        for x in range(-2, t.vertex_count + 3):
            assert tree_determinant(t, x) == shifted_laplacian_determinant(t, x), (t.edges(), x)


def broom_graph(handle: int, bristles: int) -> Graph:
    """A path on `handle` vertices with `bristles` leaves on its last one."""
    k = handle + bristles
    edges = [(v, v + 1) for v in range(1, handle)]
    return Graph(k, edges + [(handle, v) for v in range(handle + 1, k + 1)])


def child_by_child_fold(t: Graph, x: int) -> int:
    """det(x*I - L(T)), rooted at vertex 1, with every child folded into its
    parent on its own: F(v) and the cross sum of D(v) grow one child at a
    time, leaves included."""
    parent = {1: 0}
    order = [1]
    for v in order:
        for u in t.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    prod = dict.fromkeys([0, *order], 1)
    cross = dict.fromkeys([0, *order], 0)
    for v in reversed(order):
        d_v = (x - t.degree(v)) * prod[v] - cross[v]
        u = parent[v]
        cross[u] = cross[u] * d_v + prod[v] * prod[u]
        prod[u] *= d_v
    return d_v


@given(st.sampled_from(["random", "star", "broom"]), st.integers(1, 30), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_leaf_classes_fold_like_single_leaves(shape, k, seed):
    # The leaves of one parent fold as one class; trees with many leaves on
    # one vertex (stars, brooms) and k <= 2, whose root is itself a leaf,
    # check that against folding one child at a time.
    rng = random.Random(seed)
    if shape == "random":
        t = random_labeled_tree(k, seed)
    elif shape == "star":
        t = star_graph(k)
    else:
        handle = rng.randint(1, k)
        t = broom_graph(handle, k - handle)
    t = relabel(t, random_permutation(k, rng))
    for x in range(-3, k + 4):
        assert tree_determinant(t, x) == child_by_child_fold(t, x), (t.edges(), x)


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
