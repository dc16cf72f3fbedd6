import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    check_node_tree,
    complete_graph,
    qt_count,
    random_permutation,
    rational_determinant,
    relabel,
    shifted_laplacian_determinant,
)
from kncomp.arith import PrimeField, random_prime, tau_from_determinant
from kncomp.graph import Graph, Problem, complement_in_host, is_connected
from kncomp.oracle import (
    all_graphs,
    csplit_graph,
    csplit_layout,
    cycle_graph,
    graph_from_cent_layout,
    kirchhoff_count,
    path_graph,
    random_cent_layout,
    random_graph,
    random_qt_graph,
)
from kncomp.qt_engine import (
    NotQuasiThresholdError,
    cent_function,
    cent_tau,
    is_complete_split,
    layout_determinant,
    recognize_and_build_cent_tree,
)

STAR12 = Graph(3, [(1, 2), (1, 3)])  # center 1, two leaves


def figure_like_graph() -> Graph:
    """12 vertices decomposing into 10 nodes, two of them doubled."""
    edges = [(1, v) for v in range(2, 13)]
    edges += [(2, 5), (2, 6), (2, 7), (2, 10), (2, 11), (2, 12)]
    edges += [(3, 4), (3, 8), (3, 9), (4, 8), (4, 9)]
    edges += [(5, 10), (5, 11), (5, 12)]
    edges += [(11, 12)]
    return Graph(12, edges)


def has_induced_p4_or_c4(g: Graph) -> bool:
    for quad in combinations(g.vertices(), 4):
        inner = [(u, v) for u, v in combinations(quad, 2) if v in g.neighbors(u)]
        if len(inner) == 3:
            degs = sorted(sum(v in e for e in inner) for v in quad)
            if degs == [1, 1, 2, 2]:
                return True
        elif len(inner) == 4:
            if all(sum(v in e for e in inner) == 2 for v in quad):
                return True
    return False


def test_complete_graph_is_a_single_node():
    for p in (1, 2, 5):
        g = complete_graph(p)
        ct = recognize_and_build_cent_tree(g)
        assert ct.node_count == 1
        assert ct.members[1] == tuple(range(1, p + 1))
        check_node_tree(ct, g)


def test_p4_and_c4_are_rejected_with_witness():
    with pytest.raises(NotQuasiThresholdError) as err:
        recognize_and_build_cent_tree(path_graph(4))
    assert err.value.witness == (1, 2, 3, 4)
    with pytest.raises(NotQuasiThresholdError):
        recognize_and_build_cent_tree(cycle_graph(4))


def test_disconnected_input_is_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        recognize_and_build_cent_tree(Graph(4, [(1, 2), (3, 4)]))


def test_figure_like_graph_decomposition():
    g = figure_like_graph()
    ct = recognize_and_build_cent_tree(g)
    check_node_tree(ct, g)
    assert ct.node_count == 10
    assert ct.parents == [0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    assert ct.mults == [0, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2]
    assert ct.members[3] == (3, 4)
    assert ct.members[10] == (11, 12)


def test_cent_function_on_complete_graph():
    for p in (1, 2, 4):
        for n in (p, p + 3):
            ct = recognize_and_build_cent_tree(complete_graph(p))
            vals = cent_function(ct, n)
            assert vals.sigma[1] == Fraction(1, p)
            assert vals.phi[1] == Fraction(1, p)


def test_cent_function_on_single_vertex():
    vals = cent_function(recognize_and_build_cent_tree(Graph(1)), 5)
    assert vals.sigma[1] == vals.phi[1] == Fraction(1)


def test_cent_function_on_small_star():
    ct = recognize_and_build_cent_tree(STAR12)
    vals = cent_function(ct, 4)
    assert ct.parents == [0, 0, 1, 1]  # the root holds the centre
    assert vals.sigma[1] == Fraction(1, 2)
    assert vals.sigma[2] == vals.sigma[3] == Fraction(3, 4)
    assert vals.phi[2] == vals.phi[3] == Fraction(3, 4)
    assert vals.phi[1] == Fraction(1, 3)


def test_cent_function_rejects_small_host():
    ct = recognize_and_build_cent_tree(complete_graph(4))
    with pytest.raises(ValueError):
        cent_function(ct, 3)


def test_count_complete_graph_closed_form():
    for p in range(1, 7):
        for n in range(p, 13):
            expected = n ** (n - p - 1) * (n - p) ** (p - 1) if n > p else 0
            if n == p == 1:
                expected = 1
            assert qt_count(Problem(n, complete_graph(p))) == expected


def test_count_star_matches_tree_engine_value():
    assert qt_count(Problem(4, STAR12)) == 3


def test_count_single_vertex_is_cayley():
    assert qt_count(Problem(5, Graph(1))) == 125


def test_count_rejects_p4():
    with pytest.raises(NotQuasiThresholdError):
        qt_count(Problem(5, path_graph(4)))


def test_csplit_closed_form_examples():
    assert tau_from_determinant(4, 4, layout_determinant(*csplit_layout(1, 3), 4)) == 0
    assert tau_from_determinant(5, 4, layout_determinant(*csplit_layout(1, 3), 5)) == 16
    problem = Problem(5, csplit_graph(1, 3))
    assert kirchhoff_count(complement_in_host(problem)) == 16


def test_csplit_empty_stable_set_delegates_to_complete_graph():
    for p in range(1, 6):
        for n in range(p, 9):
            det = layout_determinant(*csplit_layout(p, 0), n)
            assert tau_from_determinant(n, p, det) == qt_count(Problem(n, complete_graph(p)))


def test_csplit_matches_qt_engine():
    for size_k in range(1, 5):
        for size_s in range(0, 5):
            p = size_k + size_s
            for n in (p, p + 2):
                g = csplit_graph(size_k, size_s)
                det = layout_determinant(*csplit_layout(size_k, size_s), n)
                assert tau_from_determinant(n, p, det) == qt_count(Problem(n, g))


def test_layout_determinant_is_the_shifted_laplacian_determinant():
    # The spectrum product never divides, so it is exact at every integer x,
    # below 0 and below p included, and not only at the host size n.
    rng = random.Random(2830)
    layouts = [random_cent_layout(8, 3, rng) for _ in range(200)]
    layouts += [csplit_layout(size_k, size_s) for size_k in range(1, 5) for size_s in range(0, 5)]
    for parents, mults in layouts:
        g = graph_from_cent_layout(parents, mults)
        for x in range(-2, g.vertex_count + 3):
            assert layout_determinant(parents, mults, x) == shifted_laplacian_determinant(g, x), (
                parents, mults, x,
            )


def has_complete_split_degrees(g: Graph) -> bool:
    """Complete split by degrees: a universal vertex exists, and every other
    vertex is adjacent to exactly the universal vertices."""
    p = g.vertex_count
    universal = sum(g.degree(v) == p - 1 for v in g.vertices())
    return universal > 0 and all(g.degree(v) in (p - 1, universal) for v in g.vertices())


def node_tree_is_complete_split(g: Graph) -> bool:
    try:
        ct = recognize_and_build_cent_tree(g)
    except ValueError:  # not quasi-threshold, or disconnected
        return False
    return is_complete_split(ct.parents, ct.mults)


def test_complete_split_shape_of_the_node_tree():
    assert node_tree_is_complete_split(csplit_graph(2, 3))
    assert node_tree_is_complete_split(complete_graph(4))
    assert node_tree_is_complete_split(Graph(1))
    assert not node_tree_is_complete_split(path_graph(4))
    assert not node_tree_is_complete_split(Graph(3))  # edgeless, no universal vertex
    # star plus one extra edge among the leaves is not complete split
    assert not node_tree_is_complete_split(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]))
    for p in range(1, 7):
        for g in all_graphs(p):
            if is_connected(g):
                assert node_tree_is_complete_split(g) == has_complete_split_degrees(g), g.edges()


def test_many_pieces_are_split_in_linear_time():
    # A star on 20000 leaves plus one leaf-leaf edge peels into 19999 pieces
    # below the root; finding each piece by rescanning the unreached set is
    # quadratic and takes seconds.
    leaves = 20000
    g = Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)] + [(2, 3)])
    start = time.perf_counter()
    ct = recognize_and_build_cent_tree(g)
    tau = tau_from_determinant(
        leaves + 1, ct.vertex_count, layout_determinant(ct.parents, ct.mults, leaves + 1)
    )
    assert time.perf_counter() - start < 2.0
    assert ct.node_count == leaves and not is_complete_split(ct.parents, ct.mults)
    assert ct.members[2] == (2, 3)
    assert tau == 0  # n = p: the star's centre is isolated in K_n - H


def is_stalled_piece(g: Graph, witness) -> bool:
    """True when `witness` induces a connected subgraph of g with no
    universal vertex."""
    inside = set(witness)
    inner = {v: inside.intersection(g.neighbors(v)) for v in witness}
    if any(len(ns) == len(inside) - 1 for ns in inner.values()):
        return False
    reached = {witness[0]}
    stack = [witness[0]]
    while stack:
        for u in inner[stack.pop()] - reached:
            reached.add(u)
            stack.append(u)
    return reached == inside


def test_witness_piece_joins_vertices_outside_the_largest_neighborhood():
    # Vertex 5 is universal over the path 1-2-3-4. Below it, vertex 2 (or 3)
    # has the largest inner degree, and its closed neighborhood misses one
    # end of the path, which must still join its piece.
    g = Graph(5, [(1, 2), (2, 3), (3, 4)] + [(v, 5) for v in range(1, 5)])
    with pytest.raises(NotQuasiThresholdError) as err:
        recognize_and_build_cent_tree(g)
    assert err.value.witness == (1, 2, 3, 4)


def deep_chain_layout(depth: int):
    """A chain of `depth` internal nodes, one leaf under each and two under
    the last, every multiplicity 1: the node tree is `depth` + 1 levels deep."""
    parents = [0, 0]
    chain = 1
    for _ in range(depth - 1):
        parents += [chain, chain]  # the next chain node, then a leaf
        chain = len(parents) - 2
    parents += [chain, chain]
    return parents, [0] + [1] * (len(parents) - 1)


def test_deep_node_trees_are_recognized_quickly():
    # 801 vertices and 160,400 edges. Rescanning each vertex's whole
    # adjacency at every level above it takes seconds here.
    g = graph_from_cent_layout(*deep_chain_layout(400))
    g = relabel(g, random_permutation(g.vertex_count, random.Random(400)))
    start = time.perf_counter()
    ct = recognize_and_build_cent_tree(g)
    n = g.vertex_count + 1
    tau_from_determinant(n, ct.vertex_count, layout_determinant(ct.parents, ct.mults, n))
    assert time.perf_counter() - start < 0.5
    assert ct.node_count == 801
    check_node_tree(ct, g)


def test_recognition_matches_brute_force_exhaustively():
    for k in range(1, 7):
        for g in all_graphs(k):
            if not is_connected(g):
                continue
            forbidden = has_induced_p4_or_c4(g)
            try:
                ct = recognize_and_build_cent_tree(g)
                recognized = True
            except NotQuasiThresholdError as err:
                recognized = False
                assert is_stalled_piece(g, err.witness), g.edges()
            assert recognized == (not forbidden), g.edges()
            if recognized:
                check_node_tree(ct, g)


def test_every_small_disconnected_graph_is_refused_as_disconnected():
    # Connectivity is decided before the peel, so no disconnected graph
    # reaches it and stalls there as not quasi-threshold.
    refused = 0
    for p in range(2, 7):
        for g in all_graphs(p):
            if is_connected(g):
                continue
            with pytest.raises(ValueError, match="graph is disconnected") as err:
                recognize_and_build_cent_tree(g)
            assert not isinstance(err.value, NotQuasiThresholdError), g.edges()
            refused += 1
    assert refused == 1 + 4 + 26 + 296 + 6064  # disconnected labeled graphs, 2 <= p <= 6


@given(st.integers(1, 12), st.integers(0, 30), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_relabeled_layouts_and_deep_chains_rebuild_their_node_trees(max_nodes, depth, seed):
    # depth 0 draws a random layout; otherwise a chain of `depth` internal
    # nodes with random multiplicities, whose vertices sit up to depth + 1
    # levels below the root.
    rng = random.Random(seed)
    if depth:
        parents, _ = deep_chain_layout(depth)
        layout = parents, [0] + [rng.randint(1, 3) for _ in parents[1:]]
    else:
        layout = random_cent_layout(max_nodes, 3, rng)
    g = graph_from_cent_layout(*layout)
    g = relabel(g, random_permutation(g.vertex_count, rng))
    check_node_tree(recognize_and_build_cent_tree(g), g)


def test_recognition_matches_brute_force_sampled_7():
    rng = random.Random(2718)
    done = 0
    while done < 1500:
        g = random_graph(7, rng)
        if not is_connected(g):
            continue
        done += 1
        forbidden = has_induced_p4_or_c4(g)
        try:
            recognize_and_build_cent_tree(g)
            recognized = True
        except NotQuasiThresholdError:
            recognized = False
        assert recognized == (not forbidden), g.edges()


@given(st.integers(2, 14), st.integers(1, 2), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_recognition_matches_brute_force_near_quasi_threshold(max_nodes, mult, seed, toggle_seed):
    # One toggled edge in a relabeled quasi-threshold graph with p <= 14
    # reaches deeper node trees than the exhaustive graphs do.
    g = random_qt_graph(max_nodes // mult, mult, seed)
    p = g.vertex_count
    assume(p >= 2)
    rng = random.Random(toggle_seed)
    g = relabel(g, random_permutation(p, rng))
    edges = set(g.edges())
    edges ^= {tuple(sorted(rng.sample(range(1, p + 1), 2)))}
    g = Graph(p, edges)
    if not is_connected(g):
        with pytest.raises(ValueError, match="disconnected"):
            recognize_and_build_cent_tree(g)
        return
    try:
        ct = recognize_and_build_cent_tree(g)
    except NotQuasiThresholdError as err:
        assert has_induced_p4_or_c4(g), g.edges()
        assert is_stalled_piece(g, err.witness), g.edges()
        return
    assert not has_induced_p4_or_c4(g), g.edges()
    check_node_tree(ct, g)


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=60)
def test_reconstruction_reproduces_the_input(max_nodes, seed):
    g = random_qt_graph(max_nodes, 3, seed)
    ct = recognize_and_build_cent_tree(g)
    check_node_tree(ct, g)


def test_random_qt_graphs_match_oracle():
    rng = random.Random(31415)
    checked = 0
    while checked < 120:
        g = random_qt_graph(rng.randint(1, 5), 3, rng.randint(0, 10**9))
        if g.vertex_count > 10:
            continue
        checked += 1
        p = g.vertex_count
        for n in (p, p + 1, p + 4):
            problem = Problem(n, g)
            assert qt_count(problem) == kirchhoff_count(
                complement_in_host(problem)
            )


def test_paper_phi_product_matches_count_and_oracle_exhaustively():
    checked = 0
    for p in range(1, 7):
        for g in all_graphs(p):
            if not is_connected(g):
                continue
            try:
                recognize_and_build_cent_tree(g)
            except NotQuasiThresholdError:
                continue
            for n in (p, p + 1, p + 3):
                problem = Problem(n, g)
                count = qt_count(problem)
                assert cent_tau(recognize_and_build_cent_tree(g), n) == count
                assert count == kirchhoff_count(complement_in_host(problem))
                checked += 1
    assert checked == 3 * 2022  # connected labeled quasi-threshold graphs, p <= 6


@given(st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_paper_phi_product_matches_count_on_random_layouts(max_nodes, seed, slack):
    # slack 0 gives n = p, where n^(n-p-1) is a fraction.
    g = graph_from_cent_layout(*random_cent_layout(max_nodes, 3, random.Random(seed)))
    assume(g.vertex_count <= 10)
    problem = Problem(g.vertex_count + slack, g)
    count = qt_count(problem)
    assert cent_tau(recognize_and_build_cent_tree(g), problem.n) == count
    assert count == kirchhoff_count(complement_in_host(problem))


def test_cent_tau_in_a_prime_field_is_the_count_residue():
    # The paper's phi product, run modulo a random 62-bit prime, against the
    # exact spectral count, on graphs far beyond the oracles' reach.
    rng = random.Random(6262)
    field = PrimeField(random_prime(rng=rng))
    graphs = [random_qt_graph(rng.randint(1, 40), 3, rng.randint(0, 10**9)) for _ in range(200)]
    graphs += [csplit_graph(size_k, size_s) for size_k in range(1, 6) for size_s in range(6)]
    for g in graphs:
        ct = recognize_and_build_cent_tree(g)
        for n in (g.vertex_count + 1, g.vertex_count + 5):
            count = qt_count(Problem(n, g))
            assert cent_tau(ct, n, field) == count % field.modulus, (g.edges(), n)


@given(st.integers(1, 10), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=50)
def test_relabeling_never_changes_the_count(max_nodes, seed, perm_seed):
    g = random_qt_graph(max_nodes, 2, seed)
    p = g.vertex_count
    perm = random_permutation(p, random.Random(perm_seed))
    n = p + 3
    assert qt_count(Problem(n, g)) == qt_count(
        Problem(n, relabel(g, perm))
    )


def test_block_determinant_identity_spot():
    # det of the within-node block equals (a-b)^(p-1) * (a + (p-1) b)
    for n in (5, 9):
        b = Fraction(1, n)
        for d in (2, 4):
            a = 1 - d * b
            for p in (1, 2, 4):
                block = [[a if r == c else b for c in range(p)] for r in range(p)]
                det = rational_determinant(block)
                assert det == (a - b) ** (p - 1) * (a - (1 - p) * b)


def build_coupling_matrix(ct, sigma, n):
    """The node-level system: sigma on the diagonal, 1/n between every
    ancestor/descendant pair, in node-id order."""
    b = Fraction(1, n)
    k = ct.node_count
    ancestors = [set() for _ in range(k + 1)]
    for i in range(2, k + 1):
        ancestors[i] = ancestors[ct.parents[i]] | {ct.parents[i]}
    rows = [[Fraction(0)] * k for _ in range(k)]
    for s in range(1, k + 1):
        for t in range(1, k + 1):
            if s == t:
                rows[s - 1][t - 1] = sigma[s]
            elif s in ancestors[t] or t in ancestors[s]:
                rows[s - 1][t - 1] = b
    return rows


def test_coupling_determinant_equals_phi_product_spot():
    rng = random.Random(999)
    for _ in range(40):
        layout = random_cent_layout(6, 3, rng)
        g = graph_from_cent_layout(*layout)
        ct = recognize_and_build_cent_tree(g)
        n = ct.vertex_count + rng.randint(0, 4)
        vals = cent_function(ct, n)
        det = rational_determinant(build_coupling_matrix(ct, vals.sigma, n))
        product = Fraction(1)
        for t in range(1, ct.node_count + 1):
            product *= vals.phi[t]
        assert det == product
