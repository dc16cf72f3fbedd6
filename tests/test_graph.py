from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kncomp.graph import (
    EdgeListParseError,
    Graph,
    Problem,
    complement_in_host,
    is_connected,
    is_tree,
    parse_edge_list,
    serialize_edge_list,
)


@st.composite
def graphs(draw, min_k=1, max_k=8):
    k = draw(st.integers(min_k, max_k))
    pairs = list(combinations(range(1, k + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(k, [p for p, used in zip(pairs, keep) if used])


def test_parse_path3():
    g = parse_edge_list("3 2\n1 2\n2 3")
    assert g.vertex_count == 3
    assert g.edges() == [(1, 2), (2, 3)]
    assert g.neighbors(2) == (1, 3)


def test_parse_single_isolated_vertex():
    g = parse_edge_list("1 0")
    assert g.vertex_count == 1
    assert g.edge_count == 0


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("2 1\n1 1", 2, "loop"),
        ("3 2\n1 2\n1 2", 3, "duplicate"),
        ("2 1\n1 5", 2, "out of range"),
        ("nonsense", 1, "header"),
        ("2", 1, "header"),
        ("x y", 1, "non-integer"),
        ("0 0", 1, "at least 1"),
        ("10000001 0", 1, "exceeds the limit"),
        ("3 -1", 1, "negative edge count"),
        ("3 2\n1 2", 2, "promised 2 edges"),
        ("2 1\n1 two", 2, "non-integer"),
        ("", 1, "header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


def test_serialize_sorts_edges_lexicographically():
    g = Graph(4, [(3, 4), (1, 3), (2, 4), (1, 2)])
    assert serialize_edge_list(g) == "4 4\n1 2\n1 3\n2 4\n3 4\n"


@given(graphs())
def test_parse_serialize_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match=r"duplicate edge \(2, 4\)"):
        Graph(5, [(4, 2), (1, 5), (3, 4), (2, 4), (1, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(1, 3)])


def test_is_tree():
    assert is_tree(parse_edge_list("3 2\n1 2\n2 3"))
    assert not is_tree(Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))  # cycle: m = k
    assert not is_tree(Graph(4, [(1, 2), (3, 4)]))  # disconnected forest
    assert is_tree(Graph(1))


def test_is_connected():
    assert is_connected(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(5, [(i, i + 1) for i in range(1, 5)]))
    assert is_connected(Graph(1))


def test_problem_validates_sizes():
    with pytest.raises(ValueError):
        Problem(2, Graph(3))
    with pytest.raises(ValueError):
        Problem(0, Graph(0))
    Problem(3, Graph(3))  # k = n is allowed


def test_complement_single_edge_in_triangle():
    comp = complement_in_host(Problem(3, Graph(2, [(1, 2)])))
    assert comp.edges() == [(1, 3), (2, 3)]


def test_complement_of_complete_graph_is_empty():
    k4 = Graph(4, list(combinations(range(1, 5), 2)))
    comp = complement_in_host(Problem(4, k4))
    assert comp.edge_count == 0
    assert comp.vertex_count == 4


def test_complement_of_path3_in_k4():
    # K_4 has six edges; removing 12 and 23 leaves exactly these four.
    comp = complement_in_host(Problem(4, Graph(3, [(1, 2), (2, 3)])))
    assert comp.edges() == [(1, 3), (1, 4), (2, 4), (3, 4)]


@given(graphs(), st.integers(0, 3))
def test_degrees_split_across_host(h, extra):
    n = h.vertex_count + extra
    comp = complement_in_host(Problem(n, h))
    for v in h.vertices():
        assert h.degree(v) + comp.degree(v) == n - 1


@given(graphs())
def test_complement_is_involution_on_edge_sets(h):
    n = h.vertex_count + 2
    once = complement_in_host(Problem(n, h))
    twice = complement_in_host(Problem(n, once))
    assert set(twice.edges()) == set(h.edges())
