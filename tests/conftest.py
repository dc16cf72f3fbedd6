import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from kncomp.graph import Graph, Problem
from kncomp.oracle import graph_from_cent_layout
from kncomp.qt_engine import _shape, count_layout, recognize_and_build_cent_tree


@contextmanager
def int_digit_limit(limit: int):
    """Set CPython's int<->str digit limit for the block (0 lifts it), then
    restore it. Skips the test on a CPython that has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this CPython has no int digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def qt_count(problem: Problem) -> int:
    """tau(K_n - Q) for a connected quasi-threshold Q, as `kncomp count`
    serves it: the node tree of Q, then count_layout. Raises
    NotQuasiThresholdError, or ValueError when Q is disconnected."""
    ct = recognize_and_build_cent_tree(problem.h)
    return count_layout(ct.parents, ct.mults, problem.n)


def lucas(p: int, x: int) -> tuple[int, int]:
    """(U_p(x), V_p(x)) of the Lucas sequences W_(j+1) = x*W_j - W_(j-1)
    with U_0 = 0, U_1 = 1 and V_0 = 2, V_1 = x, by repeated squaring of
    M = [[x, -1], [1, 0]]: M^p = [[U_(p+1), -U_p], [U_p, -U_(p-1)]], and its
    trace U_(p+1) - U_(p-1) is V_p."""
    a, b, c, d = 1, 0, 0, 1  # M^0
    e, f, g, h = x, -1, 1, 0  # M^(2^i)
    while p:
        if p & 1:
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        p >>= 1
        if p:
            e, f, g, h = e * e + f * g, f * (e + h), g * (e + h), g * f + h * h
    return c, a + d


def disjoint_edges(m: int) -> Graph:
    """m disjoint edges on 2m vertices."""
    return Graph(2 * m, [(2 * i - 1, 2 * i) for i in range(1, m + 1)])


def tau_from_closed_form(n: int, p: int, det: int) -> int:
    """tau(K_n - H) = n^(n-p-2) * det(n*I - L(H)) for H on p vertices; for
    n < p + 2 the power divides det, and the division must be exact."""
    if n >= p + 2:
        return n ** (n - p - 2) * det
    tau, rest = divmod(det, n ** (p + 2 - n))
    assert rest == 0, f"n^{p + 2 - n} does not divide {det}"
    return tau


def relabel(g: Graph, perm: dict) -> Graph:
    """Apply a vertex permutation (old id -> new id) to g."""
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def random_permutation(k: int, rng: random.Random) -> dict:
    targets = list(range(1, k + 1))
    rng.shuffle(targets)
    return {old: targets[old - 1] for old in range(1, k + 1)}


def check_node_tree(ct, q: Graph):
    """Assert that node tree `ct` expands back to q, with each parent before
    its children, no internal node with a single child, and every member's
    degree equal to A_i + s_i - 1."""
    expanded = graph_from_cent_layout(ct.parents, ct.mults)
    members = [v for mem in ct.members for v in mem]
    assert sorted(members) == list(q.vertices()), "members must partition V(Q)"
    assert ct.mults == list(map(len, ct.members))
    perm = dict(zip(range(1, len(members) + 1), members))
    assert relabel(expanded, perm) == q, "expansion must reproduce the input"
    assert ct.parents[1] == 0, "node 1 must be the root"
    assert all(ct.parents[i] < i for i in range(2, ct.node_count + 1)), (
        "parents must precede their children"
    )
    child_counts = Counter(ct.parents[2:])
    assert 1 not in child_counts.values(), "an internal node has a single child"
    _, above, mass = _shape(ct.parents, ct.mults)
    for i, mem in enumerate(ct.members[1:], start=1):
        assert all(q.degree(v) == above[i] + mass[i] - 1 for v in mem)
