import heapq
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from kncomp.arith import tau_from_determinant
from kncomp.graph import Graph, Problem
from kncomp.oracle import graph_from_cent_layout
from kncomp.qt_engine import _shape, layout_determinant, recognize_and_build_cent_tree


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


def bareiss_determinant(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division in the Bareiss recurrence is exact, so all intermediates
    stay integers (no rational arithmetic involved).
    """
    m = [list(row) for row in rows]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(size - 1):
        if m[col][col] == 0:
            for r in range(col + 1, size):
                if m[r][col]:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        pivot_row = m[col]
        for r in range(col + 1, size):
            row = m[r]
            head = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * pivot - head * pivot_row[c]) // prev
            row[col] = 0
        prev = pivot
    return sign * m[-1][-1]


def rational_determinant(rows) -> Fraction:
    """Exact determinant of a rational matrix by Gaussian elimination,
    pivoting on the first nonzero entry of each column. Integer entries are
    made Fractions, so every quotient is exact."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if size == 0:
        return Fraction(1)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = m[r][col] / pivot
            if factor:
                row, top = m[r], m[col]
                for c in range(col, size):
                    row[c] -= factor * top[c]
    return det


def prufer_encode(t: Graph) -> tuple:
    """Inverse of oracle.prufer_decode (t must be a tree on >= 2 vertices)."""
    k = t.vertex_count
    if k < 2:
        raise ValueError("encoding needs at least two vertices")
    degree = [0] * (k + 1)
    removed = [False] * (k + 1)
    for v in t.vertices():
        degree[v] = t.degree(v)
    leaves = [v for v in t.vertices() if degree[v] == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(k - 2):
        v = heapq.heappop(leaves)
        u = next(w for w in t.neighbors(v) if not removed[w])
        seq.append(u)
        removed[v] = True
        degree[u] -= 1
        if degree[u] == 1:
            heapq.heappush(leaves, u)
    return tuple(seq)


def qt_count(problem: Problem) -> int:
    """tau(K_n - Q) for a connected quasi-threshold Q, as `kncomp count`
    serves it: the node tree of Q, its layout_determinant at x = n, then
    tau_from_determinant. Raises NotQuasiThresholdError, or ValueError when
    Q is disconnected."""
    ct = recognize_and_build_cent_tree(problem.h)
    det = layout_determinant(ct.parents, ct.mults, problem.n)
    return tau_from_determinant(problem.n, ct.vertex_count, det)


def shifted_laplacian_determinant(g: Graph, x: int) -> int:
    """det(x*I - L(g)) by Bareiss elimination of the dense matrix."""
    rows = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for v in g.vertices():
        rows[v - 1][v - 1] = x - g.degree(v)
        for u in g.neighbors(v):
            rows[v - 1][u - 1] = 1
    return bareiss_determinant(rows)


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


def complete_graph(k: int) -> Graph:
    return Graph(k, combinations(range(1, k + 1), 2))


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


# Edge-by-edge references for the builders that work in neighbor runs:
# each builds its graph from a list of (u, v) pairs through Graph(k, edges),
# or writes one f-string per edge of Graph.edges().


def edgewise_graph_from_cent_layout(parents, mults) -> Graph:
    """oracle.graph_from_cent_layout: each node's members form a clique and
    join completely with every ancestor's members."""
    k = len(parents) - 1
    members = [()]
    nxt = 1
    for i in range(1, k + 1):
        members.append(tuple(range(nxt, nxt + mults[i])))
        nxt += mults[i]
    edges = []
    for i in range(1, k + 1):
        mem = members[i]
        edges.extend(combinations(mem, 2))
        j = parents[i]
        while j:
            for x in members[j]:
                for y in mem:
                    edges.append((x, y))
            j = parents[j]
    return Graph(nxt - 1, edges)


def edgewise_csplit_graph(size_k: int, size_s: int) -> Graph:
    """oracle.csplit_graph: a clique on 1..size_k joined to the independent
    set size_k+1..size_k+size_s."""
    p = size_k + size_s
    edges = list(combinations(range(1, size_k + 1), 2))
    edges.extend((u, v) for u in range(1, size_k + 1) for v in range(size_k + 1, p + 1))
    return Graph(p, edges)


def edgewise_complement_in_host(problem: Problem) -> Graph:
    """graph.complement_in_host: K_n minus h on all n host vertices."""
    n, h = problem.n, problem.h
    removed = set(h.edges())
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in removed
    ]
    return Graph(n, edges)


def edgewise_serialize_edge_list(g: Graph) -> str:
    """graph.serialize_edge_list: the header, then one line per edge in
    lexicographic order."""
    out = [f"{g.vertex_count} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
