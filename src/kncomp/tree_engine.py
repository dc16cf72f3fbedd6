"""Spanning trees of K_n minus a tree, in O(k) integer recursion steps.

Every count satisfies tau(K_n - T) = n^(n-k-2) * det(n*I_k - L(T)), where
L(T) is the Laplacian of the k-vertex tree T. Orient T from its leaves to a
root and write d_v for the degree of v in T and ch(v) for its children. The
subtree determinants

    F(v) = prod(D(c) for c in ch(v))
    D(v) = (n - d_v) * F(v) - sum(F(c) * prod(D(c') for c' in ch(v), c' != c)
                                  for c in ch(v))

end at D(root) = det(n*I_k - L(T)). `count_kn_minus_tree` evaluates them in
one leaf-peel pass: a queue peels the current leaves, each peeled vertex
folds (D(v), F(v)) into its one unpeeled neighbor, and the last vertex
peeled, a center of T, is the root. It never divides, so it has no zero
pivots, and the only division is the exact one by n^(k+2-n) when
k >= n - 1.

`st_decompose` peels T level by level (removing all current leaves at
once) and numbers the vertices level by level, so every vertex has at most
one neighbor with a larger label. These peel levels and labels serve only
the paper's recursion below.

`st_function` is the paper's rational form of the same elimination, with
ch(i) the neighbors of i with smaller labels. With b = 1/n and
a_i = 1 - d_i*b, the pivots

    L(i) = a_i - b^2 * sum(1 / L(j) for j in ch(i))

satisfy n * L(v) = D(v) / F(v), so tau(K_n - T) = n^(n-2) * L(1) * ... * L(k),
which `st_tau` assembles. Both run in any field (exact rationals or a prime
field), which `bench` and the linear-work checks use. A zero L(j) is legal
as a final value but cannot appear in a denominator; that case raises
ZeroDivisionError.
"""

from dataclasses import dataclass

from .arith import ExactField, tau_from_determinant
from .graph import Graph, Problem
from .graph import is_tree  # noqa: F401 -- unused; perfbench/test_tracing.py patches it here

__all__ = [
    "NotATreeError",
    "StDecomposition",
    "st_decompose",
    "st_function",
    "st_tau",
    "count_kn_minus_tree",
]


class NotATreeError(ValueError):
    """Input graph is not a tree (connected with k-1 edges)."""


@dataclass
class StDecomposition:
    """Leaf-peeling structure of a tree; lists are indexed 1..k, entry 0 unused.

    levels  -- vertex ids removed at each peel, ascending within a level
    labels  -- labels[v] is the peel-order label of vertex v
    order   -- order[t] is the vertex holding label t
    ch      -- ch[v] lists the neighbors of v with smaller labels
    deg     -- degree of v in the tree
    """

    levels: list
    labels: list
    order: list
    ch: list
    deg: list

    @property
    def vertex_count(self) -> int:
        return len(self.labels) - 1


def st_decompose(t: Graph) -> StDecomposition:
    """Peel leaves level by level and label vertices in peel order.

    Within a level vertices keep ascending original-id order; any fixed
    within-level order yields the same count, this one makes runs
    reproducible. The final level is the tree's center (1 or 2 vertices).
    Raises NotATreeError unless t is a tree: a graph with k - 1 edges that
    is not a tree contains a cycle, and no vertex of a cycle is ever peeled.
    """
    k = t.vertex_count
    if k < 1 or t.edge_count != k - 1:
        raise NotATreeError(f"graph with {k} vertices and {t.edge_count} edges is not a tree")
    deg = [0] * (k + 1)
    for v in t.vertices():
        deg[v] = t.degree(v)

    remaining = deg.copy()
    removed = [False] * (k + 1)
    levels = []
    current = [v for v in t.vertices() if remaining[v] <= 1]
    while current:
        levels.append(current)
        for v in current:
            removed[v] = True
        nxt = []
        for v in current:
            for u in t.neighbors(v):
                if not removed[u]:
                    remaining[u] -= 1
                    if remaining[u] == 1:
                        nxt.append(u)
        current = sorted(nxt)

    labels = [0] * (k + 1)
    order = [0] * (k + 1)
    t_label = 0
    for level in levels:
        for v in level:
            t_label += 1
            labels[v] = t_label
            order[t_label] = v
    if t_label != k:
        raise NotATreeError(f"graph with {k} vertices and {k - 1} edges has a cycle")

    ch = [()] * (k + 1)
    for v in t.vertices():
        ch[v] = tuple(u for u in t.neighbors(v) if labels[u] < labels[v])
    return StDecomposition(levels, labels, order, ch, deg)


def st_function(dec: StDecomposition, n: int, field=None) -> list:
    """Evaluate the pivot recursion in label order.

    Returns the values indexed by label (entry 0 unused), as elements of
    `field` (exact rationals by default). Raises ZeroDivisionError when
    some L(j) = 0 is hit in a denominator.
    """
    k = dec.vertex_count
    if n < k:
        raise ValueError(f"host size {n} smaller than tree size {k}")
    f = field if field is not None else ExactField()
    one = f.from_int(1)
    b = f.div(one, f.from_int(n))
    b2 = f.mul(b, b)
    labels = dec.labels
    values = [None] * (k + 1)
    for t in range(1, k + 1):
        v = dec.order[t]
        val = f.sub(one, f.mul(f.from_int(dec.deg[v]), b))
        for u in dec.ch[v]:
            val = f.sub(val, f.div(b2, values[labels[u]]))
        values[t] = val
    return values


def st_tau(t: Graph, n: int, field=None):
    """tau(K_n - T) = n^(n-2) * L(1) * ... * L(k) from `st_function`, as an
    element of `field` (exact rationals by default)."""
    f = field if field is not None else ExactField()
    total = f.ipow(n, n - 2)
    for value in st_function(st_decompose(t), n, f)[1:]:
        total = f.mul(total, value)
    return total


def count_kn_minus_tree(problem: Problem) -> int:
    """Exact tau(K_n - T) for a tree subtrahend T, in one leaf-peel pass.

    A FIFO queue peels the current leaves, so every vertex is evaluated
    after the subtrees hanging off it and the last vertex peeled is a
    center of T. Raises NotATreeError for non-tree input, and
    NonIntegerProductError if the final exact division leaves a remainder
    (an engine bug).
    """
    t, n = problem.h, problem.n
    k = t.vertex_count
    if k < 1 or t.edge_count != k - 1:
        raise NotATreeError(f"graph with {k} vertices and {t.edge_count} edges is not a tree")
    adj = list(map(t.neighbors, range(k + 1)))
    deg = list(map(len, adj))
    rem = deg.copy()  # unpeeled neighbors
    # prod[v] and cross[v] are F(v) and the sum in D(v) over the children
    # folded into v so far. Peeling v sets both to None, which releases them
    # and marks v peeled, so only the live frontier is kept.
    prod = [1] * (k + 1)
    cross = [0] * (k + 1)
    queue = [v for v in range(1, k + 1) if deg[v] <= 1]
    for peeled, v in enumerate(queue, 1):
        f_v, c_v = prod[v], cross[v]
        prod[v] = cross[v] = None
        d_v = (n - deg[v]) * f_v - c_v
        if peeled == k:
            return tau_from_determinant(n, k, d_v)
        for u in adj[v]:
            if prod[u] is not None:
                break
        else:  # v is a whole component, and other vertices remain
            break
        cross[u] = cross[u] * d_v + f_v * prod[u]
        prod[u] *= d_v
        rem[u] -= 1
        if rem[u] == 1:
            queue.append(u)
    raise NotATreeError(f"graph with {k} vertices and {k - 1} edges has a cycle")
