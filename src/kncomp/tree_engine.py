"""Spanning trees of K_n minus a tree, in O(k) integer recursion steps.

Every count satisfies tau(K_n - T) = n^(n-k-2) * det(n*I_k - L(T)), where
L(T) is the Laplacian of the k-vertex tree T. This module evaluates the
determinant; `cli` assembles the count from it with
`arith.tau_from_determinant`. Orient T from its leaves to a root and write
d_v for the degree of v in T and ch(v) for its children. At any integer x
the subtree determinants

    F(v) = prod(D(c) for c in ch(v))
    D(v) = (x - d_v) * F(v) - sum(F(c) * prod(D(c') for c' in ch(v), c' != c)
                                  for c in ch(v))

end at D(root) = det(x*I_k - L(T)).

One FIFO peel (`_leaf_peel`) serves both evaluations: a queue peels the
current leaves and gives the peel order, each vertex's parent (its one
unpeeled neighbor when it is peeled) and each vertex's peel round. It
holds the only tree check. `tree_determinant` folds (D(v), F(v)) into the
parent along the peel order; the last vertex peeled, a center of T, is the
root. It never divides, so it has no zero pivots and is exact at every x,
x = n included. `st_decompose` groups the rounds into levels (the sets of
leaves removed all at once) and numbers the vertices level by level, so
every vertex has at most one neighbor with a larger label. These levels
and labels serve only the paper's recursion below.

`st_function` is the paper's rational form of the same elimination, with
ch(i) the neighbors of i with smaller labels. With b = 1/n and
a_i = 1 - d_i*b, the pivots

    L(i) = a_i - b^2 * sum(1 / L(j) for j in ch(i))

satisfy n * L(v) = D(v) / F(v) at x = n, so
tau(K_n - T) = n^(n-2) * L(1) * ... * L(k), which `st_tau` assembles. Both
run in any field (exact rationals or a prime field), which `bench` and the
linear-work checks use. A zero L(j) is legal as a final value but cannot
appear in a denominator; that case raises ZeroDivisionError.
"""

from collections import namedtuple

from . import arith
from .arith import ExactField
from .graph import Graph, Problem
from .graph import is_tree  # noqa: F401 -- unused; perfbench/test_tracing.py patches it here

__all__ = [
    "NotATreeError",
    "StDecomposition",
    "st_decompose",
    "st_function",
    "st_tau",
    "tree_determinant",
    "count_kn_minus_tree",
]


class NotATreeError(ValueError):
    """Input graph is not a tree (connected with k-1 edges)."""


class StDecomposition(namedtuple("StDecomposition", "levels labels order ch deg")):
    """Leaf-peeling structure of a tree; lists are indexed 1..k, entry 0 unused.

    levels  -- vertex ids removed at each peel, ascending within a level
    labels  -- labels[v] is the peel-order label of vertex v
    order   -- order[t] is the vertex holding label t
    ch      -- ch[v] lists the neighbors of v with smaller labels
    deg     -- degree of v in the tree
    """

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self.labels) - 1


def _leaf_peel(t: Graph):
    """Peel the leaves of the tree t through one FIFO queue.

    Returns (adj, order, parent, rounds): the neighbor lists, the peel
    order, parent[v] the one neighbor still unpeeled when v is peeled (0 for
    the last vertex) and rounds[v] the peel round of v, 0 for the leaves of t
    and one more than the round whose peel made v a leaf. Lists are indexed
    by vertex, entry 0 unused. The starting leaves are queued in ascending
    order. Raises NotATreeError unless t is a tree: a graph with k - 1 edges
    that is not a tree contains a cycle, and no vertex of a cycle is ever
    peeled.
    """
    k = t.vertex_count
    if k < 1 or t.edge_count != k - 1:
        raise NotATreeError(f"graph with {k} vertices and {t.edge_count} edges is not a tree")
    adj = list(map(t.neighbors, range(k + 1)))
    # rem[v] counts the unpeeled neighbors of v; peeling v sets it to 0, and
    # an unpeeled neighbor of v counts v, so its count is at least 1.
    rem = list(map(len, adj))
    parent = [0] * (k + 1)
    rounds = [0] * (k + 1)
    order = [v for v in range(1, k + 1) if rem[v] <= 1]
    for v in order:
        rem[v] = 0
        for u in adj[v]:
            if rem[u]:
                parent[v] = u
                rem[u] -= 1
                if rem[u] == 1:
                    rounds[u] = rounds[v] + 1
                    order.append(u)
                break
    if len(order) != k:
        raise NotATreeError(f"graph with {k} vertices and {k - 1} edges has a cycle")
    return adj, order, parent, rounds


def st_decompose(t: Graph) -> StDecomposition:
    """Peel leaves level by level and label vertices in peel order.

    The levels are the rounds of `_leaf_peel`. Within a level vertices keep
    ascending original-id order; any fixed within-level order yields the
    same count, this one makes runs reproducible. The final level is the
    tree's center (1 or 2 vertices). Raises NotATreeError unless t is a
    tree.
    """
    adj, peel, _, rounds = _leaf_peel(t)
    k = len(peel)
    levels = [[] for _ in range(rounds[peel[-1]] + 1)]
    for v in range(1, k + 1):
        levels[rounds[v]].append(v)
    order = [0]
    for level in levels:
        order += level
    labels = [0] * (k + 1)
    for label, v in enumerate(order):
        labels[v] = label
    ch = [()] + [tuple(u for u in adj[v] if labels[u] < labels[v]) for v in range(1, k + 1)]
    return StDecomposition(levels, labels, order, ch, list(map(len, adj)))


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


def tree_determinant(t: Graph, x: int) -> int:
    """det(x*I_k - L(T)) for the k-vertex tree t at any integer x, folded
    along one leaf peel.

    `_leaf_peel` gives the peel order and parents, so every vertex is
    evaluated after the subtrees hanging off it and folded into its parent,
    and the last vertex peeled is a center of T. Raises NotATreeError for
    non-tree input.
    """
    adj, order, parent, _ = _leaf_peel(t)
    # prod[v] and cross[v] are F(v) and the sum in D(v) over the children
    # folded into v so far; peeling v releases both, so only the live
    # frontier is kept. The root folds into the unused entry 0.
    prod = [1] * len(adj)
    cross = [0] * len(adj)
    for v in order:
        f_v, c_v = prod[v], cross[v]
        prod[v] = cross[v] = None
        d_v = (x - len(adj[v])) * f_v - c_v
        u = parent[v]
        cross[u] = cross[u] * d_v + f_v * prod[u]
        prod[u] *= d_v
    return d_v


def count_kn_minus_tree(problem: Problem) -> int:
    """Exact tau(K_n - T) for a tree subtrahend T, assembled from
    `tree_determinant` at x = n as `kncomp count` does. Raises
    NotATreeError for non-tree input."""
    return arith.tau_from_determinant(
        problem.n, problem.h.vertex_count, tree_determinant(problem.h, problem.n)
    )
