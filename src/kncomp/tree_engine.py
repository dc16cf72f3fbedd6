"""Spanning trees of K_n minus a tree, in O(k) integer recursion steps.

Every count satisfies tau(K_n - T) = n^(n-k-2) * det(n*I_k - L(T)), where
L(T) is the Laplacian of the k-vertex tree T. Peeling T layer by layer
(removing all current leaves at once) and numbering the vertices level by
level produces a labeling in which every vertex has at most one neighbor
with a larger label, so the labels order the vertices from the leaves to a
root. Writing d_v for the degree of v in T and ch(v) for its neighbors with
smaller labels, the subtree determinants

    F(v) = prod(D(c) for c in ch(v))
    D(v) = (n - d_v) * F(v) - sum(F(c) * prod(D(c') for c' in ch(v), c' != c)
                                  for c in ch(v))

evaluated in ascending label order end at D(root) = det(n*I_k - L(T)).
`count_kn_minus_tree` uses this recursion: it never divides, so it has no
zero pivots, and the only division is the exact one by n^(k+2-n) when
k >= n - 1.

`st_function` is the paper's rational form of the same elimination. With
b = 1/n and a_i = 1 - d_i*b, the pivots

    L(i) = a_i - b^2 * sum(1 / L(j) for j in ch(i))

satisfy n * L(v) = D(v) / F(v), so tau(K_n - T) = n^(n-2) * L(1) * ... * L(k).
It runs in any field (exact rationals or a prime field), which `bench` and
the linear-work checks use. A zero L(j) is legal as a final value but
cannot appear in a denominator; that case raises ZeroPivotError.
"""

from dataclasses import dataclass

from .arith import ExactField, ZeroPivotError, tau_from_determinant
from .graph import Graph, Problem
from .graph import is_tree  # noqa: F401 -- unused; perfbench/test_tracing.py patches it here

__all__ = [
    "NotATreeError",
    "StDecomposition",
    "st_decompose",
    "st_function",
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
    `field` (exact rationals by default). Raises ZeroPivotError carrying
    the offending label when some L(j) = 0 is hit in a denominator.
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
            lu = values[labels[u]]
            if f.is_zero(lu):
                raise ZeroPivotError(labels[u])
            val = f.sub(val, f.div(b2, lu))
        values[t] = val
    return values


def count_kn_minus_tree(problem: Problem) -> int:
    """Exact tau(K_n - T) for a tree subtrahend T.

    Raises NotATreeError for non-tree input, and NonIntegerProductError if
    the final exact division leaves a remainder (an engine bug).
    """
    dec = st_decompose(problem.h)
    n, k = problem.n, dec.vertex_count
    order, ch, deg = dec.order, dec.ch, dec.deg
    # subtree[v] = (D(v), F(v)) until v's parent consumes it; each vertex has
    # one parent, so dropping consumed entries keeps only the live frontier.
    subtree = [None] * (k + 1)
    for t in range(1, k + 1):
        v = order[t]
        prod, cross = 1, 0
        for c in ch[v]:
            d_c, f_c = subtree[c]
            subtree[c] = None
            cross = cross * d_c + f_c * prod
            prod *= d_c
        subtree[v] = ((n - deg[v]) * prod - cross, prod)
    return tau_from_determinant(n, k, subtree[order[k]][0])
