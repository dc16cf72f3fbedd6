"""Spanning trees of K_n minus a quasi-threshold graph.

A connected graph Q with no induced 4-vertex path or 4-cycle peels into a
rooted node tree: the root node collects the universal vertices of Q, and
each remaining connected piece recursively contributes a child subtree.
Members of one node share identical closed neighborhoods; two vertices are
adjacent in Q exactly when their nodes coincide or sit on one root-to-leaf
chain. This decomposition exists (and the peeling succeeds) precisely for
quasi-threshold graphs, so the builder doubles as the recognizer.

The node tree is held as a node layout (`CentTree`): node i = 1..k has
parent parents[i] (0 for the root, node 1), multiplicity mults[i] and
member vertices members[i], with entry 0 of each list unused. Node ids
follow discovery order, so every parent precedes its children. The same
layout feeds `oracle.graph_from_cent_layout` and `random_cent_layout`.

Every count is tau(K_n - Q) = n^(n-p-2) * det(n*I_p - L(Q)) for the
p-vertex graph Q. This module evaluates the determinant; `cli` assembles
the count from it with `arith.tau_from_determinant`. Quasi-threshold graphs
are cographs, whose Laplacian spectra are integral (Merris 1998). With A_i
the number of vertices above node i, s_i the number in its subtree and p_i
its multiplicity, an internal node contributes p_i eigenvalues A_i + s_i
and (children - 1) eigenvalues A_i + p_i, a leaf p_i - 1 eigenvalues
A_i + p_i, and one eigenvalue is 0, so `layout_determinant` returns, in
integers and without pivots, at any integer x,

    det(x*I_p - L(Q)) = x * prod((x - mu)^mult over the nonzero spectrum).

A complete split graph (clique K joined to an independent set S) is the
quasi-threshold graph whose node tree is trivial: a root holding K and one
single-vertex leaf per vertex of S (`is_complete_split`). Its spectrum
gives det(n*I_p - L) = n * (n - |K|)^(|S|-1) * (n - p)^|K| with
p = |K| + |S|, the closed form
tau = n^(n-p-1) * (n - |K|)^(|S|-1) * (n - p)^|K|, and
`layout_determinant` evaluates it from that layout alone, with no graph
built.

The paper's rational recursion `cent_function`, which `bench` and the
acceptance checks run, evaluates children before parents (descending node
id; the paper's leaf-peel numbering is another such order, and no value
depends on which). It writes b = 1/n and, for node i with multiplicity
p_i and member degree d_i = A_i + s_i - 1,

    a_i     = 1 - d_i * b
    sigma_i = (a_i + (p_i - 1) * b) / p_i.

Eliminating the within-node blocks and the couplings to non-parent
ancestors leaves a tree-structured system with diagonal a'_i and
parent-child coupling b'_i:

    a'_i = sigma_i                                 if node i is a leaf
    a'_i = sigma_i + sum(sigma_j - 2b
                         for internal children j)  otherwise
    b'_i = b        for leaves,   b - sigma_i      otherwise

    phi_i = a'_i - sum(b'_j ** 2 / phi_j for children j)

and `cent_tau` assembles the count as

    tau(K_n - Q) = n^(n+k-p-2) * prod(p_i * (n - d_i - 1)^(p_i - 1) * phi_i).
"""

from collections import Counter, deque, namedtuple

from .arith import ExactField
from .graph import Graph, is_connected

__all__ = [
    "NotQuasiThresholdError",
    "CentTree",
    "is_complete_split",
    "recognize_and_build_cent_tree",
    "CentFunctionValues",
    "cent_function",
    "cent_tau",
    "layout_determinant",
]


class NotQuasiThresholdError(ValueError):
    """Some connected piece has no universal vertex (an induced P4 or C4 exists).

    `witness` holds the vertex set of the offending piece.
    """

    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(f"component {self.witness} has no universal vertex")


class CentTree(namedtuple("CentTree", "parents mults members")):
    """Universal-vertex decomposition of a connected quasi-threshold graph,
    as a node layout; every list is indexed by node id, entry 0 unused.

    Node ids follow discovery order: the root is node 1, then breadth-first
    with sibling pieces ordered by smallest member vertex.

    parents  -- parent node id, 0 for the root
    mults    -- multiplicity: the number of member vertices
    members  -- member vertices, ascending
    """

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return sum(self.mults)

    @property
    def node_count(self) -> int:
        return len(self.parents) - 1


def is_complete_split(parents, mults) -> bool:
    """True when a node layout is that of a complete split graph: every node
    other than the root is a child of the root holding one vertex (or the
    root is the only node)."""
    return all(p == 1 and m == 1 for p, m in zip(parents[2:], mults[2:]))


def recognize_and_build_cent_tree(q: Graph) -> CentTree:
    """Build the decomposition of q, or prove q is not quasi-threshold.

    q must be connected; a disconnected subtrahend is counted by a
    determinant oracle instead. Raises NotQuasiThresholdError with a
    witness piece when the peeling stalls, and ValueError when q is
    disconnected. Connectivity is checked only when the whole graph has no
    universal vertex, which every disconnected graph with p >= 2 lacks.

    The peel guarantees the tree's invariants by construction: members of a
    node are universal in their piece, so they share one degree; a piece
    whose rest is connected has no universal vertex, so no internal node has
    a single child; and the pieces partition V(q). Complete split graphs come
    out as the trivial tree that `is_complete_split` tests for.
    """
    p = q.vertex_count
    if p < 1:
        raise ValueError("graph must have at least one vertex")

    # Degree of each vertex inside its current piece. Removing a universal
    # set C from a piece lowers every survivor's inner degree by |C|.
    inner_deg = [0] * (p + 1)
    for v in q.vertices():
        inner_deg[v] = q.degree(v)

    ct = CentTree([0], [0], [()])
    queue = deque([(list(q.vertices()), 0)])
    while queue:
        piece, parent = queue.popleft()
        size = len(piece)
        cent = tuple(v for v in piece if inner_deg[v] == size - 1)
        if not cent:
            if not parent and not is_connected(q):
                raise ValueError(
                    "graph is disconnected; this decomposition needs a connected input "
                    "(count disconnected subtrahends with a determinant oracle)"
                )
            raise NotQuasiThresholdError(piece)
        ct.parents.append(parent)
        ct.mults.append(len(cent))
        ct.members.append(cent)
        if len(cent) == size:
            continue
        rest = set(piece).difference(cent)
        for v in rest:
            inner_deg[v] -= len(cent)
        queue.extend((part, ct.node_count) for part in _pieces(q, rest, inner_deg))
    return ct


def _pieces(q: Graph, rest: set, inner_deg: list) -> list:
    """Connected components of the subgraph induced by `rest` as sorted
    lists, ordered by smallest member; inner_deg[v] is v's degree in `rest`.

    The largest piece needs no search: in a quasi-threshold graph the vertex
    w of largest inner degree is universal in it, so it is rest & N[w]. Only
    the other pieces, each at most half of `rest`, are searched, so each
    adjacency is scanned O(log p) times in all. A search that touches w's
    piece joins it, which keeps the result exact for any graph.
    """
    w = max(rest, key=inner_deg.__getitem__)
    big = rest.intersection(q.neighbors(w))
    big.add(w)
    pending = rest - big
    parts = []
    while pending:
        start = pending.pop()
        comp = [start]
        stack = [start]
        while stack:
            found = pending.intersection(q.neighbors(stack.pop()))
            pending -= found
            comp += found
            stack += found
        if any(not big.isdisjoint(q.neighbors(v)) for v in comp):
            big.update(comp)
        else:
            parts.append(sorted(comp))
    parts.append(sorted(big))
    parts.sort()
    return parts


def _shape(parents, mults) -> tuple:
    """(children, above, mass) of a node layout, each indexed by node id:
    children[i] lists node i's children ascending, above[i] is A_i and
    mass[i] is s_i. Entry 0 of both arguments must be 0."""
    k = len(parents) - 1
    children = [[] for _ in range(k + 1)]
    above = [0] * (k + 1)
    for i in range(2, k + 1):
        j = parents[i]
        children[j].append(i)
        above[i] = above[j] + mults[j]
    mass = list(mults)
    for i in range(k, 1, -1):
        mass[parents[i]] += mass[i]
    return children, above, mass


class CentFunctionValues(namedtuple("CentFunctionValues", "sigma phi")):
    """Per-node recursion values, indexed by node id (entry 0 unused)."""

    __slots__ = ()


def cent_function(ct: CentTree, n: int, field=None) -> CentFunctionValues:
    """Evaluate sigma, a', b', phi children first, in descending node id.

    Raises ZeroDivisionError when some phi_j = 0 is hit in a denominator,
    and ValueError when n < p.
    """
    if n < ct.vertex_count:
        raise ValueError(f"host size {n} smaller than graph size {ct.vertex_count}")
    f = field if field is not None else ExactField()
    one = f.from_int(1)
    b = f.div(one, f.from_int(n))
    two_b = f.add(b, b)
    children, above, mass = _shape(ct.parents, ct.mults)
    k = ct.node_count
    sigma = [None] * (k + 1)
    b_adj = [None] * (k + 1)
    phi = [None] * (k + 1)
    for i in range(k, 0, -1):
        p_i = ct.mults[i]
        a = f.sub(one, f.mul(f.from_int(above[i] + mass[i] - 1), b))
        if p_i == 1:
            s = a
        else:
            s = f.div(f.add(a, f.mul(f.from_int(p_i - 1), b)), f.from_int(p_i))
        sigma[i] = s
        if not children[i]:
            b_adj[i] = b
            phi[i] = s
            continue
        ph = s  # a'_i, then phi_i
        for c in children[i]:
            if children[c]:
                ph = f.add(ph, f.sub(sigma[c], two_b))
        for c in children[i]:
            ph = f.sub(ph, f.div(f.mul(b_adj[c], b_adj[c]), phi[c]))
        b_adj[i] = f.sub(b, s)
        phi[i] = ph
    return CentFunctionValues(sigma, phi)


def cent_tau(ct: CentTree, n: int, field=None):
    """tau(K_n - Q) from `cent_function` as the paper assembles it,
    n^(n+k-p-2) * prod(p_i * (n - d_i - 1)^(p_i - 1) * phi_i), as an element
    of `field` (exact rationals by default)."""
    f = field if field is not None else ExactField()
    phi = cent_function(ct, n, f).phi
    _, above, mass = _shape(ct.parents, ct.mults)
    total = f.ipow(n, n + ct.node_count - ct.vertex_count - 2)
    for i in range(1, ct.node_count + 1):
        p_i = ct.mults[i]
        total = f.mul(total, f.from_int(p_i * (n - above[i] - mass[i]) ** (p_i - 1)))
        total = f.mul(total, phi[i])
    return total


def layout_determinant(parents, mults, x: int) -> int:
    """det(x*I_p - L(Q)) at any integer x from the Laplacian spectrum of
    Q's node tree.

    Node i = 1..k has parent parents[i] (root 1 has parent 0, parents come
    before children) and multiplicity mults[i]; both lists hold 0 at index 0.
    A leaf is a node with no children and s_i = p_i, so one rule serves both.
    """
    children, above, mass = _shape(parents, mults)
    spectrum = Counter()
    for i in range(1, len(parents)):
        spectrum[above[i] + mass[i]] += mults[i]
        spectrum[above[i] + mults[i]] += len(children[i]) - 1
    det = x  # the eigenvalue 0
    for mu, mult in spectrum.items():
        det *= (x - mu) ** mult
    return det
