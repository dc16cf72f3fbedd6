"""Spanning trees of K_n minus a quasi-threshold graph.

A connected graph Q with no induced 4-vertex path or 4-cycle peels into a
rooted node tree: the root node collects the universal vertices of Q, and
each remaining connected piece recursively contributes a child subtree.
Members of one node share identical closed neighborhoods; two vertices are
adjacent in Q exactly when their nodes coincide or sit on one root-to-leaf
chain. This decomposition exists (and the peeling succeeds) precisely for
quasi-threshold graphs, so the builder doubles as the recognizer.

Every count is tau(K_n - Q) = n^(n-p-2) * det(n*I_p - L(Q)) for the
p-vertex graph Q. Quasi-threshold graphs are cographs, whose Laplacian
spectra are integral (Merris 1998). With A_i the number of vertices above
node i, s_i the number in its subtree and p_i its multiplicity, an
internal node contributes p_i eigenvalues A_i + s_i and (children - 1)
eigenvalues A_i + p_i, a leaf p_i - 1 eigenvalues A_i + p_i, and one
eigenvalue is 0, so `count_kn_minus_qt` returns, in integers and without
pivots,

    tau(K_n - Q) = n^(n-p-1) * prod((n - mu)^mult over the nonzero spectrum).

A complete split graph (clique K joined to an independent set S) is the
quasi-threshold graph whose node tree is trivial: a root holding K and one
single-vertex leaf per vertex of S (`CentTree.is_complete_split`). Its
spectrum reproduces the closed form
tau = n^(n-p-1) * (n - |K|)^(|S|-1) * (n - p)^|K| with p = |K| + |S|, which
`count_kn_minus_csplit` evaluates from the sizes alone.

The paper's rational recursion `cent_function`, which `bench` and the
acceptance checks run, numbers the k nodes so that children always precede
parents (leaf-peel levels of the node tree), writes b = 1/n and, for node i
with multiplicity p_i and member degree d_i,

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

and the count assembles as

    tau(K_n - Q) = n^(n+k-p-2) * prod(p_i * (n - d_i - 1)^(p_i - 1) * phi_i).
"""

from collections import Counter, deque
from dataclasses import dataclass

from .arith import ExactField, tau_from_determinant
from .graph import Graph, Problem, check_host_size, is_connected

__all__ = [
    "NotQuasiThresholdError",
    "CentNode",
    "CentTree",
    "recognize_and_build_cent_tree",
    "CentFunctionValues",
    "cent_function",
    "count_cent_tree",
    "count_kn_minus_qt",
    "count_kn_minus_csplit",
]


class NotQuasiThresholdError(ValueError):
    """Some connected piece has no universal vertex (an induced P4 or C4 exists).

    `witness` holds the vertex set of the offending piece.
    """

    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(f"component {self.witness} has no universal vertex")


@dataclass
class CentNode:
    """One node of the decomposition; `degree` is the degree in Q shared by
    every member vertex."""

    members: tuple
    parent: int  # parent node id, 0 for the root
    children: tuple
    degree: int

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass
class CentTree:
    """Universal-vertex decomposition of a connected quasi-threshold graph.

    Node ids follow discovery order (root is node 1, then breadth-first
    with sibling pieces ordered by smallest member vertex). Labels follow
    leaf-peel levels of the node tree, so children always carry smaller
    labels than their parent and the root carries label k.
    """

    vertex_count: int
    nodes: list  # nodes[0] unused; node id i -> nodes[i]
    levels: list  # node ids grouped by height, ascending creation order within
    labels: list  # labels[node_id] -> 1..k  ([0] unused)
    order: list  # order[label] -> node_id  ([0] unused)

    @property
    def node_count(self) -> int:
        return len(self.nodes) - 1

    @property
    def is_complete_split(self) -> bool:
        """True when the graph is complete split: every node other than the
        root is a leaf holding one vertex (or the root is the only node)."""
        return all(not node.children and node.multiplicity == 1 for node in self.nodes[2:])


def recognize_and_build_cent_tree(q: Graph) -> CentTree:
    """Build the decomposition of q, or prove q is not quasi-threshold.

    q must be connected; for disconnected subtrahends use the determinant
    oracles component-free instead. Raises NotQuasiThresholdError with a
    witness piece when the peeling stalls, and ValueError when q is
    disconnected. Connectivity is checked only when the whole graph has no
    universal vertex, which every disconnected graph with p >= 2 lacks.

    The peel guarantees the tree's invariants by construction: members of a
    node are universal in their piece, so they share one degree; a piece
    whose rest is connected has no universal vertex, so no internal node has
    a single child; and the pieces partition V(q). Complete split graphs come
    out as the trivial tree that `CentTree.is_complete_split` tests for.
    """
    p = q.vertex_count
    if p < 1:
        raise ValueError("graph must have at least one vertex")

    # Degree of each vertex inside its current piece. Removing a universal
    # set C from a piece lowers every survivor's inner degree by |C|.
    inner_deg = [0] * (p + 1)
    for v in q.vertices():
        inner_deg[v] = q.degree(v)

    members_by_node = [()]
    parents = [0]
    queue = deque()
    queue.append((tuple(q.vertices()), 0))
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
        members_by_node.append(cent)
        parents.append(parent)
        node_id = len(members_by_node) - 1
        if len(cent) == size:
            continue
        rest = set(piece).difference(cent)
        for v in rest:
            inner_deg[v] -= len(cent)
        for part in _components_within(q, rest):
            queue.append((part, node_id))

    k = len(members_by_node) - 1
    children = [[] for _ in range(k + 1)]
    for i in range(2, k + 1):
        children[parents[i]].append(i)

    nodes = [None]
    for i in range(1, k + 1):
        mem = members_by_node[i]
        nodes.append(
            CentNode(
                members=mem,
                parent=parents[i],
                children=tuple(children[i]),
                degree=q.degree(mem[0]),
            )
        )

    # Leaf-peel levels of the node tree = grouping by height; children are
    # always created after their parent, so one reverse sweep suffices.
    height = [0] * (k + 1)
    for i in range(k, 0, -1):
        if children[i]:
            height[i] = 1 + max(height[c] for c in children[i])
    levels = [[] for _ in range(max(height[1:]) + 1)]
    for i in range(1, k + 1):
        levels[height[i]].append(i)
    labels = [0] * (k + 1)
    order = [0] * (k + 1)
    label = 0
    for level in levels:
        for i in level:
            label += 1
            labels[i] = label
            order[label] = i

    return CentTree(p, nodes, levels, labels, order)


def _components_within(q: Graph, active: set):
    """Connected components of the subgraph induced by `active`, each as a
    sorted tuple, ordered by smallest member."""
    pending = set(active)
    parts = []
    # Starting from each unreached vertex in ascending order makes every
    # start the smallest member of its component, so parts come out sorted.
    for start in sorted(active):
        if start not in pending:
            continue
        pending.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for u in q.neighbors(v):
                if u in pending:
                    pending.discard(u)
                    comp.append(u)
                    stack.append(u)
        parts.append(tuple(sorted(comp)))
    return parts


@dataclass
class CentFunctionValues:
    """Per-node recursion values, indexed by node label (entry 0 unused)."""

    sigma: list
    a_adj: list
    b_adj: list
    phi: list


def cent_function(ct: CentTree, n: int, field=None) -> CentFunctionValues:
    """Evaluate sigma, a', b', phi in ascending node-label order.

    Raises ZeroDivisionError when some phi_j = 0 is hit in a denominator,
    and ValueError when n < p.
    """
    if n < ct.vertex_count:
        raise ValueError(f"host size {n} smaller than graph size {ct.vertex_count}")
    f = field if field is not None else ExactField()
    one = f.from_int(1)
    b = f.div(one, f.from_int(n))
    two_b = f.add(b, b)
    k = ct.node_count
    sigma = [None] * (k + 1)
    a_adj = [None] * (k + 1)
    b_adj = [None] * (k + 1)
    phi = [None] * (k + 1)
    for t in range(1, k + 1):
        node = ct.nodes[ct.order[t]]
        p_i = node.multiplicity
        a = f.sub(one, f.mul(f.from_int(node.degree), b))
        if p_i == 1:
            s = a
        else:
            s = f.div(f.add(a, f.mul(f.from_int(p_i - 1), b)), f.from_int(p_i))
        sigma[t] = s
        if not node.children:
            a_adj[t] = s
            b_adj[t] = b
            phi[t] = s
            continue
        aa = s
        for c in node.children:
            if ct.nodes[c].children:
                aa = f.add(aa, f.sub(sigma[ct.labels[c]], two_b))
        a_adj[t] = aa
        b_adj[t] = f.sub(b, s)
        ph = aa
        for c in node.children:
            tc = ct.labels[c]
            bj = b_adj[tc]
            ph = f.sub(ph, f.div(f.mul(bj, bj), phi[tc]))
        phi[t] = ph
    return CentFunctionValues(sigma, a_adj, b_adj, phi)


def _layout_count(parents, mults, n: int) -> int:
    """Exact tau(K_n - Q) from the Laplacian spectrum of Q's node tree.

    Node i = 1..k has parent parents[i] (root 1 has parent 0, parents come
    before children) and multiplicity mults[i]; both lists hold 0 at index 0.
    A leaf is a node with no children and s_i = p_i, so one rule serves both.
    """
    k = len(parents) - 1
    mass = list(mults)
    children = [0] * (k + 1)
    for i in range(k, 1, -1):
        mass[parents[i]] += mass[i]
        children[parents[i]] += 1
    above = [0] * (k + 1)
    spectrum = Counter()
    for i in range(1, k + 1):
        above[i] = above[parents[i]] + mults[parents[i]]
        spectrum[above[i] + mass[i]] += mults[i]
        spectrum[above[i] + mults[i]] += children[i] - 1
    det = n  # the eigenvalue 0
    for mu, mult in spectrum.items():
        det *= (n - mu) ** mult
    return tau_from_determinant(n, mass[1], det)


def count_cent_tree(ct: CentTree, n: int) -> int:
    """Exact tau(K_n - Q) for the quasi-threshold graph Q with node tree ct."""
    nodes = ct.nodes[1:]
    parents = [0] + [node.parent for node in nodes]
    mults = [0] + [node.multiplicity for node in nodes]
    return _layout_count(parents, mults, n)


def count_kn_minus_qt(problem: Problem) -> int:
    """Exact tau(K_n - Q) for a connected quasi-threshold subtrahend Q.

    Raises NotQuasiThresholdError when Q is not quasi-threshold and
    ValueError when Q is disconnected.
    """
    return count_cent_tree(recognize_and_build_cent_tree(problem.h), problem.n)


def count_kn_minus_csplit(n: int, size_k: int, size_s: int) -> int:
    """Exact tau(K_n - H) for the complete split graph with clique part of
    size_k vertices and independent part of size_s vertices."""
    if size_k < 1:
        raise ValueError("clique part needs at least one vertex")
    if size_s < 0:
        raise ValueError(f"negative independent-part size {size_s}")
    check_host_size(n, size_k + size_s)
    return _layout_count([0, 0] + [1] * size_s, [0, size_k] + [1] * size_s, n)
