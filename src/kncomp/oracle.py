"""Ground-truth spanning-tree counts and seeded test-instance generators.

Two independent determinant oracles guard the engines: the classical
Laplacian-cofactor count on the explicit complement's n - 1 vertices, and
n^(n-p-2) * det(n*I - L(H)) on the subtrahend's p vertices. Both matrices
are symmetric, integer and positive semidefinite, so one elimination serves
both: fraction-free on the upper triangle with no row swaps, where a zero
pivot means the determinant is 0.
For tiny graphs an exhaustive subset enumerator provides a third,
arithmetic-free answer. The command line bounds each oracle's input:
ENUMERATION_LIMIT and KIRCHHOFF_LIMIT host vertices, CST_MATRIX_LIMIT
subtrahend vertices. An `auto` count that no engine takes falls back to
Kirchhoff within its limit and to cst-matrix above it.
"""

import random
from itertools import accumulate, chain, combinations

from .arith import tau_from_determinant
from .graph import Graph, Problem

__all__ = [
    "kirchhoff_count",
    "cst_matrix",
    "cst_matrix_count",
    "enumerate_count",
    "ENUMERATION_LIMIT",
    "KIRCHHOFF_LIMIT",
    "CST_MATRIX_LIMIT",
    "prufer_decode",
    "random_labeled_tree",
    "all_labeled_trees",
    "random_cent_layout",
    "graph_from_cent_layout",
    "random_qt_graph",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "caterpillar_graph",
    "csplit_layout",
    "csplit_graph",
    "all_graphs",
    "random_graph",
]


def _psd_determinant(m) -> int:
    """Determinant of a symmetric positive semidefinite integer matrix, read
    from its upper triangle, which the elimination overwrites. The empty
    matrix has determinant 1."""
    size = len(m)
    if size == 0:
        return 1
    # Bareiss without row swaps. Each step keeps the matrix symmetric, so
    # only the entries with c >= r are computed, and the pivot row's entry
    # top[r] stands in for row[col]. Until the first zero pivot every pivot
    # is a positive leading principal minor, and the remaining block is that
    # minor times the PSD Schur complement. A zero diagonal entry of a PSD
    # matrix means its whole row is zero, so a zero pivot means the
    # determinant is 0.
    prev = 1
    for col in range(size - 1):
        top = m[col]
        pivot = top[col]
        if pivot == 0:
            return 0
        for r in range(col + 1, size):
            row = m[r]
            head = top[r]
            for c in range(r, size):
                row[c] = (row[c] * pivot - head * top[c]) // prev
        prev = pivot
    return m[-1][-1]


def kirchhoff_count(g: Graph) -> int:
    """Spanning trees via the matrix-tree theorem.

    Deletes the last row and column of the integer Laplacian (any choice
    works; fixing one keeps runs deterministic) and evaluates the minor, which
    is positive semidefinite, by `_psd_determinant`. Returns 1 for a single
    vertex and 0 for any disconnected graph: its minor meets a zero pivot.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    size = n - 1
    m = [[0] * size for _ in range(size)]
    for v in range(1, n):
        row = m[v - 1]
        row[v - 1] = g.degree(v)
        for u in g.neighbors(v):
            if v < u < n:
                row[u - 1] = -1
    return _psd_determinant(m)


def cst_matrix(problem: Problem):
    """The p x p integer matrix n*I - L(h) on the p vertices of h: n - d_v on
    the diagonal, with d_v the degree of v in h, 1 exactly on the edges of h
    and 0 elsewhere. The count scales its determinant by n^(n-p-2), so the
    size does not grow with n."""
    n, h = problem.n, problem.h
    rows = [[0] * h.vertex_count for _ in h.vertices()]
    for v, row in zip(h.vertices(), rows):
        row[v - 1] = n - h.degree(v)
        for u in h.neighbors(v):
            row[u - 1] = 1
    return rows


def cst_matrix_count(problem: Problem) -> int:
    """Second oracle: tau(K_n - h) = n^(n-p-2) * det(n*I - L(h)).

    Every Laplacian eigenvalue of h is at most p <= n, so n*I - L(h) is
    positive semidefinite and `_psd_determinant` evaluates it, as it does
    Kirchhoff's minor. `tau_from_determinant` raises NonIntegerProductError
    when a negative power of n does not divide the determinant, which would
    signal a bug in the matrix or the elimination.
    """
    det = _psd_determinant(cst_matrix(problem))
    return tau_from_determinant(problem.n, problem.h.vertex_count, det)


ENUMERATION_LIMIT = 8
# Limits on each determinant oracle's matrix, from measured times (CPython
# 3.11, 2-vCPU VM). Kirchhoff's minor is (n - 1) x (n - 1) whatever H is:
# two disjoint edges take 1.8 s at n = 200, 4.7 s at n = 250 and 11.2 s at
# n = 300. cst-matrix's matrix is p x p at any n, and its entries grow with
# n: the elimination of a dense G(p, 0.5) takes 12 s at p = 200 and 37 s at
# p = 250 when n = 10^7, and a star, whose fill is the densest, 5.9 s at
# p = 200 when n = 10^5.
KIRCHHOFF_LIMIT = 250
CST_MATRIX_LIMIT = 200


def enumerate_count(g: Graph) -> int:
    """Count spanning trees by checking every (n-1)-edge subset.

    Guarded to at most ENUMERATION_LIMIT vertices; combinatorial blowup
    beyond that. Acyclicity of exactly n-1 edges implies spanning.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration guard: {n} vertices exceeds the limit of {ENUMERATION_LIMIT}"
        )
    if n == 1:
        return 1
    edges = g.edges()
    need = n - 1
    if len(edges) < need:
        return 0
    base = list(range(n + 1))
    parent = base[:]
    count = 0
    for comb in combinations(edges, need):
        parent[:] = base
        acyclic = True
        for u, v in comb:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                acyclic = False
                break
            parent[u] = v
        if acyclic:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Instance generators (all deterministic per seed)
# ---------------------------------------------------------------------------


def prufer_decode(seq, k: int) -> Graph:
    """Labeled tree on k vertices from a length k-2 sequence over 1..k."""
    if k < 1:
        raise ValueError("need at least one vertex")
    if k == 1:
        return Graph(1)
    seq = list(seq)
    if len(seq) != k - 2:
        raise ValueError(f"sequence length {len(seq)} != {k - 2}")
    degree = [1] * (k + 1)
    for x in seq:
        degree[x] += 1
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, k))
    return Graph(k, edges)


def random_labeled_tree(k: int, seed: int) -> Graph:
    """Uniformly random labeled tree on k vertices, deterministic per seed."""
    if k <= 2:
        return Graph(k, [(1, 2)] if k == 2 else [])
    rng = random.Random(seed)
    return prufer_decode([rng.randint(1, k) for _ in range(k - 2)], k)


def all_labeled_trees(k: int):
    """Every labeled tree on k vertices, via all k^(k-2) sequences."""
    if k <= 2:
        yield Graph(k, [(1, 2)] if k == 2 else [])
        return
    from itertools import product

    for seq in product(range(1, k + 1), repeat=k - 2):
        yield prufer_decode(seq, k)


def random_cent_layout(max_nodes: int, max_multiplicity: int, rng: random.Random):
    """Random rooted node-tree shape in which every internal node has at
    least two children, with per-node multiplicities.

    Returns (parents, mults), indexed by node id 1..k with entry 0 unused;
    parents[1] = 0 marks the root. Parents always precede children.
    """
    if max_nodes < 1:
        raise ValueError("need at least one node")
    target = rng.randint(1, max_nodes)
    parents = [0, 0]
    leaves = [1]
    while len(parents) + 1 <= target:
        node = leaves.pop(rng.randrange(len(leaves)))
        nchild = rng.randint(2, min(3, target - (len(parents) - 1)))
        for _ in range(nchild):
            parents.append(node)
            leaves.append(len(parents) - 1)
    mults = [0] + [rng.randint(1, max_multiplicity) for _ in range(len(parents) - 1)]
    return parents, mults


def graph_from_cent_layout(parents, mults) -> Graph:
    """Expand a node layout into its graph: each node's members form a
    clique and join completely with every ancestor's members.

    Members are numbered consecutively in node-id order, so the neighbors
    of a member of node i are the vertex runs of i's ancestors, i itself and
    i's descendants, taken in ascending node id, less the member. The
    one-member leaves under one parent share one row.
    """
    k = len(parents) - 1
    first = list(accumulate(mults[1:], initial=1))  # node i starts at first[i - 1]
    runs = [range(0), *map(range, first, first[1:])]
    below = {j: [] for j in set(parents)}  # descendants of each node with a child
    for i in range(1, k + 1):
        j = parents[i]
        while j:
            below[j].append(i)
            j = parents[j]
    shared = {}  # parent -> the row of its one-member leaves
    adj = [[]]
    for i in range(1, k + 1):
        single = mults[i] == 1 and i not in below
        if single and parents[i] in shared:
            adj.append(shared[parents[i]])
            continue
        nodes = [i, *below.get(i, ())]
        j = parents[i]
        while j:
            nodes.append(j)
            j = parents[j]
        nodes.sort()
        row = list(chain.from_iterable(map(runs.__getitem__, nodes)))
        at = row.index(first[i - 1])
        for pos in range(at, at + mults[i]):
            ns = row.copy()
            del ns[pos]
            adj.append(ns)
        if single:
            shared[parents[i]] = ns
    return Graph._from_lists(first[-1] - 1, adj)


def random_qt_graph(max_nodes: int, max_multiplicity: int, seed: int) -> Graph:
    """Seeded random connected quasi-threshold graph.

    Built by expanding a random layout, so the decomposition of the result
    reproduces the generating node tree up to member naming.
    """
    rng = random.Random(seed)
    return graph_from_cent_layout(*random_cent_layout(max_nodes, max_multiplicity, rng))


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(1, k)])


def star_graph(k: int) -> Graph:
    """Star with center 1 and k-1 leaves."""
    return Graph(k, [(1, i) for i in range(2, k + 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def caterpillar_graph(k: int) -> Graph:
    """Spine path on ceil(k/2) vertices with the rest attached as legs."""
    spine = (k + 1) // 2
    edges = [(i, i + 1) for i in range(1, spine)]
    edges.extend((i - spine, i) for i in range(spine + 1, k + 1))
    return Graph(k, edges)


def csplit_layout(size_k: int, size_s: int) -> tuple[list, list]:
    """Node layout (parents, mults) of the complete split graph with a
    clique of size_k vertices and an independent set of size_s: a root with
    size_k members and size_s children of one member each."""
    if size_k < 1 or size_s < 0:
        raise ValueError("clique part >= 1 and independent part >= 0 required")
    return [0, 0] + [1] * size_s, [0, size_k] + [1] * size_s


def csplit_graph(size_k: int, size_s: int) -> Graph:
    """Complete split graph: clique on 1..size_k joined to the independent
    set size_k+1..size_k+size_s, expanded from `csplit_layout`."""
    return graph_from_cent_layout(*csplit_layout(size_k, size_s))


def all_graphs(k: int):
    """Every labeled simple graph on k vertices (2^C(k,2) of them)."""
    pairs = list(combinations(range(1, k + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(k: int, rng: random.Random, edge_prob: float = 0.5) -> Graph:
    """Erdos-Renyi G(k, p) sample from the supplied generator."""
    edges = [e for e in combinations(range(1, k + 1), 2) if rng.random() < edge_prob]
    return Graph(k, edges)
