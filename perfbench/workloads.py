"""Seeded inputs of the three workloads, built with kncomp's own generators.

Each workload is one round of instances that the closed loop repeats. A
round is a list of (subtrahend, host size, class) whose sizes follow a fixed
ladder; the seed picks each graph, its labels and a small host-size slack,
so the mix of work in a round is the same for every seed while the inputs
differ. Rounds have an odd number of inputs, so the median count falls
inside one input's cluster of times rather than in the gap between two.

`write_round` writes the edge lists and a manifest; the manifest keeps what
the independent checker needs (host size, class, and the node layout of
quasi-threshold inputs), never a Graph.
"""

import json
import math
import random
from itertools import combinations

from kncomp import oracle
from kncomp.graph import Graph, is_connected, serialize_edge_list

# tree-sparse: n = k + (0..10) stays below 1300, so tau has fewer than the
# 4300 decimal digits at which rendering it fails.
TREE_RANDOM = 36
TREE_K = (900, 1250)
TREE_PATHS = 3
TREE_CATERPILLARS = 2
TREE_TAIL_K = 1200
TREE_SLACK = 10

# qt-dense: node layouts with p in [1100, 1200] and m on a geometric ladder.
QT_LAYOUTS = 11
QT_P = (1100, 1200)
QT_M = (12_000, 100_000)
QT_CSPLIT_M = (20_000, 50_000)
QT_SLACK = 50
QT_GROUP = 20  # vertices per child of the root, on average
QT_NODES_PER_GROUP = 4

# fallback: p <= 20 and n in [50, 90]; five kinds of subtrahend, five of each.
FALLBACK_KINDS = ("matching", "forest", "qt-union", "cycle", "random")
FALLBACK_PER_KIND = 5
FALLBACK_P = (12, 20)
FALLBACK_N = (50, 90)


def _ladder(lo, hi, count):
    """The midpoints of `count` equal strata of [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def _relabel(g: Graph, rng) -> Graph:
    perm = list(range(1, g.vertex_count + 1))
    rng.shuffle(perm)
    return Graph(g.vertex_count, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def _union(pieces) -> Graph:
    """Disjoint union, numbering each piece after the ones before it."""
    edges, offset = [], 0
    for g in pieces:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.vertex_count
    return Graph(offset, edges)


def tree_sparse(rng):
    for k in _ladder(*TREE_K, TREE_RANDOM):
        k = round(k)
        tree = oracle.random_labeled_tree(k, rng.getrandbits(32))
        yield tree, k + rng.randint(0, TREE_SLACK), "tree", None
    for make, count in ((oracle.path_graph, TREE_PATHS), (oracle.caterpillar_graph, TREE_CATERPILLARS)):
        for _ in range(count):
            tree = _relabel(make(TREE_TAIL_K), rng)
            yield tree, TREE_TAIL_K + rng.randint(0, TREE_SLACK), "tree", None


def _layout_edges(parents, mults) -> int:
    above = [0] * len(parents)
    m = 0
    for i in range(1, len(parents)):
        above[i] = above[parents[i]] + mults[parents[i]] if parents[i] else 0
        m += mults[i] * (mults[i] - 1) // 2 + mults[i] * above[i]
    return m


def _random_shape(rng, root_children, node_count):
    """Parents of a random node tree whose root has `root_children` children
    and whose other internal nodes have two or three; parents precede
    children. At least one root child is expanded, so the root has a
    grandchild and the expanded graph is never a complete split graph."""
    parents = [0, 0] + [1] * root_children
    leaves = list(range(2, root_children + 2))
    while len(parents) - 1 < max(node_count, root_children + 3):
        grow = leaves.pop(rng.randrange(len(leaves)))
        for _ in range(rng.randint(2, 3)):
            parents.append(grow)
            leaves.append(len(parents) - 1)
    return parents


def _spread(total, weights):
    """Split `total` into positive integers roughly proportional to weights."""
    scale = (total - len(weights)) / sum(weights)
    parts = [1 + int(w * scale) for w in weights]
    for i in range(total - sum(parts)):
        parts[i % len(parts)] += 1
    return parts


def qt_layout(rng, p, m_target):
    """A node layout with p vertices and about m_target edges (within 3%).

    The root has p // 20 children, and the tree has four nodes per root
    child, so every layout has the same kind of shape; the relative sizes
    of the non-root nodes are random. The root's multiplicity is then chosen
    by bisection, since moving vertices into the root only adds edges.
    """
    root_children = p // QT_GROUP
    while True:
        parents = _random_shape(rng, root_children, QT_NODES_PER_GROUP * root_children)
        weights = [rng.uniform(0.3, 3.0) for _ in parents[2:]]

        def layout(root):
            return parents, [0, root] + _spread(p - root, weights)

        lo, hi = 1, p - len(weights)
        if not _layout_edges(*layout(lo)) <= m_target <= _layout_edges(*layout(hi)):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _layout_edges(*layout(mid)) <= m_target:
                lo = mid
            else:
                hi = mid
        candidate = layout(lo)
        if abs(_layout_edges(*candidate) - m_target) <= 0.03 * m_target:
            return candidate


def qt_dense(rng):
    m_lo, m_hi = QT_M
    for step in _ladder(0.0, 1.0, QT_LAYOUTS):
        p = rng.randint(*QT_P)
        parents, mults = qt_layout(rng, p, round(m_lo * (m_hi / m_lo) ** step))
        graph = oracle.graph_from_cent_layout(parents, mults)
        yield graph, p + rng.randint(1, QT_SLACK), "qt", (parents, mults)
    for m_target in QT_CSPLIT_M:
        p = rng.randint(*QT_P)
        # Clique K and independent set S = p - K with K*S + C(K, 2) = m.
        size_k = round(((2 * p - 1) - math.sqrt((2 * p - 1) ** 2 - 8 * m_target)) / 2)
        size_s = p - size_k
        layout = ([0, 0] + [1] * size_s, [0, size_k] + [1] * size_s)
        graph = oracle.csplit_graph(size_k, size_s)
        yield graph, p + rng.randint(1, QT_SLACK), "csplit", layout


def _quasi_threshold(g: Graph) -> bool:
    """No 4 vertices induce a P4 (degrees 1, 1, 2, 2) or a C4 (2, 2, 2, 2)."""
    adj = [set(g.neighbors(v)) for v in range(g.vertex_count + 1)]
    for quad in combinations(g.vertices(), 4):
        degs = sorted(sum(1 for u in quad if u in adj[v]) for v in quad)
        if degs in ([1, 1, 2, 2], [2, 2, 2, 2]):
            return False
    return True


def _fallback_graph(kind, p, rng) -> Graph:
    if kind == "matching":
        p -= p % 2
        perm = list(range(1, p + 1))
        rng.shuffle(perm)
        return Graph(p, list(zip(perm[0::2], perm[1::2])))
    if kind == "forest":
        cuts = sorted(rng.sample(range(2, p - 1, 2), rng.randint(1, 3)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [p])]
        return _union(oracle.random_labeled_tree(s, rng.getrandbits(32)) for s in sizes)
    if kind == "qt-union":
        while True:
            pieces = [
                oracle.graph_from_cent_layout(*oracle.random_cent_layout(4, 3, rng))
                for _ in range(rng.randint(2, 3))
            ]
            if 2 <= sum(g.vertex_count for g in pieces) <= FALLBACK_P[1]:
                return _union(pieces)
    if kind == "cycle":
        return _relabel(oracle.cycle_graph(p), rng)
    # Random graphs no engine accepts: disconnected, or connected and
    # neither a tree nor quasi-threshold.
    while True:
        g = oracle.random_graph(p, rng, 0.3)
        if not is_connected(g) or (g.edge_count != p - 1 and not _quasi_threshold(g)):
            return g


def fallback(rng):
    n_values = [round(n) for n in _ladder(*FALLBACK_N, len(FALLBACK_KINDS) * FALLBACK_PER_KIND)]
    rng.shuffle(n_values)
    n_values = iter(n_values)
    for kind in FALLBACK_KINDS:
        for _ in range(FALLBACK_PER_KIND):
            graph = _fallback_graph(kind, rng.randint(*FALLBACK_P), rng)
            yield graph, next(n_values), "fallback", None


GENERATORS = {"tree-sparse": tree_sparse, "qt-dense": qt_dense, "fallback": fallback}


def write_round(workload: str, seed: int, directory) -> list:
    """Write one round of `workload`'s inputs for `seed` under `directory`
    (a pathlib.Path) and its manifest; returns the manifest entries.

    The round's order is shuffled once per seed, so the slow minority is
    spread through the round.
    """
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, (graph, n, cls, layout) in enumerate(GENERATORS[workload](rng)):
        name = f"h{index:02d}.el"
        (directory / name).write_text(serialize_edge_list(graph), encoding="utf-8")
        entries.append({"file": name, "n": n, "class": cls, "layout": layout})
    rng.shuffle(entries)
    (directory / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    return entries
