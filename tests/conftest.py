import random

from kncomp.graph import Graph
from kncomp.oracle import graph_from_cent_layout


def relabel(g: Graph, perm: dict) -> Graph:
    """Apply a vertex permutation (old id -> new id) to g."""
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def random_permutation(k: int, rng: random.Random) -> dict:
    targets = list(range(1, k + 1))
    rng.shuffle(targets)
    return {old: targets[old - 1] for old in range(1, k + 1)}


def check_node_tree(ct, q: Graph):
    """Assert that node tree `ct` expands back to q, with children labeled
    before their parent and no internal node with a single child."""
    nodes = ct.nodes[1:]
    expanded = graph_from_cent_layout(
        [0] + [node.parent for node in nodes], [0] + [node.multiplicity for node in nodes]
    )
    members = [v for node in nodes for v in node.members]
    assert sorted(members) == list(q.vertices()), "members must partition V(Q)"
    perm = dict(zip(range(1, len(members) + 1), members))
    assert relabel(expanded, perm) == q, "expansion must reproduce the input"
    assert ct.labels[1] == ct.node_count, "root must carry the last label"
    for i, node in enumerate(nodes, start=1):
        assert len(node.children) != 1, f"internal node {i} has a single child"
        if node.parent:
            assert ct.labels[i] < ct.labels[node.parent], (
                "children must precede their parent in label order"
            )
