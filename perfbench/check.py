"""Spanning-tree counts of K_n - H computed without kncomp.

Every count satisfies

    tau(K_n - H) = n^(n-p-2) * det(n*I_p - L(H)),     p = |V(H)|,

where L(H) is the Laplacian of H. The checker evaluates that determinant
with its own code, in the way that suits the class the benchmark generated
the input in:

- trees: an integer leaf-to-root recursion over subtree determinants;
- quasi-threshold graphs (complete split graphs included): the Laplacian
  spectrum of the generating node layout, which is integral for cographs;
- anything else with p <= 20: fraction-free elimination of the p x p matrix.

It also requires the method kncomp reports to be the one the input's class
routes to, so a silent fallback to the Kirchhoff oracle counts as wrong.
"""

from collections import Counter

EXPECTED_METHOD = {"tree": "tree", "qt": "qt", "csplit": "csplit", "fallback": "kirchhoff"}
DENSE_LIMIT = 20


def read_edge_list(path):
    """(p, edges) from an edge-list file: header "p m", then m lines "u v"."""
    with open(path, encoding="utf-8") as fh:
        numbers = [int(tok) for tok in fh.read().split()]
    p, m = numbers[0], numbers[1]
    flat = numbers[2:]
    if len(flat) != 2 * m:
        raise ValueError(f"{path}: header promises {m} edges, file holds {len(flat) / 2}")
    return p, list(zip(flat[0::2], flat[1::2]))


def tau_from_determinant(n: int, p: int, det: int) -> int:
    """n^(n-p-2) * det, exact; a negative power must divide det."""
    exp = n - p - 2
    if exp >= 0:
        return n**exp * det
    tau, rest = divmod(det, n**-exp)
    if rest:
        raise ArithmeticError(f"det(nI - L) = {det} is not divisible by n^{-exp}")
    return tau


def tree_determinant(p: int, edges, n: int) -> int:
    """det(n*I - L(T)) for a tree T on 1..p, by a division-free recursion.

    Rooting T at vertex 1, let D_v be the determinant of the block of the
    subtree under v and F_v = prod(D_c for children c) that of the subtree
    with v deleted. Expanding along v's row (off-diagonal entries are +1 on
    the tree's edges) gives

        D_v = (n - d_v) * F_v - sum_c F_c * prod(D_c' for c' != c).
    """
    if len(edges) != p - 1:
        raise ValueError(f"a tree on {p} vertices has {p - 1} edges, got {len(edges)}")
    adj = [[] for _ in range(p + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * (p + 1)
    parent[1] = -1
    order = [1]
    for v in order:
        for u in adj[v]:
            if parent[u] == 0:
                parent[u] = v
                order.append(u)
    if len(order) != p:
        raise ValueError("edge list is not connected")
    det = [0] * (p + 1)
    minor = [0] * (p + 1)
    # Fold the children of each vertex: prod_d = prod D_c, cross = the sum term.
    prod_d = [1] * (p + 1)
    cross = [0] * (p + 1)
    for v in reversed(order):
        minor[v] = prod_d[v]
        det[v] = (n - len(adj[v])) * prod_d[v] - cross[v]
        up = parent[v]
        if up > 0:
            cross[up] = cross[up] * det[v] + minor[v] * prod_d[up]
            prod_d[up] *= det[v]
    return det[1]


def layout_spectrum(parents, mults) -> Counter:
    """Nonzero Laplacian eigenvalues, with multiplicities, of the graph whose
    node layout is (parents, mults): node i holds mults[i] vertices forming a
    clique that is joined completely to every ancestor's vertices.

    With A_i the vertex mass above node i and s_i the mass of its subtree, an
    internal node contributes mults[i] copies of A_i + s_i and
    (children - 1) copies of A_i + mults[i]; a leaf contributes
    mults[i] - 1 copies of A_i + mults[i]. The root adds the single 0.
    """
    k = len(parents) - 1
    children = [[] for _ in range(k + 1)]
    roots = []
    for i in range(1, k + 1):
        (children[parents[i]] if parents[i] else roots).append(i)
    if len(roots) != 1:
        raise ValueError(f"layout has {len(roots)} roots")
    order = roots[:]
    for i in order:
        order.extend(children[i])
    above = [0] * (k + 1)
    for i in order:
        for c in children[i]:
            above[c] = above[i] + mults[i]
    mass = mults[:]
    for i in reversed(order):
        if parents[i]:
            mass[parents[i]] += mass[i]
    spectrum = Counter()
    for i in order:
        if children[i]:
            spectrum[above[i] + mass[i]] += mults[i]
            spectrum[above[i] + mults[i]] += len(children[i]) - 1
        else:
            spectrum[above[i] + mults[i]] += mults[i] - 1
    return +spectrum


def layout_determinant(parents, mults, n: int) -> int:
    """det(n*I - L) = n * prod((n - mu)^mult) over the nonzero spectrum."""
    det = n
    for mu, mult in layout_spectrum(parents, mults).items():
        det *= (n - mu) ** mult
    return det


def dense_determinant(p: int, edges, n: int) -> int:
    """det(n*I - L(H)) by Bareiss elimination; every division is exact."""
    if p > DENSE_LIMIT:
        raise ValueError(f"dense elimination is limited to {DENSE_LIMIT} vertices, got {p}")
    m = [[0] * p for _ in range(p)]
    for i in range(p):
        m[i][i] = n
    for u, v in edges:
        m[u - 1][v - 1] += 1
        m[v - 1][u - 1] += 1
        m[u - 1][u - 1] -= 1
        m[v - 1][v - 1] -= 1
    sign, prev = 1, 1
    for col in range(p - 1):
        if m[col][col] == 0:
            swap = next((r for r in range(col + 1, p) if m[r][col]), None)
            if swap is None:
                return 0
            m[col], m[swap] = m[swap], m[col]
            sign = -sign
        pivot, top = m[col][col], m[col]
        for r in range(col + 1, p):
            row = m[r]
            head = row[col]
            for c in range(col + 1, p):
                row[c] = (row[c] * pivot - head * top[c]) // prev
        prev = pivot
    return sign * m[-1][-1] if p else 1


def expected_tau(instance: dict, path) -> int:
    """The count for one manifest entry, whose edge list lives at `path`."""
    n, cls = instance["n"], instance["class"]
    if cls in ("qt", "csplit"):
        parents, mults = instance["layout"]
        return tau_from_determinant(n, sum(mults), layout_determinant(parents, mults, n))
    p, edges = read_edge_list(path)
    if cls == "tree":
        det = tree_determinant(p, edges, n)
    elif cls == "fallback":
        det = dense_determinant(p, edges, n)
    else:
        raise ValueError(f"unknown instance class {cls!r}")
    return tau_from_determinant(n, p, det)


def check_output(instance: dict, expected: int, tau_text: str, method: str):
    """None when kncomp's answer is right, else a one-line reason."""
    want = EXPECTED_METHOD[instance["class"]]
    if method != want:
        return f"method_used {method!r}, expected {want!r}"
    if tau_text != str(expected):
        return f"tau {tau_text[:24]}... differs from the independent count"
    return None
