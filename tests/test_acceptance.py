"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a couple of minutes, dominated by the
exhaustive tree sweep and the triple-oracle sweep.
"""

import random
import time
from fractions import Fraction

from kncomp.arith import tau_from_determinant
from kncomp.cli import bench_once
from kncomp.graph import Graph, Problem, complement_in_host
from kncomp.oracle import (
    all_graphs,
    all_labeled_trees,
    csplit_graph,
    csplit_layout,
    cst_matrix_count,
    cycle_graph,
    enumerate_count,
    graph_from_cent_layout,
    kirchhoff_count,
    path_graph,
    random_cent_layout,
    random_graph,
    random_labeled_tree,
    random_qt_graph,
    star_graph,
)
from kncomp.qt_engine import cent_function, layout_determinant, recognize_and_build_cent_tree
from kncomp.tree_engine import count_kn_minus_tree

from conftest import (
    complete_graph,
    disjoint_edges,
    lucas,
    qt_count,
    random_permutation,
    rational_determinant,
    relabel,
    tau_from_closed_form,
)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tree_formula_exhaustive():
    checked = 0
    for k in range(1, 8):
        for t in all_labeled_trees(k):
            for n in (k, k + 1, k + 3):
                problem = Problem(n, t)
                engine = count_kn_minus_tree(problem)
                oracle = kirchhoff_count(complement_in_host(problem))
                if engine != oracle:
                    _report(
                        1,
                        False,
                        f"mismatch for k={k}, n={n}, edges={t.edges()}: "
                        f"{engine} != {oracle}",
                    )
                checked += 1
    _report(
        1, True, f"tree engine == Kirchhoff on all {checked} (tree, n) pairs, k <= 7"
    )


def test_criterion_2_qt_formula_randomized():
    rng = random.Random(1618)
    checked = 0
    while checked < 500:
        g = random_qt_graph(rng.randint(1, 6), 3, rng.randint(0, 10**9))
        p = g.vertex_count
        if p > 10:
            continue
        checked += 1
        for n in (p, p + 1, p + 4):
            problem = Problem(n, g)
            engine = qt_count(problem)
            oracle = kirchhoff_count(complement_in_host(problem))
            if engine != oracle:
                _report(
                    2,
                    False,
                    f"mismatch for p={p}, n={n}, edges={g.edges()}: "
                    f"{engine} != {oracle}",
                )
    _report(2, True, f"qt engine == Kirchhoff on {checked} random instances, p <= 10")


def test_criterion_3_cross_oracle_agreement():
    instances = []
    for k in range(1, 6):
        for h in all_graphs(k):
            for n in range(k, 8):
                instances.append((n, h))
    rng = random.Random(2024)
    for _ in range(60):
        k = rng.randint(6, 7)
        h = random_graph(k, rng)
        instances.append((rng.randint(k, 7), h))

    for n, h in instances:
        problem = Problem(n, h)
        comp = complement_in_host(problem)
        kirchhoff = kirchhoff_count(comp)
        cst = cst_matrix_count(problem)
        enum = enumerate_count(comp)
        if not (kirchhoff == cst == enum):
            _report(
                3,
                False,
                f"oracle split for n={n}, edges={h.edges()}: "
                f"kirchhoff={kirchhoff}, cst={cst}, enumerate={enum}",
            )
    _report(
        3,
        True,
        f"kirchhoff == cst-matrix == enumerate on {len(instances)} problems, n <= 7",
    )


def test_criterion_4_block_determinant_identity():
    checked = 0
    for n in range(1, 16):
        b = Fraction(1, n)
        for d in range(0, 11):
            a = 1 - d * b
            for p in range(1, 7):
                block = [[a if r == c else b for c in range(p)] for r in range(p)]
                det = rational_determinant(block)
                expected = (a - b) ** (p - 1) * (a - (1 - p) * b)
                if det != expected:
                    _report(4, False, f"block identity fails at n={n}, d={d}, p={p}")
                checked += 1
    _report(4, True, f"within-node block determinant identity holds on {checked} blocks")


def test_criterion_5_coupling_determinant_equals_phi_product():
    rng = random.Random(5151)
    b_cache = {}
    checked = 0
    while checked < 150:
        layout = random_cent_layout(8, 3, rng)
        g = graph_from_cent_layout(*layout)
        ct = recognize_and_build_cent_tree(g)
        n = ct.vertex_count + rng.randint(0, 5)
        vals = cent_function(ct, n)
        k = ct.node_count
        b = b_cache.setdefault(n, Fraction(1, n))
        ancestors = [set() for _ in range(k + 1)]
        for i in range(2, k + 1):
            ancestors[i] = ancestors[ct.parents[i]] | {ct.parents[i]}
        rows = [[Fraction(0)] * k for _ in range(k)]
        for s in range(1, k + 1):
            rows[s - 1][s - 1] = vals.sigma[s]
            for t in range(s + 1, k + 1):
                if s in ancestors[t]:  # a parent precedes its children
                    rows[s - 1][t - 1] = b
                    rows[t - 1][s - 1] = b
        det = rational_determinant(rows)
        product = Fraction(1)
        for t in range(1, k + 1):
            product *= vals.phi[t]
        if det != product:
            _report(5, False, f"det != phi product for layout {layout}, n={n}")
        checked += 1
    _report(5, True, f"node-coupling determinant == phi product on {checked} layouts")


def test_criterion_6_complete_split_closed_form():
    checked = 0
    for size_k in range(1, 5):
        for size_s in range(0, 5):
            p = size_k + size_s
            g = csplit_graph(size_k, size_s)
            for n in (p, p + 2):
                # n^(n-p-1) * (n - |K|)^(|S|-1) * (n - p)^|K|; H = K_p when |S| = 0
                if size_s == 0:
                    closed = Fraction(n) ** (n - p - 1) * Fraction(n - p) ** (p - 1)
                else:
                    closed = (
                        Fraction(n) ** (n - p - 1)
                        * Fraction(n - size_k) ** (size_s - 1)
                        * Fraction(n - p) ** size_k
                    )
                layout = tau_from_determinant(
                    n, p, layout_determinant(*csplit_layout(size_k, size_s), n)
                )
                engine = qt_count(Problem(n, g))
                if not closed == layout == engine:
                    _report(
                        6,
                        False,
                        f"closed form {closed}, layout {layout}, qt {engine} "
                        f"at K={size_k}, S={size_s}, n={n}",
                    )
                if n == p and size_s >= 1 and closed != 0:
                    _report(6, False, f"expected 0 at n=p={p} with S={size_s}")
                checked += 1
    _report(6, True, f"complete split closed form == layout count == qt engine on {checked} cases")


def test_criterion_7_known_special_cases():
    for n in range(1, 13):
        cayley = n ** (n - 2) if n >= 2 else 1
        if cst_matrix_count(Problem(n, Graph(0))) != cayley:
            _report(7, False, f"empty subtrahend: cst-matrix != {cayley} at n={n}")
        if count_kn_minus_tree(Problem(n, Graph(1))) != cayley:
            _report(7, False, f"single-vertex subtrahend != {cayley} at n={n}")
    for p in range(1, 7):
        for n in range(p, 13):
            expected = n ** (n - p - 1) * (n - p) ** (p - 1) if n > p else 0
            if n == p == 1:
                expected = 1
            got = qt_count(Problem(n, complete_graph(p)))
            if got != expected:
                _report(7, False, f"K_{p} in K_{n}: {got} != {expected}")
    _report(7, True, "empty subtrahend gives n^(n-2); K_p matches its closed form")


# det(n*I - L(H)) for the subtrahends with closed forms in the paper's
# introduction, with U and V the Lucas sequences at x = n - 2.
def det_disjoint_edges(m: int, n: int) -> int:  # Weinberg
    return (n * (n - 2)) ** m


def det_star(s: int, n: int) -> int:  # O'Neil, K_(1,s)
    return n * (n - 1) ** (s - 1) * (n - s - 1)


def det_complete(p: int, n: int) -> int:  # Berge
    return n * (n - p) ** (p - 1)


def det_path(p: int, n: int) -> int:  # Gilbert and Myrvold
    return n * lucas(p, n - 2)[0]


def det_cycle(p: int, n: int) -> int:  # Gilbert and Myrvold
    return lucas(p, n - 2)[1] - 2 * (-1) ** p


def paper_closed_forms(p: int):
    """(name, H, det) for each family with a member H on p vertices, where
    det(n) is det(n*I - L(H))."""
    forms = [
        (f"K_{p}", complete_graph(p), lambda n: det_complete(p, n)),
        (f"P_{p}", path_graph(p), lambda n: det_path(p, n)),
    ]
    if p % 2 == 0:
        m = p // 2
        forms.append((f"{m}K_2", disjoint_edges(m), lambda n: det_disjoint_edges(m, n)))
    if p >= 2:
        forms.append((f"K_1,{p - 1}", star_graph(p), lambda n: det_star(p - 1, n)))
    if p >= 3:
        forms.append((f"C_{p}", cycle_graph(p), lambda n: det_cycle(p, n)))
    return forms


def test_criterion_7_paper_closed_forms():
    checked = 0
    for p in range(1, 9):
        for name, h, det in paper_closed_forms(p):
            for n in (p, p + 1, p + 5):
                problem = Problem(n, h)
                expected = tau_from_closed_form(n, p, det(n))
                kirchhoff = kirchhoff_count(complement_in_host(problem))
                cst = cst_matrix_count(problem)
                if not expected == kirchhoff == cst:
                    _report(
                        7,
                        False,
                        f"{name} in K_{n}: closed form {expected}, "
                        f"kirchhoff {kirchhoff}, cst {cst}",
                    )
                checked += 1
    _report(7, True, f"five closed forms == kirchhoff == cst-matrix on {checked} cases, p <= 8")


def test_criterion_7_closed_forms_at_twenty_thousand():
    # Far past Kirchhoff: the tree engine on the path (k = n) and the star
    # (n = k + 1, since its count at n = k is 0), the layout count of K_k,
    # and the p x p cst-matrix oracle on C_20 and 10 disjoint edges.
    k = 20_000
    star = Problem(k + 1, star_graph(k))
    edges = Problem(k, disjoint_edges(10))
    complete = layout_determinant(*csplit_layout(k, 0), k + 3)
    cases = [
        ("P_k", count_kn_minus_tree(Problem(k, path_graph(k))), k, k, det_path(k, k)),
        ("K_1,k-1", count_kn_minus_tree(star), k + 1, k, det_star(k - 1, k + 1)),
        ("K_k", tau_from_determinant(k + 3, k, complete), k + 3, k, det_complete(k, k + 3)),
        ("C_20", cst_matrix_count(Problem(k, cycle_graph(20))), k, 20, det_cycle(20, k)),
        ("10K_2", cst_matrix_count(edges), k, 20, det_disjoint_edges(10, k)),
    ]
    for name, got, n, p, det in cases:
        if got != tau_from_closed_form(n, p, det):
            _report(7, False, f"{name} in K_{n} differs from its closed form")
    _report(7, True, "path, star, K_k, C_20 and 10 disjoint edges match closed forms at 20000")


def test_criterion_8_linear_work_and_wall_time():
    seed = 97
    for family in ("path", "star", "random-tree"):
        ops = {}
        for k in (10_000, 20_000, 40_000, 80_000):
            _, ops[k], _ = bench_once(family, k, seed, mod_p=True)
        for k in (10_000, 20_000, 40_000):
            ratio = ops[2 * k] / ops[k]
            if not 1.8 <= ratio <= 2.2:
                _report(8, False, f"{family}: ops({2*k})/ops({k}) = {ratio:.3f}")
    start = time.perf_counter()
    millis, _, _ = bench_once("path", 100_000, seed, mod_p=True)
    wall = time.perf_counter() - start
    if millis >= 2000.0:
        _report(8, False, f"mod-p engine took {millis:.0f} ms at k=100000")
    _report(
        8,
        True,
        f"ops double with k on all families; k=100000 ran in {millis:.0f} ms "
        f"engine time ({wall:.2f} s including setup)",
    )


def test_criterion_9_relabeling_invariance():
    rng = random.Random(314159)
    tree = random_labeled_tree(9, 999)
    tree_tau = count_kn_minus_tree(Problem(12, tree))
    qt = random_qt_graph(6, 3, 999)
    qt_n = qt.vertex_count + 2
    qt_tau = qt_count(Problem(qt_n, qt))
    for _ in range(100):
        perm = random_permutation(9, rng)
        if count_kn_minus_tree(Problem(12, relabel(tree, perm))) != tree_tau:
            _report(9, False, f"tree count changed under permutation {perm}")
        perm = random_permutation(qt.vertex_count, rng)
        if qt_count(Problem(qt_n, relabel(qt, perm))) != qt_tau:
            _report(9, False, f"qt count changed under permutation {perm}")
    _report(9, True, "100 relabelings of fixed tree and qt instances kept tau fixed")
