"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a couple of minutes, dominated by the
exhaustive tree sweep and the triple-oracle sweep.
"""

import random
import time
from fractions import Fraction

from kncomp.cli import bench_once
from kncomp.graph import Graph, Problem, complement_in_host
from kncomp.oracle import (
    all_graphs,
    all_labeled_trees,
    complete_graph,
    csplit_graph,
    cst_matrix_count,
    enumerate_count,
    graph_from_cent_layout,
    kirchhoff_count,
    random_cent_layout,
    random_graph,
    random_labeled_tree,
    random_qt_graph,
    rational_determinant,
)
from kncomp.qt_engine import (
    cent_function,
    count_kn_minus_csplit,
    recognize_and_build_cent_tree,
)
from kncomp.tree_engine import count_kn_minus_tree

from conftest import qt_count, random_permutation, relabel


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
                csplit = count_kn_minus_csplit(n, size_k, size_s)
                engine = qt_count(Problem(n, g))
                if not closed == csplit == engine:
                    _report(
                        6,
                        False,
                        f"closed form {closed}, csplit {csplit}, qt {engine} "
                        f"at K={size_k}, S={size_s}, n={n}",
                    )
                if n == p and size_s >= 1 and closed != 0:
                    _report(6, False, f"expected 0 at n=p={p} with S={size_s}")
                checked += 1
    _report(6, True, f"complete split closed form == csplit == qt engine on {checked} cases")


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
