import decimal
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from conftest import int_digit_limit, lucas, random_permutation, relabel
from kncomp import cli, oracle, tree_engine
from kncomp.arith import PrimeField, random_prime
from kncomp.cli import CountResult, bench_once, main
from kncomp.graph import (
    Graph,
    Problem,
    complement_in_host,
    is_connected,
    is_tree,
    serialize_edge_list,
)
from kncomp.oracle import csplit_graph, cycle_graph, path_graph

PATH3 = "3 2\n1 2\n2 3\n"
PATH4 = "4 3\n1 2\n2 3\n3 4\n"
EMPTY = "1 0\n"
CYCLE4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"
NESTED_QT = "5 6\n1 2\n1 3\n1 4\n1 5\n3 4\n3 5\n"
TRIANGLE = "3 3\n1 2\n1 3\n2 3\n"
DISCONNECTED = "4 2\n1 2\n3 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tau(out: str) -> int:
    # Decimal -> int never goes through int(str), so no digit limit applies.
    return int(decimal.Decimal(json.loads(out)["tau"]))


def residue_of_text(text: str, q: int) -> int:
    """The decimal `text` modulo q, read 4000 digits at a time, each slice
    under CPython's default 4300-digit limit."""
    r = 0
    for i in range(0, len(text), 4000):
        piece = text[i : i + 4000]
        r = (r * pow(10, len(piece), q) + int(piece)) % q
    return r


def test_count_path3_auto(tmp_path, capsys):
    code, out, _ = run(capsys, ["count", "--n", "4", "--h", write(tmp_path, "p3.el", PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "3"
    assert payload["method_used"] == "tree"
    assert payload["fallback_reason"] is None
    assert payload["n"] == 4 and payload["k_or_p"] == 3


def test_count_empty_subtrahend_is_cayley(tmp_path, capsys):
    code, out, _ = run(capsys, ["count", "--n", "6", "--h", write(tmp_path, "e.el", EMPTY)])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "1296"
    assert payload["method_used"] == "tree"


def test_count_qt_method_rejects_p4(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["count", "--n", "4", "--h", write(tmp_path, "p4.el", PATH4), "--method", "qt"],
    )
    assert code == 2
    assert "universal" in err or "quasi" in err


def test_count_tree_method_rejects_cycle(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["count", "--n", "5", "--h", write(tmp_path, "c4.el", CYCLE4), "--method", "tree"],
    )
    assert code == 2
    assert "not a tree" in err


def test_auto_dispatch_records_the_path(tmp_path, capsys):
    # triangle = complete split (K=3, S=0), not a tree
    _, out, _ = run(capsys, ["count", "--n", "5", "--h", write(tmp_path, "t.el", TRIANGLE)])
    assert json.loads(out)["method_used"] == "csplit"
    # nested quasi-threshold graph: neither tree nor complete split
    _, out, _ = run(capsys, ["count", "--n", "6", "--h", write(tmp_path, "q.el", NESTED_QT)])
    payload = json.loads(out)
    assert payload["method_used"] == "qt"
    assert payload["tau"] == "40"
    # 4-cycle: falls through to the oracle, with the reason recorded
    _, out, _ = run(capsys, ["count", "--n", "5", "--h", write(tmp_path, "c.el", CYCLE4)])
    payload = json.loads(out)
    assert payload["method_used"] == "kirchhoff"
    assert "not quasi-threshold" in payload["fallback_reason"]
    # disconnected subtrahend
    _, out, _ = run(capsys, ["count", "--n", "5", "--h", write(tmp_path, "d.el", DISCONNECTED)])
    payload = json.loads(out)
    assert payload["method_used"] == "kirchhoff"
    assert "disconnected" in payload["fallback_reason"]


def test_count_prints_tau_beyond_the_int_digit_limit(capsys):
    # Under the lowest limit CPython accepts, which the count leaves as it is.
    with int_digit_limit(640):
        code, out, err = run(capsys, ["count", "--n", "1500", "--csplit", "1,1", "--verbose"])
        assert sys.get_int_max_str_digits() == 640
    assert code == 0
    tau = read_tau(out)
    assert len(json.loads(out)["tau"]) > 4300
    # n^(n-p-1) * (n - |K|)^(|S|-1) * (n - p)^|K| with |K| = |S| = 1, p = 2
    assert tau == 1500**1497 * 1498
    assert err.startswith(f"tau(K_1500 - H) = {json.loads(out)['tau']} via ")


def test_north_star_sized_tau_is_rendered_exactly(capsys):
    # tau = 50001^49999 has 234,945 digits; its text is checked modulo a
    # seeded 61-bit prime against the closed form.
    n, size_k, size_s = 100_001, 50_000, 50_000
    code, out, _ = run(capsys, ["count", "--n", str(n), "--csplit", f"{size_k},{size_s}"])
    assert code == 0
    text = json.loads(out)["tau"]
    assert len(text) == 234_945
    q = random_prime(61, random.Random(61))
    p = size_k + size_s
    closed_form = pow(n, n - p - 1, q) * pow(n - size_k, size_s - 1, q) * pow(n - p, size_k, q)
    assert residue_of_text(text, q) == closed_form % q == pow(50001, 49999, q)


def fresh_interpreter(*args, **kwargs) -> subprocess.Popen:
    """A new Python process that imports kncomp from this tree's src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_count_ends_quietly_when_stdout_closes_early():
    # The 234,945-digit tau overflows the pipe, so the count is still
    # writing when the reader closes it.
    proc = fresh_interpreter(
        "-m", "kncomp.cli", "count", "--n", "100001", "--csplit", "50000,50000",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b'{"tau": "')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_importing_the_cli_loads_no_introspection_modules():
    # Against this interpreter's own start-up modules, so a site hook that
    # loads one of them does not count.
    proc = fresh_interpreter(
        "-c",
        "import sys; before = set(sys.modules); import kncomp.cli; "
        "print(*sorted(set(sys.modules) - before))",
        stdout=subprocess.PIPE,
        text=True,
    )
    added = set(proc.communicate(timeout=60)[0].split())
    assert proc.returncode == 0 and "kncomp.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cst_matrix_reaches_a_north_star_host(tmp_path, capsys):
    # The cst-matrix system is 20 x 20 for C_20 at any n: at n = 10^5 its
    # tau, with 499,990 digits, is n^(n-22) * (V_20(n - 2) - 2), the cycle's
    # closed form (Gilbert and Myrvold), checked modulo a seeded 61-bit prime.
    n = 100_000
    c20 = write(tmp_path, "c20.el", serialize_edge_list(cycle_graph(20)))
    code, out, _ = run(capsys, ["count", "--n", str(n), "--h", c20, "--method", "cst-matrix"])
    assert code == 0 and json.loads(out)["method_used"] == "cst-matrix"
    q = random_prime(61, random.Random(61))
    closed_form = pow(n, n - 22, q) * (lucas(20, n - 2)[1] - 2)
    assert residue_of_text(json.loads(out)["tau"], q) == closed_form % q
    p20 = write(tmp_path, "p20.el", serialize_edge_list(path_graph(20)))
    argv = ["verify", "--n", str(n), "--h", p20, "--method", "tree", "--against", "cst-matrix"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["equal"] is True


def test_large_path_count_matches_the_pivot_product_mod_p(tmp_path, capsys):
    # k = n = 2000: tau has about 6600 digits, beyond every oracle's reach.
    # The paper's pivot recursion, run in a random prime field, checks it.
    n = 2000
    rng = random.Random(2000)
    t = relabel(path_graph(n), random_permutation(n, rng))
    code, out, _ = run(
        capsys, ["count", "--n", str(n), "--h", write(tmp_path, "p.el", serialize_edge_list(t))]
    )
    assert code == 0
    assert json.loads(out)["method_used"] == "tree"
    field = PrimeField(random_prime(rng=rng))
    assert read_tau(out) % field.modulus == tree_engine.st_tau(t, n, field)


def test_consecutive_main_calls_are_independent(tmp_path, capsys):
    p3 = write(tmp_path, "p3.el", PATH3)
    code, out, err = run(
        capsys, ["count", "--n", "4", "--h", p3, "--method", "kirchhoff", "--verbose"]
    )
    assert code == 0 and json.loads(out)["method_used"] == "kirchhoff" and "via" in err
    code, out, err = run(capsys, ["verify", "--n", "5", "--h", p3, "--method", "tree",
                                  "--against", "enumerate"])
    assert code == 0 and json.loads(out)["equal"] is True and err == ""
    code, out, err = run(capsys, ["count", "--n", "5", "--h", p3])
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["method_used"] == "tree" and payload["tau"] == "40"


def test_count_csplit_flag(capsys):
    code, out, _ = run(capsys, ["count", "--n", "5", "--csplit", "1,3", "--method", "csplit"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "16"
    assert payload["method_used"] == "csplit"
    assert payload["k_or_p"] == 4


def without_elapsed(out: str):
    if not out:
        return out
    payload = json.loads(out)
    del payload["elapsed_ms"]
    return payload


def test_csplit_sizes_count_like_the_built_graph(tmp_path, capsys):
    methods = ("auto",) + cli.ENGINE_METHODS + cli.ORACLE_METHODS
    for size_k in range(1, 5):
        for size_s in range(6):
            h = write(tmp_path, "h.el", serialize_edge_list(csplit_graph(size_k, size_s)))
            p = size_k + size_s
            for n in (p - 1, p, p + 1):
                for method in methods:
                    common = ["count", "--n", str(n), "--method", method]
                    sizes = run(capsys, common + ["--csplit", f"{size_k},{size_s}"])
                    built = run(capsys, common + ["--h", h])
                    assert sizes[0] == built[0], (size_k, size_s, n, method)
                    assert without_elapsed(sizes[1]) == without_elapsed(built[1])
                    assert sizes[2] == built[2]


def test_csplit_count_needs_no_graph(capsys, monkeypatch):
    def no_graph(*_):
        raise AssertionError("the count built the graph")

    # The graph would have 5 * 10^7 + 10^8 edges.
    monkeypatch.setattr(oracle, "csplit_graph", no_graph)
    n, size_k, size_s = 20_010, 10_000, 10_000
    start = time.perf_counter()
    code, out, _ = run(capsys, ["count", "--n", str(n), "--csplit", f"{size_k},{size_s}"])
    assert time.perf_counter() - start < 5.0
    assert code == 0 and json.loads(out)["method_used"] == "csplit"
    p = size_k + size_s
    assert read_tau(out) == n ** (n - p - 1) * (n - size_k) ** (size_s - 1) * (n - p) ** size_k


def test_csplit_and_qt_methods_read_the_node_tree_shape(tmp_path, capsys):
    for name, text in (("q", NESTED_QT), ("c", CYCLE4), ("d", DISCONNECTED)):
        h = write(tmp_path, f"{name}.el", text)
        code, _, err = run(capsys, ["count", "--n", "6", "--h", h, "--method", "csplit"])
        assert code == 2 and "not a complete split graph" in err
    t = write(tmp_path, "t.el", TRIANGLE)
    code, out, _ = run(capsys, ["count", "--n", "5", "--h", t, "--method", "qt"])
    assert code == 0 and json.loads(out)["method_used"] == "qt"


def test_count_oracle_methods(tmp_path, capsys):
    p3 = write(tmp_path, "p3.el", PATH3)
    for method in ("kirchhoff", "cst-matrix", "enumerate"):
        code, out, _ = run(capsys, ["count", "--n", "4", "--h", p3, "--method", method])
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == "3"
        assert payload["method_used"] == method


def test_parse_and_validation_errors_exit_1(tmp_path, capsys):
    bad = write(tmp_path, "bad.el", "2 1\n1 1\n")
    code, _, err = run(capsys, ["count", "--n", "4", "--h", bad])
    assert code == 1 and "loop" in err
    code, _, err = run(capsys, ["count", "--n", "4", "--h", str(tmp_path / "missing.el")])
    assert code == 1
    p3 = write(tmp_path, "p3.el", PATH3)
    code, _, err = run(capsys, ["count", "--n", "2", "--h", p3])
    assert code == 1 and "host" in err
    code, _, err = run(capsys, ["count", "--n", "4", "--csplit", "nope"])
    assert code == 1
    for spec, message in (("0,2", "K >= 1"), ("1,-1", "S >= 0"), ("2,2", "host")):
        code, _, err = run(capsys, ["count", "--n", "3", "--csplit", spec])
        assert code == 1 and message in err, spec
    binary = tmp_path / "binary.el"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, ["count", "--n", "4", "--h", str(binary)])
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv in (
        ["count", "--n", "abc", "--csplit", "1,1"],
        ["count", "--csplit", "1,1"],
        ["count", "--n", "4", "--csplit", "1,1", "--method", "nope"],
        ["count", "--n", "4", "--h", "h.el", "--csplit", "1,1"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert capsys.readouterr().err.startswith("usage: kncomp")
    for argv in (["--help"], ["count", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kncomp")


def has_induced_p4_or_c4(g: Graph) -> bool:
    for quad in combinations(g.vertices(), 4):
        degrees = sorted(sum(v in g.neighbors(u) for v in quad if v != u) for u in quad)
        if degrees in ([1, 1, 2, 2], [2, 2, 2, 2]):
            return True
    return False


def is_complete_split(g: Graph) -> bool:
    """Universal vertices (the clique K) exist and every other vertex has
    degree |K|, so its neighbours are exactly K."""
    p = g.vertex_count
    universal = [v for v in g.vertices() if g.degree(v) == p - 1]
    return bool(universal) and all(
        g.degree(v) == len(universal) for v in g.vertices() if g.degree(v) != p - 1
    )


def test_auto_routes_every_small_subtrahend(capsys):
    # Every labelled graph with p <= 5, at n in {p, p + 1, p + 3}: the label
    # follows from checks that do not use the engines, and tau is Kirchhoff's.
    tally = Counter()
    for p in range(1, 6):
        pairs = list(combinations(range(1, p + 1), 2))
        for mask in range(1 << len(pairs)):
            h = Graph(p, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if is_tree(h):
                expected = ("tree", None)
            elif not is_connected(h):
                expected = ("kirchhoff", "subtrahend is disconnected")
            elif has_induced_p4_or_c4(h):
                expected = ("kirchhoff", "subtrahend is not quasi-threshold")
            else:
                expected = ("csplit" if is_complete_split(h) else "qt", None)
            for n in (p, p + 1, p + 3):
                problem = Problem(n, h)
                tau, used, reason = cli._run("auto", problem)
                assert (used, reason) == expected, (h, n)
                assert tau == oracle.kirchhoff_count(complement_in_host(problem)), (h, n)
                tally[used, reason] += 1
    assert tally == {
        ("tree", None): 438,
        ("csplit", None): 87,
        ("qt", None): 501,
        ("kirchhoff", "subtrahend is disconnected"): 981,
        ("kirchhoff", "subtrahend is not quasi-threshold"): 1290,
    }


def test_verbose_summary_on_stderr(tmp_path, capsys):
    p3 = write(tmp_path, "p3.el", PATH3)
    _, _, err = run(capsys, ["count", "--n", "4", "--h", p3, "--verbose"])
    assert "via tree" in err


def test_verify_agreement(tmp_path, capsys):
    t = write(tmp_path, "t.el", "5 4\n1 2\n2 3\n3 4\n2 5\n")
    for against in ("kirchhoff", "cst-matrix", "enumerate"):
        code, out, _ = run(
            capsys,
            ["verify", "--n", "7", "--h", t, "--method", "tree", "--against", against],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["engine"] == payload["oracle"]


def test_verify_forced_mismatch_exits_3(tmp_path, capsys):
    p3 = write(tmp_path, "p3.el", PATH3)
    code, out, _ = run(
        capsys,
        [
            "verify", "--n", "4", "--h", p3,
            "--method", "tree", "--against", "kirchhoff",
            "--debug-force-wrong",
        ],
    )
    assert code == 3
    assert json.loads(out)["equal"] is False


def test_verify_enumerate_guard_exits_1(tmp_path, capsys):
    p3 = write(tmp_path, "p3.el", PATH3)
    code, _, err = run(
        capsys,
        ["verify", "--n", "9", "--h", p3, "--method", "tree", "--against", "enumerate"],
    )
    assert code == 1
    assert "guard" in err


def test_enumerate_guard_comes_before_the_csplit_graph(capsys, monkeypatch):
    def no_graph(*_):
        raise AssertionError("the graph was built before the guard")

    # The graph would have about 3.75 * 10^9 edges.
    monkeypatch.setattr(oracle, "csplit_graph", no_graph)
    given = ["--n", "100001", "--csplit", "50000,50000"]
    for argv in (
        ["count", *given, "--method", "enumerate"],
        ["verify", *given, "--method", "auto", "--against", "enumerate"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "enumeration guard: n = 100001 exceeds 8 vertices" in err


def test_host_size_comes_before_the_csplit_graph(capsys, monkeypatch):
    def no_graph(*_):
        raise AssertionError("the graph was built before the host check")

    # The graph would have about 3.75 * 10^9 edges.
    monkeypatch.setattr(oracle, "csplit_graph", no_graph)
    given = ["--n", "5", "--csplit", "50000,50000"]
    for argv in (
        ["count", *given, "--method", "kirchhoff"],
        ["verify", *given, "--method", "auto", "--against", "kirchhoff"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "subtrahend has 100000 vertices but the host has only 5" in err


def test_host_size_is_bounded(tmp_path, capsys):
    edge = write(tmp_path, "edge.el", "2 1\n1 2\n")
    for given in (["--h", edge], ["--csplit", "1,1"]):
        start = time.perf_counter()
        code, out, err = run(capsys, ["count", "--n", "10000001", *given])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "host size 10000001 exceeds the limit of 10000000" in err
    with pytest.raises(ValueError, match="host size"):
        Problem(10**7 + 1, Graph(1))


def test_bench_emits_csv(capsys):
    code, out, _ = run(capsys, ["bench", "--family", "path", "--sizes", "10,20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,millis,ops,p"
    assert len(lines) == 3
    for line, size in zip(lines[1:], (10, 20)):
        got_size, millis, ops, p = line.split(",")
        assert int(got_size) == size
        assert float(millis) >= 0
        assert int(ops) > 0
        assert int(p) == size  # a path on `size` vertices


def test_bench_mod_p_and_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("KNCOMP_SEED", "424242")
    code, out1, _ = run(
        capsys, ["bench", "--family", "random-tree", "--sizes", "30", "--mod-p"]
    )
    assert code == 0
    _, out2, _ = run(
        capsys, ["bench", "--family", "random-tree", "--sizes", "30", "--mod-p"]
    )
    ops1 = out1.strip().splitlines()[1].split(",")[2]
    ops2 = out2.strip().splitlines()[1].split(",")[2]
    assert ops1 == ops2


def test_bench_exits_1_when_a_pivot_vanishes(capsys, monkeypatch):
    # Mod 3 the path on 3 vertices has n = 3, so b = 1/n divides by zero.
    monkeypatch.setattr(cli, "random_prime", lambda rng: 3)
    code, _, err = run(capsys, ["bench", "--family", "path", "--sizes", "3", "--mod-p"])
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, ["bench", "--family", "path", "--sizes", "0"])
    assert code == 1
    code, _, err = run(capsys, ["bench", "--family", "path", "--sizes", "ten"])
    assert code == 1


def test_bench_once_covers_qt_family():
    # The size bounds the nodes of a random layout; p is the instance's own.
    millis, ops, p = bench_once("random-qt", 12, 7, mod_p=True)
    assert millis >= 0 and ops > 0 and p == 20
    millis, ops, p = bench_once("random-qt", 12, 7, mod_p=False)
    assert millis >= 0 and ops > 0 and p == 20


def test_count_result_json_round_trip():
    result = CountResult(
        tau=3, method_used="tree", fallback_reason=None, elapsed_ms=1.25,
        n=4, k_or_p=3,
    )
    text = result.to_json()
    assert list(json.loads(text)) == [
        "tau", "method_used", "fallback_reason", "elapsed_ms", "n", "k_or_p",
    ]
    assert json.loads(text) == {
        "tau": "3", "method_used": "tree", "fallback_reason": None,
        "elapsed_ms": 1.25, "n": 4, "k_or_p": 3,
    }
