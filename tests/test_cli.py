import json
import random
import sys

from conftest import random_permutation, relabel
from kncomp import cli, tree_engine
from kncomp.arith import PrimeField, random_prime
from kncomp.cli import CountResult, bench_once, main
from kncomp.graph import serialize_edge_list
from kncomp.oracle import path_graph

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
    with cli._no_int_digit_limit():
        return int(json.loads(out)["tau"])


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
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = digit_limit()
    code, out, err = run(capsys, ["count", "--n", "1500", "--csplit", "1,1", "--verbose"])
    assert code == 0
    assert digit_limit() == before
    tau = read_tau(out)
    assert len(json.loads(out)["tau"]) > 4300
    # n^(n-p-1) * (n - |K|)^(|S|-1) * (n - p)^|K| with |K| = |S| = 1, p = 2
    assert tau == 1500**1497 * 1498
    assert err.startswith(f"tau(K_1500 - H) = {json.loads(out)['tau']} via ")


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
    expected = field.ipow(n, n - 2)
    for value in tree_engine.st_function(tree_engine.st_decompose(t), n, field)[1:]:
        expected = field.mul(expected, value)
    assert read_tau(out) % field.modulus == expected


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


def test_bench_emits_csv(capsys):
    code, out, _ = run(capsys, ["bench", "--family", "path", "--sizes", "10,20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,millis,ops"
    assert len(lines) == 3
    for line, size in zip(lines[1:], (10, 20)):
        got_size, millis, ops = line.split(",")
        assert int(got_size) == size
        assert float(millis) >= 0
        assert int(ops) > 0


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
    millis, ops = bench_once("random-qt", 12, 7, mod_p=True)
    assert millis >= 0 and ops > 0
    millis, ops = bench_once("random-qt", 12, 7, mod_p=False)
    assert millis >= 0 and ops > 0


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
