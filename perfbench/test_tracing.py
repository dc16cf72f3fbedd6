"""The traced run: spans add up, and a missing function is reported, not fatal.

    PYTHONPATH=src python3 -m pytest perfbench/test_tracing.py -q
"""

import contextlib
import io

import kncomp
from kncomp import cli, graph, qt_engine, tree_engine
from kncomp.oracle import path_graph
from kncomp.graph import serialize_edge_list

import tracing


def traced_count(tmp_path, tracer, g, n):
    path = tmp_path / "h.el"
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    main = tracer.root(cli.main)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["count", "--n", str(n), "--h", str(path)]) == 0
    finally:
        tracer.uninstall()


def test_self_times_add_up_to_the_count(tmp_path):
    tracer = tracing.Tracer()
    traced_count(tmp_path, tracer, path_graph(30), 40)
    metrics = tracer.summary()
    layers = sum(v for k, v in metrics.items() if k.endswith("_ms") and k != "trace.count_ms")
    assert abs(layers - metrics["trace.count_ms"]) < 1e-9
    assert metrics["tree_engine.evaluate_ms"] > 0 and metrics["graph.parse_ms"] > 0
    assert metrics["qt_engine.recognize_ms"] == 0
    assert {span[0] for span in tracer.spans} >= {"cli.other", "graph.classify", "arith.assemble"}


def test_install_reaches_imported_names_and_uninstall_restores_them():
    originals = (tree_engine.is_tree, cli.is_tree, kncomp.parse_edge_list, graph.Graph.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tree_engine.is_tree is cli.is_tree is not originals[0]
        assert kncomp.parse_edge_list is not originals[2]
        assert graph.Graph.__init__ is not originals[3]
    finally:
        tracer.uninstall()
    assert (tree_engine.is_tree, cli.is_tree, kncomp.parse_edge_list, graph.Graph.__init__) == originals


def test_a_removed_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(qt_engine, "count_kn_minus_csplit")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["qt_engine.count_kn_minus_csplit"]
    assert tracer.summary()["trace.absent_functions"] == 1
