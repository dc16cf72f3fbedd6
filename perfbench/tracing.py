"""Layer spans around kncomp's public functions, for the traced run.

`Tracer.install` replaces each function named in LAYERS by a wrapper that
records a span (layer, parent span, start, end). A function is replaced
under every kncomp module attribute that holds it, so calls through
`from .graph import is_tree` are traced as well as `oracle.kirchhoff_count`;
a method is replaced on its class. A function that kncomp no longer has is
reported as absent, and its layer then reads 0.

A layer's self time is the duration of its spans minus the time their child
spans cover. The root span is one whole `cli.main` call; its self time is
`cli.other`, the part of a count no listed function accounts for, so the
self times of all layers add up to the traced count time.
"""

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "graph.parse": ("graph.parse_edge_list",),
    "graph.build": ("graph.Graph.__init__",),
    "graph.classify": ("graph.is_tree", "graph.is_connected"),
    "graph.complement": ("graph.complement_in_host",),
    "tree_engine.decompose": ("tree_engine.st_decompose",),
    "tree_engine.evaluate": ("tree_engine.st_function",),
    "qt_engine.split": ("qt_engine.complete_split_sizes", "qt_engine.count_kn_minus_csplit"),
    "qt_engine.recognize": ("qt_engine.recognize_and_build_cent_tree",),
    "qt_engine.evaluate": ("qt_engine.cent_function",),
    "arith.assemble": ("arith.product_to_integer",),
    "oracle.kirchhoff": ("oracle.kirchhoff_count",),
    "cli.render": ("cli.CountResult.to_json",),
}
ROOT_LAYER = "cli.other"
# Sizes read off a traced function's result: function -> (counter, attribute).
COUNTERS = {
    "graph.parse_edge_list": ("graph.edges", "edge_count"),
    "qt_engine.recognize_and_build_cent_tree": ("qt_engine.nodes", "node_count"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, parent span index or -1, start, end)
        self.absent = []
        self.sizes = Counter()
        self._open = []
        self._undo = []

    def _wrap(self, layer, fn, counter=None):
        spans, open_spans, sizes = self.spans, self._open, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = (layer, parent, start, end)
            if counter:
                sizes[counter[0]] += getattr(result, counter[1], 0)
            return result

        return traced

    def root(self, main):
        """`main` wrapped in the root span of one count."""
        return self._wrap(ROOT_LAYER, main)

    def end_count(self, result: dict) -> None:
        """Record the answer of one successful traced count."""
        self.sizes["counts"] += 1
        self.sizes["cli.tau_digits"] += len(result["tau"])
        self.sizes["engine_counts"] += result["method_used"] != "kirchhoff"

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kncomp"]
        for layer, names in LAYERS.items():
            for name in names:
                module_name, _, qualname = name.partition(".")
                owner_name, _, member = qualname.rpartition(".")
                try:
                    owner = importlib.import_module(f"kncomp.{module_name}")
                except ImportError:
                    owner = None
                if owner is not None and owner_name:
                    owner = getattr(owner, owner_name, None)
                fn = vars(owner).get(member) if owner is not None else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(layer, fn, COUNTERS.get(name))
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def summary(self) -> dict:
        """Per-count self time of each layer (ms) and per-count sizes."""
        covered = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ms = dict.fromkeys(list(LAYERS) + [ROOT_LAYER], 0.0)
        total_ms = 0.0
        counts = 0
        for (layer, parent, start, end), inner in zip(self.spans, covered):
            self_ms[layer] += (end - start - inner) * 1000.0
            if parent < 0:
                total_ms += (end - start) * 1000.0
                counts += 1
        counts, done = max(counts, 1), max(self.sizes["counts"], 1)
        metrics = {f"{layer}_ms": value / counts for layer, value in self_ms.items()}
        metrics["trace.count_ms"] = total_ms / counts
        for name in ("graph.edges", "qt_engine.nodes", "cli.tau_digits"):
            metrics[name] = self.sizes[name] / done
        metrics["cli.engine_share"] = self.sizes["engine_counts"] / done
        metrics["trace.absent_functions"] = len(self.absent)
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": LAYERS, "absent": self.absent, "spans": self.spans}, fh)
