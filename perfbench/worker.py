"""One workload's process: `setup` writes its inputs, `run` times the loop.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py run --dir D --seconds T --trace 0|1

`setup` imports kncomp, writes one round of edge-list files and a manifest
under D, then prints "ready". `run` is a closed loop with a single caller:
it calls `kncomp.cli.main(["count", ...])` in this process for each input
of the round. After one untimed round it repeats whole rounds until T
seconds have passed, and prints one JSON line with every latency, the
distinct (tau, method) answers per input, failures and peak RSS. With
--trace 1 the rounds alternate between untraced and traced by the layer
spans of `tracing`.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _import_kncomp():
    import kncomp

    if Path(kncomp.__file__).resolve().parent != ROOT / "src" / "kncomp":
        raise SystemExit(f"kncomp imported from {kncomp.__file__}, not from {ROOT / 'src'}")


def setup(args) -> None:
    _import_kncomp()
    import workloads

    workloads.write_round(args.workload, args.seed, Path(args.dir))
    print("ready", flush=True)


def _stats() -> dict:
    return {"latencies_s": [], "wall_s": 0.0, "attempted": 0, "failed": 0}


class Loop:
    """The closed loop over one round of `kncomp count` calls."""

    def __init__(self, main, directory: Path, manifest):
        self.main = main
        self.argvs = [
            ["count", "--n", str(entry["n"]), "--h", str(directory / entry["file"])]
            for entry in manifest
        ]
        self.answers = [set() for _ in manifest]
        self.errors = []

    def count(self, index: int):
        """One count; returns (wall seconds, answer), or None if it failed."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = self.main(self.argvs[index])
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a traceback from kncomp is a failed count
            code, elapsed = f"{type(exc).__name__}: {exc}", None
        if code != 0:
            if len(self.errors) < 5:
                self.errors.append(f"input {index}: {code} {err.getvalue().strip()}")
            return None
        answer = json.loads(out.getvalue())
        self.answers[index].add((answer["tau"], answer["method_used"]))
        return elapsed, answer

    def round(self, stats: dict, on_count=None) -> None:
        """One count of every input, added to `stats`; `on_count` sees the
        answer of each successful count."""
        start = time.perf_counter()
        for index in range(len(self.argvs)):
            stats["attempted"] += 1
            done = self.count(index)
            if done is None:
                stats["failed"] += 1
                continue
            stats["latencies_s"].append(done[0])
            if on_count:
                on_count(done[1])
        stats["wall_s"] += time.perf_counter() - start


def run(args) -> None:
    directory = Path(args.dir)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    _import_kncomp()
    from kncomp import cli

    loop = Loop(cli.main, directory, manifest)
    loop.round(_stats())
    result = {}
    start = time.perf_counter()
    if args.trace:
        import tracing

        # Traced and untraced rounds alternate, so a drift in machine speed
        # reaches both and the overhead compares like with like.
        tracer = tracing.Tracer()
        traced_main = tracer.root(cli.main)
        result["untraced"], result["traced"] = _stats(), _stats()
        while time.perf_counter() - start < args.seconds:
            loop.round(result["untraced"])
            tracer.install()
            loop.main = traced_main
            try:
                loop.round(result["traced"], tracer.end_count)
            finally:
                tracer.uninstall()
                loop.main = cli.main
        result["trace"] = tracer.summary()
        result["absent"] = tracer.absent
        tracer.write(directory / "trace.json")
    else:
        result["timed"] = _stats()
        while time.perf_counter() - start < args.seconds:
            loop.round(result["timed"])
    result["answers"] = [sorted(a) for a in loop.answers]
    result["errors"] = loop.errors
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    set_up = sub.add_parser("setup")
    set_up.add_argument("--workload", required=True)
    set_up.add_argument("--seed", type=int, required=True)
    set_up.add_argument("--dir", required=True)
    set_up.set_defaults(func=setup)
    timed = sub.add_parser("run")
    timed.add_argument("--dir", required=True)
    timed.add_argument("--seconds", type=float, required=True)
    timed.add_argument("--trace", type=int, choices=(0, 1), default=0)
    timed.set_defaults(func=run)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
