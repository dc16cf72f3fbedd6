"""Benchmark of `kncomp count`, end to end and layer by layer.

    python3 perfbench/run.py --workload tree-sparse --seed 1 --seconds 24 --trace 0

Run from the root of a kncomp source tree; the benchmark imports kncomp
from its `src` directory. Each workload runs in processes of its own
(`worker.py`): set-up is timed SETUPS times in fresh interpreters, after
one untimed set-up that compiles bytecode and warms the file cache; then
one process runs the timed closed loop. Every answer is checked here by the
independent checker in `check.py`. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see README.md).
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree-sparse", "qt-dense", "fallback")
SETUPS = 7
TAIL_BEYOND = 10  # samples beyond the tail percentile
TIMEOUT_S = 170


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    return left


def _worker(args):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )


def _finish(proc, deadline: float) -> str:
    """Wait for a worker; kill it and wait for it if the deadline passes."""
    try:
        out, _ = proc.communicate(timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise TimeoutError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def timed_setup(workload: str, seed: int, directory: Path, deadline: float) -> float:
    """Seconds from starting a fresh interpreter until its inputs are written."""
    start = time.perf_counter()
    proc = _worker(["setup", "--workload", workload, "--seed", str(seed), "--dir", str(directory)])
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        _finish(proc, deadline)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up printed {line!r} instead of 'ready'")
    return elapsed


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def check_answers(directory: Path, answers) -> list:
    """Every distinct answer of every input, checked independently."""
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    for index, (entry, seen) in enumerate(zip(manifest, answers)):
        expected = check.expected_tau(entry, directory / entry["file"])
        for tau_text, method in seen:
            reason = check.check_output(entry, expected, tau_text, method)
            if reason:
                problems.append(f"input {index} ({entry['class']}, n={entry['n']}): {reason}")
    return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(timed: dict, setup_times, peak_rss_mb: float) -> dict:
    latencies_ms = [s * 1000.0 for s in timed["latencies_s"]]
    tail_ms, percentile = tail(latencies_ms)
    print(
        f"{len(latencies_ms)} counts in {timed['wall_s']:.2f} s; "
        f"tail = p{percentile:.2f}; set-ups {[round(s, 3) for s in setup_times]}",
        file=sys.stderr,
    )
    return {
        "count_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
        "count_tail_ms": _metric(tail_ms, "ms"),
        "counts_per_s": _metric(len(latencies_ms) / timed["wall_s"], "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def per_layer(result: dict) -> dict:
    trace = result["trace"]
    untraced, traced = result["untraced"], result["traced"]
    rate = [len(phase["latencies_s"]) / phase["wall_s"] for phase in (untraced, traced)]
    layers = sum(v for name, v in trace.items() if name.endswith("_ms") and name != "trace.count_ms")
    print(
        f"traced {len(traced['latencies_s'])} counts; layer self times sum to "
        f"{layers:.4f} ms of {trace['trace.count_ms']:.4f} ms per count",
        file=sys.stderr,
    )
    for name in result["absent"]:
        print(f"absent: kncomp.{name} (its layer reads 0)", file=sys.stderr)
    units = {"graph.edges": "count", "qt_engine.nodes": "count", "cli.tau_digits": "count",
             "cli.engine_share": "ratio", "trace.absent_functions": "count"}
    metrics = {name: _metric(value, units.get(name, "ms")) for name, value in trace.items()}
    metrics["trace.overhead_pct"] = _metric(100.0 * (rate[0] - rate[1]) / rate[0], "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark kncomp count, end to end and per layer.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kncomp" / "__init__.py").is_file():
        print(f"error: no kncomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    directory = HERE / "work" / args.workload
    shutil.rmtree(directory, ignore_errors=True)

    setups = 1 if args.trace else 1 + SETUPS
    setup_times = [timed_setup(args.workload, args.seed, directory, deadline) for _ in range(setups)][1:]
    proc = _worker(
        ["run", "--dir", str(directory), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    result = json.loads(_finish(proc, deadline).splitlines()[-1])

    problems = check_answers(directory, result["answers"])
    for line in result["errors"] + problems:
        print(line, file=sys.stderr)
    phases = [result[p] for p in ("untraced", "traced", "timed") if p in result]
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result["timed"], setup_times, result["peak_rss_mb"])
    summary = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
