"""Command-line front end: count, verify, bench.

Exit codes: 0 success, 1 input/validation/usage errors or standard output
closed early, 2 method precondition unmet without fallback, 3 verification
mismatch.
"""

import argparse
import functools
import json
import os
import random
import sys
import time
from collections import namedtuple

from . import oracle, qt_engine, tree_engine
from .arith import ExactField, PrimeField, decimal_text, random_prime
from .graph import (
    EdgeListParseError,
    Graph,
    Problem,
    check_host_size,
    complement_in_host,
    parse_edge_list,
)
from .graph import is_tree  # noqa: F401 -- unused; perfbench/test_tracing.py patches it here
from .qt_engine import NotQuasiThresholdError

DEFAULT_SEED = 20240915
ENGINE_METHODS = ("tree", "qt", "csplit")
ORACLE_METHODS = ("kirchhoff", "cst-matrix", "enumerate")
BENCH_FAMILIES = ("path", "star", "caterpillar", "random-tree", "random-qt")
NOT_A_TREE = "--method tree: subtrahend is not a tree"
NOT_CSPLIT = "--method csplit: subtrahend is not a complete split graph"


class CliError(Exception):
    exit_code = 1


class PreconditionError(CliError):
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors: here 2 means a method precondition."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class CountResult(
    namedtuple("CountResult", "tau method_used fallback_reason elapsed_ms n k_or_p")
):
    """One count's answer: tau, the method used, the fallback reason or None,
    the count's time in ms, the host size n and the subtrahend's order."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "tau": decimal_text(self.tau),
                "method_used": self.method_used,
                "fallback_reason": self.fallback_reason,
                "elapsed_ms": round(self.elapsed_ms, 3),
                "n": self.n,
                "k_or_p": self.k_or_p,
            }
        )


def _seed() -> int:
    raw = os.environ.get("KNCOMP_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"KNCOMP_SEED must be an integer, got {raw!r}") from None


def _load_problem(args, method: str) -> Problem:
    """Build the Problem from --h or --csplit for `method`, the count's
    --method or verify's --against. A complete split graph is built only
    once n passes the host check and, for enumeration, that oracle's guard."""
    if args.h is not None:
        try:
            with open(args.h, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {args.h}: {exc}") from None
        try:
            h = parse_edge_list(text)
        except EdgeListParseError as exc:
            raise CliError(f"{args.h}: {exc}") from None
    else:
        sizes = _csplit_sizes(args)
        if method == "enumerate":
            _check_enumerable(args.n)
        h = oracle.csplit_graph(*sizes)
    try:
        return Problem(args.n, h)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _csplit_sizes(args) -> tuple[int, int]:
    """(K, S) from --csplit 'K,S', once the host K_n holds K + S vertices."""
    parts = args.csplit.split(",")
    if len(parts) != 2:
        raise CliError(f"--csplit expects 'K,S', got {args.csplit!r}")
    try:
        size_k, size_s = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"--csplit expects integers, got {args.csplit!r}") from None
    if size_k < 1 or size_s < 0:
        raise CliError("--csplit needs K >= 1 and S >= 0")
    try:
        check_host_size(args.n, size_k + size_s)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return size_k, size_s


def _graphless_csplit(args) -> tuple[list, list] | None:
    """The node layout when `count --csplit K,S` counts from it alone, else None.

    An oracle needs the graph. So does a tree (K = 1, or K = 2 with S = 0)
    under auto or tree, which the tree engine counts; its graph has linear
    size. The graph of any other complete split subtrahend has order
    K^2 + K*S edges, which the count does not need.
    """
    if args.csplit is None or args.method in ORACLE_METHODS:
        return None
    size_k, size_s = _csplit_sizes(args)
    if args.method in ("auto", "tree") and (size_k == 1 or (size_k, size_s) == (2, 0)):
        return None
    return oracle.csplit_layout(size_k, size_s)


def _run_oracle(method: str, problem: Problem) -> int:
    if method == "kirchhoff":
        return oracle.kirchhoff_count(complement_in_host(problem))
    if method == "cst-matrix":
        return oracle.cst_matrix_count(problem)
    if method == "enumerate":
        _check_enumerable(problem.n)
        return oracle.enumerate_count(complement_in_host(problem))
    raise CliError(f"unknown method {method!r}")


def _check_enumerable(n: int) -> None:
    """The enumeration oracle's guard on the host size."""
    if n > oracle.ENUMERATION_LIMIT:
        raise CliError(
            f"enumeration guard: n = {n} exceeds {oracle.ENUMERATION_LIMIT} vertices"
        )


def _run(method: str, problem: Problem) -> tuple[int, str, str | None]:
    """Count with `method`; returns (tau, method_used, fallback_reason).

    `auto` tries tree, then builds the quasi-threshold node tree once and
    counts it with `_run_layout`; it falls back to the Kirchhoff oracle,
    with the reason recorded, when H is not quasi-threshold or is
    disconnected. An explicit method never falls back: an unmet
    precondition is a PreconditionError.
    """
    if method in ORACLE_METHODS:
        return _run_oracle(method, problem), method, None
    auto = method == "auto"
    if auto or method == "tree":
        try:
            return tree_engine.count_kn_minus_tree(problem), "tree", None
        except tree_engine.NotATreeError:
            if not auto:
                raise PreconditionError(NOT_A_TREE) from None
    # method is auto, qt or csplit
    try:
        ct = qt_engine.recognize_and_build_cent_tree(problem.h)
    except ValueError as exc:  # NotQuasiThresholdError, or H is disconnected
        if method == "csplit":
            raise PreconditionError(NOT_CSPLIT) from None
        if method == "qt":
            raise PreconditionError(f"--method qt: {exc}") from None
        if isinstance(exc, NotQuasiThresholdError):
            reason = "subtrahend is not quasi-threshold"
        else:
            reason = "subtrahend is disconnected"
        return oracle.kirchhoff_count(complement_in_host(problem)), "kirchhoff", reason
    return _run_layout(method, ct.parents, ct.mults, problem.n)


def _run_layout(method: str, parents, mults, n: int) -> tuple[int, str, None]:
    """Count a quasi-threshold subtrahend, not a tree, from its node layout
    with engine `method`: labelled `csplit` when the layout is complete
    split and `method` is not qt, else `qt`."""
    if method == "tree":
        raise PreconditionError(NOT_A_TREE)
    split = qt_engine.is_complete_split(parents, mults)
    if method == "csplit" and not split:
        raise PreconditionError(NOT_CSPLIT)
    used = "csplit" if split and method != "qt" else "qt"
    return qt_engine.count_layout(parents, mults, n), used, None


def cmd_count(args) -> int:
    layout = _graphless_csplit(args)
    problem = None if layout else _load_problem(args, args.method)
    start = time.perf_counter()
    if layout:
        n, p = args.n, sum(layout[1])
        tau, used, reason = _run_layout(args.method, *layout, n)
    else:
        n, p = problem.n, problem.h.vertex_count
        tau, used, reason = _run(args.method, problem)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(CountResult(tau, used, reason, elapsed_ms, n, p).to_json())
    if args.verbose:
        print(
            f"tau(K_{n} - H) = {decimal_text(tau)} via {used}"
            + (f" (fallback: {reason})" if reason else "")
            + f" in {elapsed_ms:.3f} ms",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args, args.against)
    engine_tau, used, _ = _run(args.method, problem)
    if args.debug_force_wrong:
        engine_tau += 1
    oracle_tau = _run_oracle(args.against, problem)
    equal = engine_tau == oracle_tau
    print(
        json.dumps(
            {
                "engine": decimal_text(engine_tau),
                "oracle": decimal_text(oracle_tau),
                "method": used,
                "against": args.against,
                "equal": equal,
            }
        )
    )
    return 0 if equal else 3


def _bench_instance(family: str, size: int, seed: int) -> Graph:
    if family == "path":
        return oracle.path_graph(size)
    if family == "star":
        return oracle.star_graph(size)
    if family == "caterpillar":
        return oracle.caterpillar_graph(size)
    if family == "random-tree":
        return oracle.random_labeled_tree(size, seed + size)
    if family == "random-qt":
        return oracle.random_qt_graph(size, 3, seed + size)
    raise CliError(f"unknown family {family!r}")


def bench_once(family: str, size: int, seed: int, mod_p: bool) -> tuple[float, int, int]:
    """Time one engine run (decomposition + recursion + product, as
    `tree_engine.st_tau` or `qt_engine.cent_tau`) and report
    (milliseconds, field multiply/divide operations, vertices of the
    instance). The instance build is excluded from the timing.

    With mod_p the run is in one prime field, whose 62-bit modulus is drawn
    from seed ^ size; otherwise it is in exact rationals. A pivot that
    vanishes raises ZeroDivisionError.
    """
    h = _bench_instance(family, size, seed)
    n = h.vertex_count
    if mod_p:
        field = PrimeField(random_prime(rng=random.Random(seed ^ size)))
    else:
        field = ExactField()
    start = time.perf_counter()
    if family == "random-qt":
        qt_engine.cent_tau(qt_engine.recognize_and_build_cent_tree(h), n, field)
    else:
        tree_engine.st_tau(h, n, field)
    return (time.perf_counter() - start) * 1000.0, field.ops, n


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise CliError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise CliError("--sizes needs positive integers")
    seed = _seed()
    print("size,millis,ops,p")
    for size in sizes:
        try:
            millis, ops, p = bench_once(args.family, size, seed, args.mod_p)
        except ZeroDivisionError as exc:
            raise CliError(f"{args.family} size {size}: a pivot vanished ({exc})") from None
        print(f"{size},{millis:.3f},{ops},{p}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kncomp` argument parser, built once per process and shared.

    Parsing leaves the parser unchanged, so every `main` call reuses it.
    """
    parser = _Parser(
        prog="kncomp",
        description="Exact spanning-tree counts of K_n minus a subtrahend graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--n", type=int, required=True, help="host size of K_n")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--h", help="edge-list file for the subtrahend H")
        group.add_argument("--csplit", help="complete split subtrahend as 'K,S'")

    count = sub.add_parser("count", help="count spanning trees of K_n - H")
    add_input(count)
    count.add_argument(
        "--method",
        choices=("auto",) + ENGINE_METHODS + ORACLE_METHODS,
        default="auto",
    )
    count.add_argument("--verbose", action="store_true")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser("verify", help="compare an engine against an oracle")
    add_input(verify)
    verify.add_argument(
        "--method", choices=("auto",) + ENGINE_METHODS, required=True
    )
    verify.add_argument("--against", choices=ORACLE_METHODS, required=True)
    verify.add_argument(
        "--debug-force-wrong", action="store_true", help=argparse.SUPPRESS
    )
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time an engine across instance sizes")
    bench.add_argument("--family", choices=BENCH_FAMILIES, required=True)
    bench.add_argument("--sizes", required=True, help="comma-separated sizes")
    bench.add_argument(
        "--mod-p",
        action="store_true",
        help="run in a random 62-bit prime field (fixed word cost, no bigints)",
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Standard output closed early. Point its descriptor at devnull so
        # that the interpreter's final flush of what is left raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
