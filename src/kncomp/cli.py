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
from .arith import ExactField, PrimeField, decimal_text, random_prime, tau_from_determinant
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
BENCH_FAMILIES = ("path", "star", "caterpillar", "random-tree", "random-qt")
NOT_A_TREE = "--method tree: subtrahend is not a tree"
NOT_CSPLIT = "--method csplit: subtrahend is not a complete split graph"
# One row per oracle: its name in guard messages, the size its guard bounds
# (the host's n or the subtrahend's p), the limit, and its tau of a Problem,
# which looks its functions up as it runs, so a patched one is called.
_Oracle = namedtuple("_Oracle", "name symbol limit tau")
_ORACLES = {
    "kirchhoff": _Oracle(
        "kirchhoff", "n", oracle.KIRCHHOFF_LIMIT,
        lambda problem: oracle.kirchhoff_count(complement_in_host(problem)),
    ),
    "cst-matrix": _Oracle(
        "cst-matrix", "p", oracle.CST_MATRIX_LIMIT,
        lambda problem: oracle.cst_matrix_count(problem),
    ),
    "enumerate": _Oracle(
        "enumeration", "n", oracle.ENUMERATION_LIMIT,
        lambda problem: oracle.enumerate_count(complement_in_host(problem)),
    ),
}
ORACLE_METHODS = tuple(_ORACLES)


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


def _subtrahend(args, method: str):
    """The subtrahend of --h or --csplit for `method`, the count's --method
    or verify's --against, and its order p. The subtrahend is the node
    layout (parents, mults) of `--csplit K,S` for an engine, which labels
    and counts it from the layout alone, else the Problem.

    The host size and an oracle's guard are checked before a file is read
    or a graph is built; cst-matrix's guard on the order of a file's H is
    checked once H is loaded, before its matrix is built. Only an oracle
    needs the graph of a complete split subtrahend, which has K^2 + K*S
    edges.
    """
    sizes = None if args.csplit is None else _csplit_sizes(args.csplit)
    p = sum(sizes) if sizes else 0
    try:
        check_host_size(args.n, p)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if sizes and method not in ORACLE_METHODS:
        return oracle.csplit_layout(*sizes), p
    _check_oracle_size(method, args.n, p)
    if sizes:
        h = oracle.csplit_graph(*sizes)
    else:
        try:
            with open(args.h, encoding="utf-8") as fh:
                h = parse_edge_list(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read {args.h}: {exc}") from None
        except EdgeListParseError as exc:
            raise CliError(f"{args.h}: {exc}") from None
    try:
        problem = Problem(args.n, h)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _check_oracle_size(method, args.n, h.vertex_count)
    return problem, h.vertex_count


def _check_oracle_size(method: str, n: int, p: int, fallback_reason=None) -> None:
    """CliError when `method` is an oracle and n or p exceeds its guard; an
    auto count that falls back to the oracle gives its reason."""
    if method not in _ORACLES:
        return
    name, symbol, limit, _ = _ORACLES[method]
    size = n if symbol == "n" else p
    if size > limit:
        why = f" (auto fell back: {fallback_reason})" if fallback_reason else ""
        raise CliError(f"{name} guard: {symbol} = {size} exceeds {limit} vertices{why}")


def _csplit_sizes(spec: str) -> tuple[int, int]:
    """(K, S) from the --csplit text 'K,S'."""
    parts = spec.split(",")
    if len(parts) != 2:
        raise CliError(f"--csplit expects 'K,S', got {spec!r}")
    try:
        size_k, size_s = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"--csplit expects integers, got {spec!r}") from None
    if size_k < 1 or size_s < 0:
        raise CliError("--csplit needs K >= 1 and S >= 0")
    return size_k, size_s


def _run(method: str, subtrahend, n: int) -> tuple[int, str, str | None]:
    """Count K_n minus `subtrahend`, a Problem or a node layout (parents,
    mults), with `method`; returns (tau, method_used, fallback_reason).

    An oracle returns tau itself. An engine returns det(n*I_p - L(H)) for
    the p-vertex H, and tau = n^(n-p-2) * det is assembled here, once per
    count, by `tau_from_determinant`. A Problem goes to an oracle, or under
    auto and tree to `tree_engine.tree_determinant`. Otherwise its node
    layout is built and evaluated by `qt_engine.layout_determinant`, labelled
    as below; under auto, H not quasi-threshold or disconnected goes, with
    the reason recorded, to the Kirchhoff oracle while n is within its
    guard, else to cst-matrix unless p exceeds that oracle's guard. A layout
    is labelled `tree` under auto and tree when its graph is a tree:
    complete split with a one-member root, or one node of at most 2 members.
    Else it is `csplit` when complete split and the method is not qt, else
    `qt`. An explicit method never falls back: an unmet precondition is a
    PreconditionError.
    """
    auto = method == "auto"
    if isinstance(subtrahend, Problem):
        if method in ORACLE_METHODS:
            return _ORACLES[method].tau(subtrahend), method, None
        h = subtrahend.h
        if auto or method == "tree":
            try:
                det = tree_engine.tree_determinant(h, n)
            except tree_engine.NotATreeError:
                if not auto:
                    raise PreconditionError(NOT_A_TREE) from None
            else:
                return tau_from_determinant(n, h.vertex_count, det), "tree", None
        try:  # method is auto, qt or csplit
            ct = qt_engine.recognize_and_build_cent_tree(h)
        except ValueError as exc:  # NotQuasiThresholdError, or H is disconnected
            if method == "csplit":
                raise PreconditionError(NOT_CSPLIT) from None
            if method == "qt":
                raise PreconditionError(f"--method qt: {exc}") from None
            if isinstance(exc, NotQuasiThresholdError):
                reason = "subtrahend is not quasi-threshold"
            else:
                reason = "subtrahend is disconnected"
            used = "kirchhoff" if n <= oracle.KIRCHHOFF_LIMIT else "cst-matrix"
            _check_oracle_size(used, n, h.vertex_count, reason)
            return _ORACLES[used].tau(subtrahend), used, reason
        subtrahend = ct.parents, ct.mults
    parents, mults = subtrahend
    split = qt_engine.is_complete_split(parents, mults)
    tree = split and (mults[1] == 1 or len(mults) == 2 and mults[1] <= 2)
    if tree and (auto or method == "tree"):
        used = "tree"
    elif method == "tree":
        raise PreconditionError(NOT_A_TREE)
    elif method == "csplit" and not split:
        raise PreconditionError(NOT_CSPLIT)
    else:
        used = "csplit" if split and method != "qt" else "qt"
    det = qt_engine.layout_determinant(parents, mults, n)
    return tau_from_determinant(n, sum(mults), det), used, None


def cmd_count(args) -> int:
    n = args.n
    subtrahend, p = _subtrahend(args, args.method)
    start = time.perf_counter()
    tau, used, reason = _run(args.method, subtrahend, n)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    line = CountResult(tau, used, reason, elapsed_ms, n, p).to_json()
    print(line)
    if args.verbose:
        # The JSON line holds tau's text already; rendering it again would
        # take as long as the first time, 0.3 s at 499,990 digits.
        print(
            f"tau(K_{n} - H) = {json.loads(line)['tau']} via {used}"
            + (f" (fallback: {reason})" if reason else "")
            + f" in {elapsed_ms:.3f} ms",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args) -> int:
    problem, _ = _subtrahend(args, args.against)
    engine_tau, used, _ = _run(args.method, problem, args.n)
    if args.debug_force_wrong:
        engine_tau += 1
    oracle_tau = _ORACLES[args.against].tau(problem)
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
