"""Command-line front end: count, verify, bench.

Exit codes: 0 success, 1 input/validation errors, 2 method precondition
unmet without fallback, 3 verification mismatch.
"""

import argparse
import functools
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import oracle, qt_engine, tree_engine
from .arith import ExactField, PrimeField, random_prime
from .graph import EdgeListParseError, Graph, Problem, complement_in_host, parse_edge_list
from .graph import is_tree  # noqa: F401 -- unused; perfbench/test_tracing.py patches it here
from .qt_engine import NotQuasiThresholdError

DEFAULT_SEED = 20240915
ENGINE_METHODS = ("tree", "qt", "csplit")
ORACLE_METHODS = ("kirchhoff", "cst-matrix", "enumerate")
BENCH_FAMILIES = ("path", "star", "caterpillar", "random-tree", "random-qt")


class CliError(Exception):
    exit_code = 1


class PreconditionError(CliError):
    exit_code = 2


@contextmanager
def _no_int_digit_limit():
    """Lift CPython's int<->decimal digit limit (3.10.7+) for the block.

    Counts routinely exceed the default 4300 digits. The limit is
    interpreter-wide, so it is restored on exit: `main` also runs in-process
    inside other programs.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@dataclass
class CountResult:
    tau: int
    method_used: str
    fallback_reason: str | None
    elapsed_ms: float
    n: int
    k_or_p: int

    def to_json(self) -> str:
        with _no_int_digit_limit():
            tau = str(self.tau)
        return json.dumps(
            {
                "tau": tau,
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


def _load_problem(args) -> Problem:
    """Build the Problem from --h or --csplit."""
    if args.h is not None:
        try:
            with open(args.h, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.h}: {exc}") from None
        try:
            h = parse_edge_list(text)
        except EdgeListParseError as exc:
            raise CliError(f"{args.h}: {exc}") from None
    else:
        parts = args.csplit.split(",")
        if len(parts) != 2:
            raise CliError(f"--csplit expects 'K,S', got {args.csplit!r}")
        try:
            size_k, size_s = int(parts[0]), int(parts[1])
        except ValueError:
            raise CliError(f"--csplit expects integers, got {args.csplit!r}") from None
        if size_k < 1 or size_s < 0:
            raise CliError("--csplit needs K >= 1 and S >= 0")
        h = oracle.csplit_graph(size_k, size_s)
    try:
        return Problem(args.n, h)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_oracle(method: str, problem: Problem) -> int:
    if method == "kirchhoff":
        return oracle.kirchhoff_count(complement_in_host(problem))
    if method == "cst-matrix":
        return oracle.cst_matrix_count(problem)
    if method == "enumerate":
        if problem.n > oracle.ENUMERATION_LIMIT:
            raise CliError(
                f"enumeration guard: n = {problem.n} exceeds "
                f"{oracle.ENUMERATION_LIMIT} vertices"
            )
        return oracle.enumerate_count(complement_in_host(problem))
    raise CliError(f"unknown method {method!r}")


def _run(method: str, problem: Problem) -> tuple[int, str, str | None]:
    """Count with `method`; returns (tau, method_used, fallback_reason).

    `auto` tries tree, then complete split, then quasi-threshold, and falls
    back to the Kirchhoff oracle with the reason recorded. An explicit
    method never falls back: an unmet precondition is a PreconditionError.
    """
    if method in ORACLE_METHODS:
        return _run_oracle(method, problem), method, None
    auto = method == "auto"
    if auto or method == "tree":
        try:
            return tree_engine.count_kn_minus_tree(problem), "tree", None
        except tree_engine.NotATreeError:
            if not auto:
                raise PreconditionError("--method tree: subtrahend is not a tree") from None
    if auto or method == "csplit":
        sizes = qt_engine.complete_split_sizes(problem.h)
        if sizes is not None:
            return qt_engine.count_kn_minus_csplit(problem.n, *sizes), "csplit", None
        if not auto:
            raise PreconditionError(
                "--method csplit: subtrahend is not a complete split graph"
            )
    # method is auto or qt
    try:
        return qt_engine.count_kn_minus_qt(problem), "qt", None
    except ValueError as exc:  # NotQuasiThresholdError, or H is disconnected
        if not auto:
            raise PreconditionError(f"--method qt: {exc}") from None
        if isinstance(exc, NotQuasiThresholdError):
            reason = "subtrahend is not quasi-threshold"
        else:
            reason = "subtrahend is disconnected"
    tau = oracle.kirchhoff_count(complement_in_host(problem))
    return tau, "kirchhoff", reason


def cmd_count(args) -> int:
    problem = _load_problem(args)
    start = time.perf_counter()
    tau, used, reason = _run(args.method, problem)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    result = CountResult(
        tau=tau,
        method_used=used,
        fallback_reason=reason,
        elapsed_ms=elapsed_ms,
        n=problem.n,
        k_or_p=problem.h.vertex_count,
    )
    print(result.to_json())
    if args.verbose:
        with _no_int_digit_limit():
            print(
                f"tau(K_{problem.n} - H) = {tau} via {used}"
                + (f" (fallback: {reason})" if reason else "")
                + f" in {elapsed_ms:.3f} ms",
                file=sys.stderr,
            )
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args)
    engine_tau, used, _ = _run(args.method, problem)
    if args.debug_force_wrong:
        engine_tau += 1
    oracle_tau = _run_oracle(args.against, problem)
    equal = engine_tau == oracle_tau
    with _no_int_digit_limit():
        print(
            json.dumps(
                {
                    "engine": str(engine_tau),
                    "oracle": str(oracle_tau),
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


def _tree_tau_in_field(h: Graph, n: int, field):
    dec = tree_engine.st_decompose(h)
    values = tree_engine.st_function(dec, n, field)
    total = field.ipow(n, n - 2 if n >= 2 else 0)
    for t in range(1, dec.vertex_count + 1):
        total = field.mul(total, values[t])
    return total


def _qt_tau_in_field(h: Graph, n: int, field):
    ct = qt_engine.recognize_and_build_cent_tree(h)
    values = qt_engine.cent_function(ct, n, field)
    total = field.ipow(n, n + ct.node_count - ct.vertex_count - 2)
    for i in range(1, ct.node_count + 1):
        node = ct.nodes[i]
        coeff = node.multiplicity * (n - node.degree - 1) ** (node.multiplicity - 1)
        total = field.mul(total, field.from_int(coeff))
        total = field.mul(total, values.phi[ct.labels[i]])
    return total


def bench_once(family: str, size: int, seed: int, mod_p: bool) -> tuple[float, int]:
    """Time one engine run (decomposition + recursion + product) and report
    (milliseconds, field multiply/divide operations). The instance build is
    excluded from the timing.

    With mod_p the run is in one prime field, whose 62-bit modulus is drawn
    from seed ^ size; otherwise it is in exact rationals. A pivot that
    vanishes raises ZeroDivisionError.
    """
    h = _bench_instance(family, size, seed)
    n = h.vertex_count
    runner = _qt_tau_in_field if family == "random-qt" else _tree_tau_in_field
    if mod_p:
        field = PrimeField(random_prime(rng=random.Random(seed ^ size)))
    else:
        field = ExactField()
    start = time.perf_counter()
    runner(h, n, field)
    return (time.perf_counter() - start) * 1000.0, field.ops


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise CliError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise CliError("--sizes needs positive integers")
    seed = _seed()
    print("size,millis,ops")
    for size in sizes:
        try:
            millis, ops = bench_once(args.family, size, seed, args.mod_p)
        except ZeroDivisionError as exc:
            raise CliError(f"{args.family} size {size}: a pivot vanished ({exc})") from None
        print(f"{size},{millis:.3f},{ops}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kncomp` argument parser, built once per process and shared.

    Parsing leaves the parser unchanged, so every `main` call reuses it.
    """
    parser = argparse.ArgumentParser(
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
