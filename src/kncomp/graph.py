"""Simple undirected graphs on vertex set {1..k}: parsing, queries, complements.

The edge-list text format is a header line "k m" followed by m lines "u v"
with 1-indexed endpoints. The serializer writes edges in lexicographic
order, so parse/serialize round-trips are exact.

The parser takes lines as str.splitlines() breaks them, tokens as str.split()
separates them and integers as int() reads them: each line after the header
is blank or holds two tokens. It reads any text it accepts in place, one
window of lines at a time, and builds its Graph there. Only text it rejects
is read again, line by line in the same windows, to report the first
malformed line. Canonical text, which the serializer writes, has "k m" and
every "u v" in plain decimal without leading zeros, one space inside each
line and "\n" after it; one pattern checks a window of it.
"""

import operator
import re
from bisect import bisect_right
from collections import defaultdict, namedtuple
from itertools import repeat

__all__ = [
    "Graph",
    "Problem",
    "EdgeListParseError",
    "parse_edge_list",
    "serialize_edge_list",
    "is_connected",
    "is_tree",
    "complement_in_host",
    "check_host_size",
]


MAX_VERTEX_COUNT = 10**7
# Canonical lines, which this pattern checks faster than splitting them does.
_CANONICAL_LINES = re.compile(r"(?:[1-9][0-9]{0,7} [1-9][0-9]{0,7}\n)*")
# The line breaks of str.splitlines(), "\r\n" one of them; windows are cut
# after one, so a window never ends between "\r" and "\n". Leading with the
# class keeps a search as fast as the class alone, which "\r\n|[...]" is not.
_BREAK = re.compile(r"[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029](?:(?<=\r)\n)?")
# The parser checks and splits the lines after the header this many
# characters at a time, cut after a line break, so neither their tokens nor
# the matcher's stack (about 180 bytes a line: 0.35 MB for a 16 KiB window
# of 1,860 canonical lines, 16 MB for 90,000) scale with the file.
_CHUNK_CHARS = 1 << 14


class EdgeListParseError(ValueError):
    """Malformed edge-list text; `line_no` is 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable simple undirected graph with vertices 1..vertex_count.

    Neighbor lists are kept sorted, so every iteration order downstream
    (peeling levels, labels) is deterministic.
    """

    __slots__ = ("vertex_count", "edge_count", "_adj")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError(f"negative vertex count {vertex_count}")
        adj = [[] for _ in range(vertex_count + 1)]
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{vertex_count}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        self._freeze(vertex_count, adj)

    @classmethod
    def _from_lists(cls, vertex_count: int, adj) -> "Graph":
        """The Graph of the neighbor lists `adj`, taken as `_freeze` takes
        them. The caller builds lists that are symmetric and in range;
        `_freeze` still raises ValueError for a duplicate edge or a loop."""
        g = cls.__new__(cls)
        g._freeze(vertex_count, adj)
        return g

    def _freeze(self, vertex_count: int, adj) -> None:
        """Take the neighbor lists `adj`: a list indexed by vertex (index 0
        unused), or a dict of only the vertices that have neighbors, the rest
        sharing the empty tuple. Each list is sorted and replaced by its
        tuple in place, so the lists and the tuples never coexist.

        A duplicate edge (u, v) shows as a repeated neighbor in the sorted
        list of u, and a loop (v, v) as v twice in the list of v; scanning u
        upward meets either first at u = min(u, v) and raises ValueError.
        """
        sparse = isinstance(adj, dict)
        for u, ns in adj.items() if sparse else enumerate(adj):
            ns.sort()
            adj[u] = tuple(ns)
        if sparse:
            # map() gives tuple() no length, so its result grows in steps of
            # a quarter; but no list of all the vertices is made, which for a
            # header such as "10000000 0" would be as large as the graph.
            self._adj = tuple(map(adj.get, range(vertex_count + 1), repeat(())))
            adj = adj.values()
        else:
            # From a list, tuple() allocates its result once.
            self._adj = tuple(adj)
        degree_sum = sum(map(len, adj))
        if sum(map(len, map(set, adj))) != degree_sum:
            u, ns = next((u, ns) for u, ns in enumerate(self._adj) if len(set(ns)) != len(ns))
            v = next(w for w, x in zip(ns, ns[1:]) if w == x)
            raise ValueError(f"duplicate edge {(u, v)}")
        self.vertex_count = vertex_count
        self.edge_count = degree_sum // 2

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def neighbors(self, v: int) -> tuple:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u in self.vertices() for v in self._adj[u] if u < v]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self._adj == other._adj

    def __hash__(self):
        return hash((self.vertex_count, self._adj))

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def parse_edge_list(text: str) -> Graph:
    """Parse "k m" header plus m "u v" lines into a validated Graph.

    Every malformed input raises EdgeListParseError carrying the offending
    line number: bad header, k < 1 or k > MAX_VERTEX_COUNT, non-integer
    tokens, loops, duplicate edges, out-of-range endpoints, or an edge count
    that contradicts the header. Blank lines are ignored, and any whitespace
    separates tokens.
    """
    g = _read(text)
    if g is None:
        _scan_lines(text)
        raise AssertionError("the line scan accepts text that _read rejects")
    return g


def _read(text: str) -> Graph | None:
    """The Graph of `text`, or None for text that fails a check after its
    header line, whose errors `_header` raises.

    Reads `text` in place: only the header and one window at a time are
    copied, so the peak is about the text plus the graph.
    """
    k, m, start = _head(text)
    adj, table = _lists(k, m, text, start)
    for window in _windows(text, start):
        if not (
            _CANONICAL_LINES.fullmatch(window)
            or {0, 2}.issuperset(map(len, map(str.split, window.splitlines())))
        ):
            return None
        tokens = window.split()
        try:
            # Two or more names of 1..k: a tuple of their vertices comes back.
            values = operator.itemgetter(*tokens)(table)
        except (KeyError, TypeError):  # another token, or none
            try:
                values = list(map(int, tokens))
            except ValueError:  # not an integer to int()
                return None
            if values and (min(values) < 1 or max(values) > k):
                return None
        pairs = iter(values)
        for u, v in zip(pairs, pairs):
            adj[u].append(v)
            adj[v].append(u)
    try:
        g = Graph._from_lists(k, adj)
    except ValueError:  # a duplicate edge or a loop
        return None
    return g if g.edge_count == m else None


def _head(text: str) -> tuple[int, int, int]:
    """k and m from the header line of `text`, and where the line after it
    starts; `_header` raises for a malformed header."""
    cut = _BREAK.search(text)
    if cut is None:
        return (*_header(text), len(text))
    return (*_header(text[: cut.start()]), cut.end())


def _windows(text: str, start: int):
    """The lines of `text` from `start` on, _CHUNK_CHARS characters and the
    rest of a line at a time: each window but the last ends in a break."""
    while start < len(text):
        cut = _BREAK.search(text, start + _CHUNK_CHARS)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _lists(k: int, m: int, text: str, start: int):
    """Empty neighbor lists for `Graph._freeze` of the k vertices and at most
    m edges of `text`, whose lines start at `start`, and a table of the
    names of 1..k that reads endpoints, checks their range and shares their
    ints; the table is empty when the lists are a dict.

    A line "u v" and its break take at least four characters, so the text
    bounds the edges and a header cannot size the lists alone. When k is at
    most twice that bound, the text is larger than a list per vertex and
    than the table; a larger k, such as a header "10000000 1", gets a dict
    that lists the vertices an edge touches only.
    """
    if k > 2 * min(m, (len(text) - start + 1) // 4):
        return defaultdict(list), {}
    return [[] for _ in range(k + 1)], {str(v): v for v in range(1, k + 1)}


def _header(line: str) -> tuple[int, int]:
    """k and m from `line`, the first line of an edge list; raises
    EdgeListParseError for a malformed header."""
    if not line.strip():
        raise EdgeListParseError(1, "missing 'k m' header")
    header = line.split(maxsplit=2)  # a third token is enough to reject
    if len(header) != 2:
        raise EdgeListParseError(1, f"expected 'k m' header, got {_quote(line)}")
    try:
        k, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(1, f"non-integer header fields {_quote(line)}") from None
    if k < 1:
        raise EdgeListParseError(1, f"vertex count must be at least 1, got {k}")
    if k > MAX_VERTEX_COUNT:
        # Checked before any neighbor lists are allocated. A count with
        # n >= k this large would have over 7 * 10^7 digits.
        raise EdgeListParseError(
            1, f"vertex count {k} exceeds the limit of {MAX_VERTEX_COUNT}"
        )
    if m < 0:
        raise EdgeListParseError(1, f"negative edge count {m}")
    return k, m


def _scan_lines(text: str) -> None:
    """The line scan behind parse_edge_list's errors: raises
    EdgeListParseError for the first malformed line of `text`, if any.

    Walks the reader's windows, so it holds one window's lines at a time.
    Every edge before the first other error goes into neighbor lists that
    share their ints through the reader's name table, as the reader's own
    do; sorted, as `Graph._freeze` sorts them, they show the pairs that
    repeat, and only if some pair does is the text read again to name the
    first line that repeats one.
    """
    k, m, start = _head(text)
    adj, table = _lists(k, m, text, start)
    edges = 0
    error = None
    line_no = 1
    try:
        for line_no, edge in _edges(text, start, k, table):
            if edge:
                u, v = edge
                adj[u].append(v)
                adj[v].append(u)
                edges += 1
    except EdgeListParseError as exc:
        error = exc
    repeated = _repeated_pairs(adj)
    if repeated:
        seen = set()
        for line_no, edge in _edges(text, start, k, table):
            if edge in repeated:
                if edge in seen:
                    raise EdgeListParseError(line_no, f"duplicate edge {edge}")
                seen.add(edge)
    if error:
        raise error
    if edges != m:
        raise EdgeListParseError(line_no, f"header promised {m} edges, found {edges}")


def _edges(text: str, start: int, k: int, table: dict):
    """(line number, edge) for every line of `text` from `start` on, which
    is line 2: the line's edge (u, v), u < v, with the ints of `table` for
    the names it holds, or None for a blank line. Raises EdgeListParseError
    at the first malformed line."""
    lines = (line for window in _windows(text, start) for line in window.splitlines())
    for line_no, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            yield line_no, None
            continue
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected 'u v', got {_quote(line)}")
        a, b = parts
        try:
            u = table.get(a) or int(a)
            v = table.get(b) or int(b)
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer endpoint in {_quote(line)}") from None
        if u == v:
            raise EdgeListParseError(line_no, f"loop at vertex {u}")
        if not (1 <= u <= k) or not (1 <= v <= k):
            raise EdgeListParseError(line_no, f"endpoint out of range 1..{k} in ({u}, {v})")
        yield line_no, (u, v) if u < v else (v, u)


def _repeated_pairs(adj) -> set:
    """The pairs (u, v), u < v, that the neighbor lists `adj` hold more than
    once; sorts each list in place."""
    repeated = set()
    for u, ns in adj.items() if isinstance(adj, dict) else enumerate(adj):
        if len(set(ns)) != len(ns):
            ns.sort()
            repeated.update((u, v) for v, w in zip(ns, ns[1:]) if v == w and u < v)
    return repeated


def _quote(line: str) -> str:
    """`line` for an error message: whole up to 40 characters, else its
    first 40 and its length."""
    return repr(line) if len(line) <= 40 else f"{line[:40]!r}... ({len(line)} characters)"


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in lexicographic order.

    A graph with at least four edges per vertex is written one vertex at a
    time: one join writes the lines "u v" of every upper neighbor v of u,
    with v's name from a table of the names of 0..k. A join costs about as
    much as four f-strings, so a sparser graph, such as a tree, whose
    vertices have one or two upper neighbors, gets one f-string per edge.
    """
    out = [f"{g.vertex_count} {g.edge_count}"]
    if g.edge_count < 4 * g.vertex_count:
        out += [f"{u} {v}" for u, ns in enumerate(g._adj) for v in ns if u < v]
    else:
        names = list(map(str, range(g.vertex_count + 1)))
        for u, ns in enumerate(g._adj):
            upper = ns[bisect_right(ns, u) :]
            if upper:
                sep = f"\n{u} "
                out.append(sep[1:] + sep.join(map(names.__getitem__, upper)))
    out.append("")
    return "\n".join(out)


def is_connected(g: Graph) -> bool:
    """BFS connectivity; a single vertex is connected."""
    if g.vertex_count <= 1:
        return True
    seen = [False] * (g.vertex_count + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                reached += 1
                stack.append(u)
    return reached == g.vertex_count


def is_tree(g: Graph) -> bool:
    """Connected with exactly k-1 edges."""
    return (
        g.vertex_count >= 1
        and g.edge_count == g.vertex_count - 1
        and is_connected(g)
    )


class Problem(namedtuple("Problem", "n h")):
    """The pair (n, h): count spanning trees of K_n minus the subtrahend h."""

    __slots__ = ()

    def __new__(cls, n: int, h: Graph):
        check_host_size(n, h.vertex_count)
        return super().__new__(cls, n, h)


def check_host_size(n: int, p: int) -> None:
    """Raise ValueError unless a host K_n, at most MAX_VERTEX_COUNT vertices,
    can hold a subtrahend on p vertices."""
    if n < 1:
        raise ValueError(f"host size must be at least 1, got {n}")
    if n > MAX_VERTEX_COUNT:
        raise ValueError(f"host size {n} exceeds the limit of {MAX_VERTEX_COUNT}")
    if p > n:
        raise ValueError(f"subtrahend has {p} vertices but the host has only {n}")


def complement_in_host(problem: Problem) -> Graph:
    """Explicit K_n minus h on all n host vertices: the neighbors of host
    vertex u are 1..n less u and its neighbors in h, taken as runs.

    Oracle use only: the counting engines never materialize the complement.
    """
    n, h = problem.n, problem.h
    adj = [[]]
    for u in range(1, n + 1):
        cuts = sorted((*h.neighbors(u), u)) if u <= h.vertex_count else (u,)
        ns = []
        start = 1
        for v in cuts:
            ns += range(start, v)
            start = v + 1
        ns += range(start, n + 1)
        adj.append(ns)
    return Graph._from_lists(n, adj)
