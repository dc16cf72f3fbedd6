"""Simple undirected graphs on vertex set {1..k}: parsing, queries, complements.

The edge-list text format is a header line "k m" followed by m lines "u v"
with 1-indexed endpoints. The serializer writes edges in lexicographic
order, so parse/serialize round-trips are exact.

The parser takes lines as str.splitlines() breaks them, tokens as str.split()
separates them and integers as int() reads them: each line after the header
is blank or holds two tokens. A text, or a file that can seek, is read one
window of lines at a time, never whole, and the Graph is built there. Only
input it rejects is read again, from its start in the same windows, to
report the first malformed line; a pipe, which cannot be read twice, is read
whole first. Canonical text, which the serializer writes, has "k m" and
every "u v" in plain decimal without leading zeros, one space inside each
line and "\n" after it; a window of it is checked by deleting its digits.
"""

import operator
import os
import re
from bisect import bisect_right
from collections import defaultdict, deque, namedtuple
from itertools import chain, filterfalse, repeat

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
# The ASCII digits, which str.translate deletes from a window: a window of
# lines "u v\n" in digits leaves " \n" a line.
_DIGITS = str.maketrans("", "", "0123456789")
# The characters after which str.splitlines() breaks a line.
_BREAKS = r"[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]"
# A line break, "\r\n" one of them: where the header line ends.
_BREAK = re.compile(_BREAKS + r"(?:(?<=\r)\n)?")
# Everything up to the last line break of a piece of text, but for a "\r"
# that ends the piece: the next piece may open with its "\n", and a window
# cut between the two would hold a blank line too many.
_LAST_BREAK = re.compile(r"(?s:.*)" + _BREAKS + r"(?!(?<=\r)\Z)")
# The parser reads this many characters at a time and checks and splits
# the lines in windows cut after a line break, so their tokens do not
# scale with the file. A token takes about 60 bytes with its list slot:
# 0.06 MB for a 4 KiB window of 512 lines of the complete split graph
# csplit(1000, 1000), 0.26 MB for a 16 KiB one.
_CHUNK_CHARS = 1 << 12


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


def parse_edge_list(source) -> Graph:
    """Parse "k m" header plus m "u v" lines into a validated Graph.

    `source` is the text, or a text file open for reading. A text, or a file
    that can seek, is read from its start one window at a time, never whole:
    once to build the Graph and, only if that fails a check, again in the
    same windows to name the error. A decode error anywhere in a file raises
    before any other error, as in a read of the whole file. A file that
    cannot seek, such as a pipe, is read as one text at once.

    Every malformed input raises EdgeListParseError carrying the offending
    line number: bad header, k < 1 or k > MAX_VERTEX_COUNT, non-integer
    tokens, loops, duplicate edges, out-of-range endpoints, or an edge count
    that contradicts the header. Blank lines are ignored, and any whitespace
    separates tokens.
    """
    if not isinstance(source, str) and not source.seekable():
        source = source.read()
    g = _build(*_open(source))
    if g is None:
        _scan_lines(source)
        raise AssertionError("the line scan accepts text that the reader rejects")
    return g


def _open(source):
    """k and m from the header line of `source`, a text or a file, a bound
    on the characters after that line, and the windows of the lines after
    it. A malformed header raises, from a file only once the rest of it has
    been read, so that a decode error anywhere wins."""
    windows = _windows(source)
    first = next(windows)
    cut = _BREAK.search(first)
    start = cut.end() if cut else len(first)
    try:
        k, m = _header(first[: cut.start()] if cut else first)
    except EdgeListParseError:
        deque(windows, maxlen=0)  # reads a file to its end
        raise
    # A file's size in bytes is at least its length in characters.
    size = len(source) if isinstance(source, str) else os.fstat(source.fileno()).st_size
    return k, m, size - start, chain((first[start:],), windows)


def _windows(source):
    """The text of `source`, a text or a file read from its start, in pieces
    of _CHUNK_CHARS characters cut into windows after their last line break:
    the rest of a piece opens the next window, and a line that no piece
    breaks joins them. Each window but the last ends in a break."""
    if isinstance(source, str):
        pieces = (source[i : i + _CHUNK_CHARS] for i in range(0, len(source), _CHUNK_CHARS))
    else:
        source.seek(0)
        pieces = iter(lambda: source.read(_CHUNK_CHARS), "")
    carry = []
    try:
        for piece in pieces:
            cut = _LAST_BREAK.match(piece)
            if cut is None:
                carry.append(piece)
                continue
            carry.append(piece[: cut.end()])
            window = "".join(carry)
            carry = [piece[cut.end() :]]
            yield window
    except UnicodeDecodeError as exc:
        # The error counts bytes from the start of the piece that the file
        # object decoded; a read of the whole file counts from its start.
        raise _FileDecodeError(exc, source.buffer.tell() - len(exc.object)) from None
    yield "".join(carry)


class _FileDecodeError(UnicodeDecodeError):
    """`exc`, raised by a decoder given a file's bytes from `offset` on,
    worded with the positions in the file."""

    def __init__(self, exc: UnicodeDecodeError, offset: int):
        super().__init__(*exc.args)
        self.offset = offset

    def __str__(self):
        where = r"(?<=position )\d+|(?<=\d-)\d+"
        return re.sub(where, lambda n: str(int(n[0]) + self.offset), super().__str__())


def _build(k: int, m: int, size: int, windows) -> Graph | None:
    """The Graph of the header "k m" and the lines after it, at most `size`
    characters given as `windows` that each end after a line break, or
    None if a check fails."""
    adj, table = _lists(k, m, size)
    for window in windows:
        tokens = _tokens(window)
        if tokens is None:
            return None
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


def _tokens(window: str) -> list | None:
    """The tokens of `window`, or None if a line of it holds other than
    none or two.

    Lines of digits, one space and digits, each before a "\n", leave " \n"
    a line once their digits are deleted and split into two tokens a line:
    a line with fewer tokens or more fails one of the two tests. Any other
    window is checked line by line."""
    lines = window.count("\n")
    if window.translate(_DIGITS) == " \n" * lines:
        tokens = window.split()
        if len(tokens) == 2 * lines:
            return tokens
        # A line of one token, or a blank line of one space: the lines are
        # split again below, without these tokens.
        del tokens
    if {0, 2}.issuperset(map(len, map(str.split, window.splitlines()))):
        return window.split()
    return None


def _lists(k: int, m: int, size: int):
    """Empty neighbor lists for `Graph._freeze` of the k vertices and at most
    m edges of the `size` characters after a header, and a table of the
    names of 1..k that reads endpoints, checks their range and shares their
    ints; the table is empty when the lists are a dict.

    A line "u v" and its break take at least four characters, so the text
    bounds the edges and a header cannot size the lists alone. When k is at
    most twice that bound, the text is larger than a list per vertex and
    than the table; a larger k, such as a header "10000000 1", gets a dict
    that lists the vertices an edge touches only.
    """
    if k > 2 * min(m, (size + 1) // 4):
        return defaultdict(list), {}
    return [[] for _ in range(k + 1)], {str(v): v for v in range(1, k + 1)}


def _header(line: str) -> tuple[int, int]:
    """k and m from `line`, the first line of an edge list; raises
    EdgeListParseError for a malformed header.

    The pattern's whitespace is the whitespace that str.split() splits at.
    Its match copies the two tokens only, never the rest of a long line."""
    header = re.fullmatch(r"\s*(\S+)\s+(\S+)\s*", line)
    if header is None:
        if not line or line.isspace():
            raise EdgeListParseError(1, "missing 'k m' header")
        raise EdgeListParseError(1, f"expected 'k m' header, got {_quote(line)}")
    try:
        k, m = int(header[1]), int(header[2])
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


def _scan_lines(source) -> None:
    """The line scan behind parse_edge_list's errors: raises
    EdgeListParseError for the first malformed line of `source`, a text or
    a file that can seek, if any.

    Walks the reader's windows, so it holds one window's lines at a time,
    and reads a file on to its end past a malformed line, so that a decode
    error anywhere wins. Every edge before the first other error goes into
    neighbor lists that share their ints through the reader's name table,
    as the reader's own do; sorted, as `Graph._freeze` sorts them, they
    show the pairs that repeat, and only if some pair does is the input
    read again to name the first line that repeats one.
    """
    k, m, size, windows = _open(source)
    adj, table = _lists(k, m, size)
    edges = 0
    error = None
    line_no = 1
    try:
        for line_no, edge in _edges(windows, k, table):
            if edge:
                u, v = edge
                adj[u].append(v)
                adj[v].append(u)
                edges += 1
    except EdgeListParseError as exc:
        error = exc
        deque(windows, maxlen=0)  # reads a file to its end
    repeated = _repeated_pairs(adj)
    if repeated:
        *_, windows = _open(source)
        seen = set()
        for line_no, edge in _edges(windows, k, table):
            if edge in repeated:
                if edge in seen:
                    raise EdgeListParseError(line_no, f"duplicate edge {edge}")
                seen.add(edge)
    if error:
        raise error
    if edges != m:
        raise EdgeListParseError(line_no, f"header promised {m} edges, found {edges}")


def _edges(windows, k: int, table: dict):
    """(line number, edge) for every line of `windows`, the lines from line
    2 on: the line's edge (u, v), u < v, with the ints of `table` for the
    names it holds, or None for a blank line. Raises EdgeListParseError at
    the first malformed line."""
    lines = (line for window in windows for line in window.splitlines())
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
    """Explicit K_n minus h on all n host vertices: host vertex u gets every
    other host vertex that is not its neighbor in h.

    Oracle use only: the counting engines never materialize the complement,
    and the command line builds it only within an oracle's guard on n.
    """
    n, h = problem.n, problem.h
    hosts = range(1, n + 1)
    adj = [[]]
    for u in hosts:
        cut = {u, *h.neighbors(u)} if u <= h.vertex_count else {u}
        adj.append(list(filterfalse(cut.__contains__, hosts)))
    return Graph._from_lists(n, adj)
