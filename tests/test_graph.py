import sys
import tracemalloc
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kncomp import graph
from kncomp.graph import (
    EdgeListParseError,
    Graph,
    Problem,
    complement_in_host,
    is_connected,
    is_tree,
    parse_edge_list,
    serialize_edge_list,
)
from kncomp.oracle import complete_graph, csplit_graph, path_graph


@st.composite
def graphs(draw, min_k=1, max_k=8):
    k = draw(st.integers(min_k, max_k))
    pairs = list(combinations(range(1, k + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(k, [p for p, used in zip(pairs, keep) if used])


def test_parse_path3():
    g = parse_edge_list("3 2\n1 2\n2 3")
    assert g.vertex_count == 3
    assert g.edges() == [(1, 2), (2, 3)]
    assert g.neighbors(2) == (1, 3)


def test_parse_single_isolated_vertex():
    g = parse_edge_list("1 0")
    assert g.vertex_count == 1
    assert g.edge_count == 0


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("2 1\n1 1", 2, "loop"),
        ("3 2\n1 2\n1 2", 3, "duplicate"),
        ("2 1\n1 5", 2, "out of range"),
        ("10 1\n1 11\n", 2, "out of range"),
        ("3 2\n1 2 3\n1\n", 2, "expected 'u v'"),  # four tokens, but not two per line
        ("3 1\n1\n2\n", 2, "expected 'u v'"),  # two tokens, but one per line
        ("nonsense", 1, "header"),
        ("2", 1, "header"),
        ("x y", 1, "non-integer"),
        ("0 0", 1, "at least 1"),
        ("10000001 0", 1, "exceeds the limit"),
        ("3 -1", 1, "negative edge count"),
        ("3 2\n1 2", 2, "promised 2 edges"),
        ("2 1\n1 two", 2, "non-integer"),
        ("", 1, "header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


def test_serialize_sorts_edges_lexicographically():
    g = Graph(4, [(3, 4), (1, 3), (2, 4), (1, 2)])
    assert serialize_edge_list(g) == "4 4\n1 2\n1 3\n2 4\n3 4\n"


@given(graphs())
def test_parse_serialize_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def parse_outcome(parse, text):
    """The Graph `parse` returns, or the message and line of its error."""
    try:
        return parse(text)
    except EdgeListParseError as exc:
        return str(exc), exc.line_no


def scanned_outcome(text):
    """The message and line of the line scan's first error in `text`, or,
    when it finds none, the graph read off the text's tokens."""
    try:
        graph._scan_lines(text)
    except EdgeListParseError as exc:
        return str(exc), exc.line_no
    k, _, *ends = map(int, text.split())
    pairs = iter(ends)
    return Graph(k, zip(pairs, pairs))


# Edits that break canonical text in the ways a file can: stray or other
# whitespace, signs, leading zeros, wrong tokens, and lines that repeat an
# edge, reverse it, loop, leave the range or change the count.
MUTATION_TEXTS = [" ", "\n", "\r\n", "\t", "\x0b", "\x1c", "0", "-", "+", "x", "\u0661", "1", "9"]


@st.composite
def mutated_edge_lists(draw):
    g = draw(graphs(max_k=9))
    lines = serialize_edge_list(g).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "line", "header"]))
        text = "".join(lines)
        if kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(MUTATION_TEXTS)) + text[at:]
        elif kind == "delete" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1 :]
        elif kind == "line":
            u = draw(st.integers(0, g.vertex_count + 1))
            v = draw(st.sampled_from([u, draw(st.integers(0, g.vertex_count + 1))]))
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, f"{u} {v}\n")
            lines[0] = f"{g.vertex_count} {len(lines) - 1}\n"
            text = "".join(lines)
        else:
            m = draw(st.integers(0, g.edge_count + 2))
            text = f"{g.vertex_count} {m}\n" + "".join(lines[1:])
        lines = text.splitlines(keepends=True) or [""]
    return g, "".join(lines)


@given(mutated_edge_lists(), st.integers(1, 16))
def test_bulk_parse_agrees_with_the_line_scan(case, chunk_chars):
    g, text = case
    # Small chunks put the chunk boundaries of these short texts anywhere.
    with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
        assert parse_edge_list(serialize_edge_list(g)) == g
        assert parse_outcome(parse_edge_list, text) == scanned_outcome(text)


# Digits, signs, separators, a non-ASCII digit, a letter, and whitespace that
# str.splitlines() breaks lines at ("\n", "\r", "\x0b", "\x85") or does not.
SWEEP_ALPHABET = ["1", "2", "0", "+", "_", "\u0661", "x", " ", "\t", "\n", "\r", "\x0b", "\x85"]


@pytest.mark.parametrize("prefix", ["", "3 1\n"])
@pytest.mark.parametrize("chunk_chars", [1, graph._CHUNK_CHARS])
def test_every_short_text_agrees_with_the_line_scan(prefix, chunk_chars):
    # Every text of at most four of these characters, alone or after a
    # header: the parser returns the graph of the tokens exactly when the
    # line scan finds no error, and raises that error otherwise.
    with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
        for size in range(5):
            for chars in product(SWEEP_ALPHABET, repeat=size):
                text = prefix + "".join(chars)
                assert parse_outcome(parse_edge_list, text) == scanned_outcome(text), text


def _late_line_text(last_line: str) -> str:
    """A path on 20000 vertices, over 64 KiB of text, ending in `last_line`."""
    lines = serialize_edge_list(path_graph(20_000)).splitlines()
    lines[0] = "20000 20000"
    return "\n".join(lines + [last_line]) + "\n"


@pytest.mark.parametrize(
    "last_line, fragment",
    [("20000 19999", "duplicate edge (19999, 20000)"), ("1 20001", "out of range"), ("7 7", "loop")],
)
def test_bulk_parse_reports_a_late_bad_line(last_line, fragment):
    text = _late_line_text(last_line)
    assert len(text) > 2 * graph._CHUNK_CHARS
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == 20001
    assert fragment in str(err.value)
    assert parse_outcome(parse_edge_list, text) == scanned_outcome(text)


@pytest.mark.parametrize("text", ["3 0", "3 0\n", "3 0\n\n", "3 1", "3 2 1 2 2 3", "12 0 "])
def test_header_line_texts_agree_with_the_line_scan(text):
    assert parse_outcome(parse_edge_list, text) == scanned_outcome(text)


def _one_window_of_path_lines() -> list:
    """Lines "u u+1" of a path, just enough that their last newline is the
    first one at least _CHUNK_CHARS characters after the header: they end
    exactly at the first window boundary."""
    lines, size = [], 0
    while size <= graph._CHUNK_CHARS:
        u = len(lines) + 1
        lines.append(f"{u} {u + 1}\n")
        size += len(lines[-1])
    return lines


# Endpoints come from the name table when k <= 2m, from int() when k > 2m.
VERTEX_COUNT_SCALES = pytest.mark.parametrize("scale", [1, 10], ids=["table", "int"])


@VERTEX_COUNT_SCALES
def test_a_header_and_one_full_window_parse_in_bulk(scale):
    lines = _one_window_of_path_lines()
    header = f"{scale * (len(lines) + 1)} {len(lines)}\n"
    text = header + "".join(lines)
    assert text.find("\n", len(header) + graph._CHUNK_CHARS) == len(text) - 1
    g = graph._read(text)
    assert g is not None
    assert g == scanned_outcome(text)


@VERTEX_COUNT_SCALES
@pytest.mark.parametrize(
    "bad_line, fragment",
    [("2 1", "duplicate edge (1, 2)"), ("1 99999999", "out of range"), ("7 7", "loop")],
)
def test_a_bad_line_at_a_window_boundary(scale, bad_line, fragment):
    lines = _one_window_of_path_lines()
    k = scale * (len(lines) + 2)
    rest = [f"{bad_line}\n", f"{k - 1} {k}\n"]
    header = f"{k} {len(lines) + len(rest)}\n"
    text = header + "".join(lines + rest)
    boundary = text.find("\n", len(header) + graph._CHUNK_CHARS) + 1
    assert text.startswith(f"{bad_line}\n", boundary)
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == len(lines) + 2
    assert fragment in str(err.value)
    assert parse_outcome(parse_edge_list, text) == scanned_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "3 2\r\n1 2\r\n2 3\r\n",
        "3 2\x0b1 2\x0b2 3",
        "3 2\n\n1 2\n   \n2\t3\n\n",
        " 3  2\n1 2\n2 3\n",
        "3 2\n1\u30002\n2\x1f3",  # str.split() separates at both; lines do not end
    ],
)
def test_other_whitespace_still_parses(text):
    assert parse_edge_list(text) == Graph(3, [(1, 2), (2, 3)])


def test_windows_are_cut_where_str_splitlines_breaks_lines():
    # The one rule of Python's that the parser writes out itself: the
    # characters it cuts windows after are exactly those that end a line.
    chars = list(map(chr, range(sys.maxunicode + 1)))
    breaks = {c for c in chars if c.splitlines() != [c]}
    assert {c for c in chars if graph._BREAK.fullmatch(c)} == breaks
    for c in sorted(breaks):
        assert parse_edge_list(f"3 2{c}1 2{c}2 3") == path_graph(3), repr(c)


def test_integers_are_read_as_int_reads_them():
    # Signs, underscores between digits, leading zeros and other scripts' digits.
    assert parse_edge_list("+3 0_2\n0_1 +2\n\u0662 03\n") == Graph(3, [(1, 2), (2, 3)])


def traced_peak(parse, text) -> int:
    """Peak bytes traced while `parse` reads `text`."""
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_huge_header_builds_no_vertex_name_table():
    # The graph is one pointer per vertex, 1.5 MiB, and the parse peaks at
    # about 1.7 MiB. A table of 2 * 10^5 vertex names would take over 10 MB,
    # and a list per vertex over 10 MiB more.
    text = "200000 1\n1 200000\n"
    assert parse_edge_list(text).edges() == [(1, 200_000)]
    assert traced_peak(parse_edge_list, text) < 3 * 2**20


def test_bulk_parse_memory_does_not_grow_with_the_line_count():
    # K_300 has 44,850 lines and parses at a peak of about 1.3 MiB: matching
    # them all at once, not a chunk at a time, would take over 8 MB.
    text = serialize_edge_list(Graph(300, list(combinations(range(1, 301), 2))))
    assert traced_peak(parse_edge_list, text) < 4 * 2**20


def test_blank_lines_do_not_size_the_graph():
    # 100,000 blank lines hold no edge. Lists sized from the 100,000 edges
    # the header promises, with a table of the names of 1..200000, would
    # peak at over 30 MiB before the text is rejected.
    text = "200000 100000\n" + "\n" * 100_000
    outcome = ("line 100001: header promised 100000 edges, found 0", 100_001)
    assert parse_outcome(parse_edge_list, text) == outcome
    assert traced_peak(lambda t: parse_outcome(parse_edge_list, t), text) < 3 * 2**20


def test_a_long_first_line_is_not_split_into_tokens():
    # A file of one line: its header error needs three of its 200,000
    # tokens, and a list of them all would take over 11 MiB. The message
    # quotes the line's first 40 characters and its length.
    text = "12 34 " * 100_000
    assert parse_outcome(parse_edge_list, text) == (
        f"line 1: expected 'k m' header, got {text[:40]!r}... (600000 characters)",
        1,
    )
    assert traced_peak(lambda t: parse_outcome(parse_edge_list, t), text) < 4 * 2**20


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("1 2 " * 10, 1, "expected 'k m' header, got '" + "1 2 " * 10 + "'"),
        ("1 " + "x" * 40, 1, f"non-integer header fields {'1 ' + 'x' * 38!r}... (42 characters)"),
        ("9 1\n" + "1 2 " * 30, 2, f"expected 'u v', got {'1 2 ' * 10!r}... (120 characters)"),
        (
            "9 1\n1 " + "y" * 50,
            2,
            f"non-integer endpoint in {'1 ' + 'y' * 38!r}... (52 characters)",
        ),
    ],
)
def test_messages_quote_at_most_40_characters_of_a_line(text, line_no, message):
    assert parse_outcome(parse_edge_list, text) == (f"line {line_no}: {message}", line_no)


def test_a_rejected_text_is_scanned_one_window_at_a_time():
    # K_600 with its last line repeated: the duplicate is named after all
    # 179,700 lines. Every line and an (u, v) tuple per edge held at once
    # peak at about 37 MiB, one window's lines and an int per edge at 17,
    # and one window's lines and sorted neighbor lists at 3.7.
    lines = serialize_edge_list(complete_graph(600)).splitlines()
    lines[0] = "600 179701"
    text = "\n".join(lines + lines[-1:]) + "\n"
    outcome = ("line 179702: duplicate edge (599, 600)", 179_702)
    assert parse_outcome(parse_edge_list, text) == outcome
    assert traced_peak(lambda t: parse_outcome(parse_edge_list, t), text) < 24 * 2**20


def test_a_repeated_edge_is_named_within_the_memory_of_the_graph():
    # The tab-separated complete split graph csplit(120, 120), 21,540 lines,
    # with its last line repeated. Both texts peak in the reader, at about
    # 0.9 MiB: the line scan finds the repeated pair in sorted neighbor
    # lists no larger than the reader's. A set of an int per edge took the
    # rejected text to 3.2 MiB.
    valid = serialize_edge_list(csplit_graph(120, 120)).replace(" ", "\t")
    text = valid + valid.splitlines(keepends=True)[-1]
    outcome = ("line 21542: duplicate edge (120, 240)", 21_542)
    assert parse_outcome(parse_edge_list, text) == outcome
    peak = traced_peak(lambda t: parse_outcome(parse_edge_list, t), text)
    assert peak < 1.2 * traced_peak(parse_edge_list, valid)


@pytest.mark.parametrize("chunk_chars", range(1, 8))
def test_a_window_never_ends_between_cr_and_lf(chunk_chars):
    # "\r\n" is one line break, wherever a window boundary falls; cut
    # between its characters, the scan would count a blank line more.
    text = "3 3\r\n1 2\r\n2 3\r\n\r\n1 3\r\n3 1\r\n"
    with mock.patch.object(graph, "_CHUNK_CHARS", chunk_chars):
        assert parse_outcome(parse_edge_list, text) == ("line 6: duplicate edge (1, 3)", 6)


def traced_graph(text) -> tuple[int, int]:
    """Bytes traced for the Graph parse_edge_list returns for `text`, and
    the peak bytes traced while it reads `text` less those."""
    tracemalloc.start()
    try:
        g = parse_edge_list(text)  # noqa: F841 -- held while the size is read
        retained, peak = tracemalloc.get_traced_memory()
        return retained, peak - retained
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [300, 600])
def test_bulk_parse_peak_is_the_graph_plus_one_window(k):
    # K_600 has four times the 44,850 lines of K_300. Beyond the graph the
    # parse holds the name table, one window's tokens and matcher stack and
    # the slack of the growing neighbor lists, about 0.6 and 0.9 MiB. A copy
    # of the lines, all neighbor lists held beside their tuples, or 64 KiB
    # windows each take K_600 over 1 MiB; the last takes K_300 too.
    text = serialize_edge_list(Graph(k, list(combinations(range(1, k + 1), 2))))
    assert traced_graph(text)[1] < 2**20


@pytest.mark.parametrize("k", [300, 600])
@pytest.mark.parametrize(
    "form", [lambda t: t.replace(" ", "\t"), lambda t: t[:-1], lambda t: t.replace("\n", "\r")],
    ids=["tabs", "no final newline", "cr"],
)
def test_other_text_peaks_at_the_graph_plus_one_window(k, form):
    # Tab-separated lines, a last line without its newline, and lines ended
    # by "\r" alone fail the canonical pattern and are read in the same
    # windows: beyond the graph they hold at most about 2.5 MiB at either k.
    # A parse that held every line and edge would take 7 MiB for K_300 and
    # 29 MiB for K_600, and one window for all of K_600's lines over 100 MiB.
    # The graph is the canonical text's: lists sized from the "\n" count
    # alone would give "\r" text separate ints, 8.3 against 2.8 MiB at K_600.
    canonical = serialize_edge_list(Graph(k, list(combinations(range(1, k + 1), 2))))
    retained, beyond = traced_graph(form(canonical))
    assert beyond < 4 * 2**20
    assert retained <= 1.05 * traced_graph(canonical)[0]


@pytest.mark.parametrize(
    "text",
    ["200000 0", "200000 2\n1 200000\n5 7\n", "200000 0\r\n", "200000 2\r\n1 200000\r\n5 7\r\n"],
)
def test_a_huge_header_allocates_about_the_graph(text):
    # The graph is one pointer per vertex, 1.5 MiB; a list per vertex would
    # take over 10 MiB more. The "\r\n" texts are not canonical, but the
    # same parser reads them in the same way.
    assert traced_graph(text)[1] < 2**20


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match=r"duplicate edge \(2, 4\)"):
        Graph(5, [(4, 2), (1, 5), (3, 4), (2, 4), (1, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(1, 3)])


def test_is_tree():
    assert is_tree(parse_edge_list("3 2\n1 2\n2 3"))
    assert not is_tree(Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))  # cycle: m = k
    assert not is_tree(Graph(4, [(1, 2), (3, 4)]))  # disconnected forest
    assert is_tree(Graph(1))


def test_is_connected():
    assert is_connected(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(5, [(i, i + 1) for i in range(1, 5)]))
    assert is_connected(Graph(1))


def test_problem_validates_sizes():
    with pytest.raises(ValueError):
        Problem(2, Graph(3))
    with pytest.raises(ValueError):
        Problem(0, Graph(0))
    with pytest.raises(ValueError):
        Problem(n=2, h=Graph(3))
    problem = Problem(3, Graph(3))  # k = n is allowed
    assert problem == Problem(n=3, h=Graph(3))
    assert repr(problem) == "Problem(n=3, h=Graph(vertices=3, edges=0))"
    with pytest.raises(AttributeError):
        problem.n = 4


def test_complement_single_edge_in_triangle():
    comp = complement_in_host(Problem(3, Graph(2, [(1, 2)])))
    assert comp.edges() == [(1, 3), (2, 3)]


def test_complement_of_complete_graph_is_empty():
    k4 = Graph(4, list(combinations(range(1, 5), 2)))
    comp = complement_in_host(Problem(4, k4))
    assert comp.edge_count == 0
    assert comp.vertex_count == 4


def test_complement_of_path3_in_k4():
    # K_4 has six edges; removing 12 and 23 leaves exactly these four.
    comp = complement_in_host(Problem(4, Graph(3, [(1, 2), (2, 3)])))
    assert comp.edges() == [(1, 3), (1, 4), (2, 4), (3, 4)]


@given(graphs(), st.integers(0, 3))
def test_degrees_split_across_host(h, extra):
    n = h.vertex_count + extra
    comp = complement_in_host(Problem(n, h))
    for v in h.vertices():
        assert h.degree(v) + comp.degree(v) == n - 1


@given(graphs())
def test_complement_is_involution_on_edge_sets(h):
    n = h.vertex_count + 2
    once = complement_in_host(Problem(n, h))
    twice = complement_in_host(Problem(n, once))
    assert set(twice.edges()) == set(h.edges())
