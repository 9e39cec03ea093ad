import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triadbalance import (EdgeColumns, PreprocessConfig, SignedDigraph,
                          build_graph, dump_tsv, load_edge_records, load_tsv,
                          metrics, preprocess, project_undirected,
                          scan_triads, tallies_of)
from triadbalance.errors import FormatError, ParseError
from triadbalance.graphs import (AGGREGATE_RULES, _parse_lines, _parse_matrix,
                                 _split_regular, find_keys, giant_of,
                                 largest_component)
from triadbalance.oracle import random_signed_digraph


def _lists(columns):
    """The records as plain (source ids, target ids, weights) lists, after
    checking the dtypes and that the ids are sorted and distinct."""
    ids = columns.ids
    assert all(a < b for a, b in zip(ids, ids[1:])), ids
    assert columns.sources.dtype == columns.targets.dtype == np.int64
    assert columns.weights.dtype == np.float64
    return ([ids[i] for i in columns.sources.tolist()],
            [ids[i] for i in columns.targets.tolist()],
            columns.weights.tolist())


def test_csv_rating_line():
    cols = load_edge_records(io.StringIO("6,2,4,1289241911\n"), "csv-rating")
    assert _lists(cols) == (["6"], ["2"], [4.0])


def test_csv_rating_without_timestamp():
    cols = load_edge_records(io.StringIO("a,b,-2.5\n"), "csv-rating")
    assert _lists(cols) == (["a"], ["b"], [-2.5])


def test_tsv_sign_line():
    cols = load_edge_records(io.StringIO("a\tb\t-1\n"), "tsv-sign")
    assert _lists(cols) == (["a"], ["b"], [-1.0])


def test_matrix_two_cells():
    cols = load_edge_records(io.StringIO("0 1\n-1 0\n"), "signed-matrix")
    assert _lists(cols) == (["0", "1"], ["1", "0"], [1.0, -1.0])


def test_matrix_cells_in_row_major_order():
    # any finite number is a weight, and commas separate cells too
    for text, weights in [
            ("0 2 -3\n4 0 0\n5 6 0\n", [2.0, -3.0, 4.0, 5.0, 6.0]),
            ("0 2 -3\n0.5,0,0\n-2.5, 1e0 ,0\n", [2.0, -3.0, 0.5, -2.5, 1.0])]:
        cols = load_edge_records(io.StringIO(text), "signed-matrix")
        assert _lists(cols) == (["0", "0", "1", "2", "2"],
                                ["1", "2", "0", "0", "1"], weights)


def test_matrix_zero_cells_produce_no_record():
    cols = load_edge_records(io.StringIO("0 0\n0 0\n"), "signed-matrix")
    assert _lists(cols) == ([], [], [])


def test_byte_stream_input():
    cols = load_edge_records(io.BytesIO(b"a\tb\t+1\n"), "tsv-sign")
    assert _lists(cols) == (["a"], ["b"], [1.0])


@pytest.fixture(params=[bytes, io.BytesIO,
                        lambda data: io.StringIO(data.decode("utf-8")), "path"],
                ids=["bytes", "BytesIO", "StringIO", "path"])
def wrap(request, tmp_path):
    """Turns input bytes into one kind of source: bytes, a binary or a text
    stream, or a path."""
    if request.param != "path":
        return request.param

    def in_file(data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        return path
    return in_file


def test_byte_order_mark_is_not_part_of_an_id(wrap):
    data = "a,b,1\nb,a,-1\n".encode("utf-8")
    cols = load_edge_records(wrap(b"\xef\xbb\xbf" + data), "csv-rating")
    assert _lists(cols) == _lists(load_edge_records(wrap(data), "csv-rating"))
    assert _lists(cols)[0] == ["a", "b"]


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_every_source_kind_splits_lines_alike(wrap, newline):
    data = newline.join(["a\tb\t1", "b\tc\t1", "c\ta\t-1", ""]).encode()
    cols = load_edge_records(wrap(data), "tsv-sign")
    assert _lists(cols) == (["a", "b", "c"], ["b", "c", "a"], [1.0, 1.0, -1.0])


@pytest.mark.parametrize("fmt", ["csv-rating", "tsv-sign"])
def test_text_stream_with_a_lone_surrogate_raises(fmt):
    # a text stream's text is encoded as UTF-8, which cannot hold one
    line = ("," if fmt == "csv-rating" else "\t").join(["a\ud800", "b", "1"])
    with pytest.raises(UnicodeEncodeError):
        load_edge_records(io.StringIO(line + "\n"), fmt)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_records(io.StringIO("a\tb\t1\na\tb\n"), "tsv-sign")


def test_parse_error_bad_weight():
    with pytest.raises(ParseError, match="line 1"):
        load_edge_records(io.StringIO("a,b,much\n"), "csv-rating")


@pytest.mark.parametrize("line", ["a\tx,b,1", "b,a\tx,-2", "a,b\tx,3,17"])
def test_csv_rating_rejects_tab_in_node_id(line):
    # a graph.tsv line holding such an id would have four TAB fields
    with pytest.raises(ParseError, match="line 2: TAB in node id"):
        load_edge_records(io.StringIO(f"a,b,1\n{line}\n"), "csv-rating")


@pytest.mark.parametrize("weight", ["5", "-7", "0.5", "0", "2.0"])
def test_tsv_sign_rejects_weights_other_than_sign(weight):
    text = f"a\tb\t+1\nb\tc\t{weight}\n"
    with pytest.raises(ParseError, match="line 2"):
        load_edge_records(io.StringIO(text), "tsv-sign")


# ids and signs share spellings, so a line with a field too many or too few
# shifts later fields into places where they still read as ids and signs.
# The split interns ids of up to 8 bytes as big-endian words, and longer ids
# as strings, so the ids also hold 7-9, 16 and 17 bytes, prefix chains,
# multi-byte characters (some cut by a word end) and pairs equal in their
# first 8 or 16 bytes
_IDS = ["1", "-1", "+1", "2", "9", "10", "100", "a", "\u00e9", "n\u2603",
        "\ufeffb", "\u4e2d", "\U0001f600", "abcdefg", "abcdefgh",
        "abcdefghi", "abcdefgh0", "abcdefg\u00e9", "\u4e2d\u4e2d\u4e2d",
        "abcdefgh\U0001f600", "abcdefghijklmnop", "abcdefghijklmnopq",
        "abcdefghijklmnop0", "abcdefghijklmno\u00e9"]
_SHORT_IDS = [i for i in _IDS if len(i.encode()) <= 8]
_SIGNS = ["1", "+1", "-1"]
_SHIFTING_LINES = ["a\tb", "1\t-1", "1", "a\tb\t1\t1", "a\tb\t-1\t+1",
                   "1\t1\t1\t1\t1"]
_IRREGULAR_LINES = _SHIFTING_LINES + [
    "# comment", "  #\tx\t1", "", "   ", "\t", "\t\t", " a\tb\t1",
    "a \tb\t1", "a\t\xa0b\t-1", "a\u3000\tb\t1", "a#b\tc\t1",
    "a\tb\t1.0", "a\tb\t+1.0", "a\tb\tnan", "a\tb\t5", "a\tb\t0", "a\tb\t",
    "\tb\t1", "a\t\t1", "a\tb\t 1", "a\tb\t1 ", "a\x0bb\tc\t1",
    "a\x00\tb\t1",
]


def _random_tsv(rng, odd_lines, odd_ends, ids=_IDS):
    """A tsv-sign text of 0-12 lines: regular lines on `ids` mixed with lines
    drawn from `odd_lines`, each ending in LF or, if `odd_ends`, sometimes in
    CR or CRLF; the final LF may be missing."""
    lines, ends = [], []
    for _ in range(int(rng.integers(0, 13))):
        if not odd_lines or rng.random() < 0.7:
            lines.append("\t".join([*rng.choice(ids, 2), rng.choice(_SIGNS)]))
        else:
            lines.append(str(rng.choice(odd_lines)))
        ends.append(str(rng.choice(["\r", "\r\n"]))
                    if odd_ends and rng.random() < 0.2 else "\n")
    if lines and rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse):
    """The columns one parse returns, or the error message it raises."""
    try:
        return _lists(parse())
    except (ParseError, FormatError) as exc:
        return f"{type(exc).__name__} {exc}"


def test_regular_split_equals_the_line_loop():
    rng = np.random.default_rng(20240)
    # regular texts on ids of up to 8 bytes take the word path
    kinds = [([], False, _SHORT_IDS), ([], False, _IDS),
             (_SHIFTING_LINES, False, _IDS), (_IRREGULAR_LINES, True, _IDS)]
    for trial in range(800):
        odd_lines, odd_ends, ids = kinds[trial % 4]
        text = _random_tsv(rng, odd_lines, odd_ends, ids)
        data = (b"\xef\xbb\xbf" if rng.random() < 0.2 else b"") + text.encode()
        # utf-8-sig drops one leading U+FEFF, whether added here or drawn
        text = data.decode("utf-8-sig")
        loop = _outcome(lambda: _parse_lines(io.StringIO(text, newline=""),
                                             "tsv-sign"))
        assert _outcome(lambda: load_edge_records(data, "tsv-sign")) == loop, text
        if not odd_lines and text:
            assert _split_regular(data) is not None, text


#: characters that str.splitlines takes for line ends but io does not
_SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                    "\u2029"]


def _line_loop_text(rng, fmt):
    """A text of 0-5 lines of the format, whose ids or cell gaps hold those
    characters, each line ending in LF, CR or CRLF; the last end may be
    missing, and one weight in 20 is malformed."""
    size = int(rng.integers(0, 6))
    lines = []
    for _ in range(size):
        if fmt == "signed-matrix":
            gaps = [str(rng.choice([" ", ",", *_SPLITLINES_ONLY]))
                    for _ in range(size - 1)] + [""]
            cells = rng.choice(["0", "1", "-1", "2.5"], size)
            lines.append("".join(c + g for c, g in zip(cells, gaps)))
        else:
            ids = ["".join([rng.choice(["a", "1"]),
                            rng.choice(["", *_SPLITLINES_ONLY]),
                            rng.choice(["a", "1"])]) for _ in range(2)]
            fields = [*ids, str(rng.choice(["1", "-1", "+1"] * 6 + ["2.5",
                                                                    "x"]))]
            if fmt == "csv-rating" and rng.random() < 0.5:
                fields.append("17")
            lines.append(("," if fmt == "csv-rating" else "\t").join(fields))
    ends = [str(end) for end in rng.choice(["\n", "\r", "\r\n"], size)]
    if lines and rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


#: per format, a record line whose first character is left open, and a
#: malformed line
_STRADDLING = {"csv-rating": ("{}x,y,-2\n", "a,b,much\n"),
               "tsv-sign": ("{}x\ty\t-1\n", "a\tb\t5\n"),
               "signed-matrix": ("{}0 1\n1 0\n", "0 x\n")}


def _straddling_texts(fmt):
    """Texts of over 8 KiB: a comment line, whose end (CR, CRLF or LF) and
    the next line's first character, multi-byte or not, sit at each byte
    from 8180 to 8199, around the decoder's 8,192-byte chunks; half of them
    end in a malformed line, whose error counts the line ends before it."""
    record, bad = _STRADDLING[fmt]
    firsts = (["\u3000", "\x85"] if fmt == "signed-matrix"
              else ["", "\u00e9", "\u4e2d", "\U0001f600"])
    for at in range(8180, 8200):
        for end in ("\r", "\r\n", "\n"):
            for first in firsts:
                line = record.format(first)
                yield from ("#" + "x" * (at - 1) + end + line + tail
                            for tail in ("", bad))


@pytest.mark.parametrize("fmt", ["csv-rating", "tsv-sign", "signed-matrix"])
def test_line_loop_splits_lines_as_io_does(fmt):
    rng = np.random.default_rng(7)
    texts = [_line_loop_text(rng, fmt) for _ in range(300)]
    for text in [*texts, *_straddling_texts(fmt)]:
        stream = io.StringIO(text, newline="")
        want = _outcome(lambda: _parse_matrix(stream) if fmt == "signed-matrix"
                        else _parse_lines(stream, fmt))
        assert _outcome(lambda: load_edge_records(text.encode(), fmt)) == want


def _long_id_text(lines):
    """A regular tsv-sign text of `lines` lines on ids of 1-17 bytes."""
    ids = [str(i).rjust(1 + i % 17, "x") for i in range(5000)]
    return "".join(f"{ids[i % 5000]}\t{ids[i * 7 % 4999]}\t{'+-'[i % 2]}1\n"
                   for i in range(lines))


def test_regular_text_with_a_very_long_id_stays_on_the_split():
    # ids over 8 bytes are interned as strings, so one 4000-byte id costs no
    # more than its own bytes
    text = _long_id_text(1000) + "y" * 4000 + "\tx1\t-1\n"
    split = _split_regular(text.encode())
    assert split is not None
    loop = _parse_lines(io.StringIO(text, newline=""), "tsv-sign")
    assert _lists(split) == _lists(loop)


def _traced_peak(call) -> int:
    """The tracemalloc peak of a second call, after one to warm caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: kind -> (text, bound on the parse's peak per text byte).  Measured 6.1x,
#: 11.1x, 10.4x and 12.9x; with 64-bit field offsets 7.4x and 12.8x on the
#: hubs and 1-byte texts; 19.6x on distinct ids with one bytes object per
#: distinct id.  The distinct ids' own strings set the last bound.
_MEMORY_TEXTS = {
    "hubs": (None, 7.0),
    "ids-of-1-17-bytes-and-one-of-4000": (lambda: (
        _long_id_text(50_000) + "y" * 4000 + "\tx1\t-1\n"), 12.5),
    "ids-of-1-byte": (lambda: "".join(f"{i % 7}\t{i * 3 % 11}\t1\n"
                                      for i in range(50_000)), 11.5),
    "all-ids-distinct": (lambda: "".join(f"u{i}\tv{i}\t-1\n"
                                         for i in range(50_000)), 14.0),
}


@pytest.mark.parametrize("kind", _MEMORY_TEXTS)
def test_ingest_memory_is_linear_in_the_text(kind, hubs_text):
    make, bound = _MEMORY_TEXTS[kind]
    data = make().encode() if make else hubs_text
    assert _split_regular(data) is not None
    # the padded copy, 32-bit field starts and lengths, and the argsort's
    # order and sorted words are a few arrays per field, which is most for
    # lines of 6 bytes; a cost that grew with the longest id would break
    # the bound on the text with a 4000-byte id
    peak = _traced_peak(lambda: load_edge_records(data, "tsv-sign"))
    assert peak < bound * len(data)


def test_dump_memory_is_linear_in_the_output(hubs_text, tmp_path):
    graph = preprocess(build_graph(load_edge_records(hubs_text, "tsv-sign")))
    path = tmp_path / "graph.tsv"
    peak = _traced_peak(lambda: dump_tsv(graph, path))
    # measured 5.2x: per-node pieces, two 32-bit positions per edge, their
    # gathered references and the text; a new string per edge read 9.0x
    assert peak < 6 * path.stat().st_size


def test_regular_split_hands_over_on_any_whitespace():
    spaces = [c for c in map(chr, range(0x3001)) if c.isspace()]
    for c in spaces:
        if c not in "\t\n":
            for text in (f"a{c}\tb\t1\n", f"a\tb\t1{c}\n"):
                assert _split_regular(text.encode()) is None, hex(ord(c))


def test_regular_looking_text_with_an_empty_id_goes_to_the_line_loop():
    text = b"\tb\t1\nb\tc\t1\n"
    assert _split_regular(text) is None
    with pytest.raises(ParseError, match="line 1: empty node id"):
        load_edge_records(text, "tsv-sign")


def test_matrix_not_square():
    with pytest.raises(FormatError, match="square"):
        load_edge_records(io.StringIO("0 1 0\n1 0 1\n"), "signed-matrix")


def test_unknown_format():
    with pytest.raises(FormatError):
        load_edge_records(io.StringIO(""), "graphml")


def _signs(graph):
    """(source id, target id) -> sign, read through the edge list."""
    return {(u, v): s for u, v, s in graph.edge_items()}


def _index_sets(graph):
    """Successor, predecessor and neighbour index sets of every node, read
    through the edge list."""
    out = [set() for _ in range(graph.n_nodes)]
    inn = [set() for _ in range(graph.n_nodes)]
    for u, v, _ in graph.edge_items():
        out[graph.index[u]].add(graph.index[v])
        inn[graph.index[v]].add(graph.index[u])
    return out, inn, [o | i for o, i in zip(out, inn)]


# -- build_graph ----------------------------------------------------------------


def _rec(*records):
    """EdgeColumns holding the (source, target, weight) records in order."""
    sources, targets, weights = zip(*records) if records else ((), (), ())
    return EdgeColumns.from_records(list(sources), list(targets), weights)


def test_sum_then_sign_aggregation():
    g = build_graph(_rec(("a", "b", 3), ("a", "b", -1)))
    assert g.sign_of("a", "b") == 1


def test_aggregate_at_threshold_drops_edge():
    g = build_graph(_rec(("a", "b", 2), ("a", "b", -2)))
    assert not g.has_edge("a", "b")
    assert g.n_edges == 0


def test_self_loop_dropped():
    g = build_graph(_rec(("a", "a", 5)))
    assert g.n_nodes == 0 and g.n_edges == 0


def test_last_record_rule():
    config = PreprocessConfig(aggregate_rule="last-record")
    g = build_graph(_rec(("a", "b", 5), ("a", "b", -1)), config)
    assert g.sign_of("a", "b") == -1


def test_mean_then_sign_rule():
    config = PreprocessConfig(aggregate_rule="mean-then-sign")
    g = build_graph(_rec(("a", "b", -9), ("a", "b", 1)), config)
    assert g.sign_of("a", "b") == -1


def test_nonzero_threshold_is_a_cut_point():
    config = PreprocessConfig(sign_threshold=2.0)
    g = build_graph(_rec(("a", "b", 1), ("c", "d", 3), ("e", "f", 2)), config)
    assert g.sign_of("a", "b") == -1   # below the threshold
    assert g.sign_of("c", "d") == 1    # above it
    assert not g.has_edge("e", "f")    # exactly at it


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SignedDigraph([("a", "b", 1), ("a", "b", 1)])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop 'a' not allowed"):
        SignedDigraph([("a", "a", 1)])


def test_node_ids_are_strings_however_given():
    assert SignedDigraph([("a", "b", 1)], nodes=[3]).ids == ("3", "a", "b")
    assert SignedDigraph([], nodes=[5]).ids == ("5",)
    assert repr(SignedDigraph([("a", "b", 1)], nodes=[3])) == (
        "SignedDigraph(n=3, m=1)")
    with pytest.raises(ValueError, match="padded"):
        SignedDigraph([("a", "b", 1)], nodes=["c "])


@pytest.mark.parametrize("bad", [" a", "", "a\tx", "c\n"])
def test_both_builders_reject_ids_the_dump_cannot_read_back(bad):
    ids = sorted([bad, "m", "z"])
    columns = EdgeColumns(ids, np.array([0, 1]), np.array([1, 2]),
                          np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="node id"):
        build_graph(columns)
    with pytest.raises(ValueError, match="node id"):
        SignedDigraph([(ids[0], ids[1], 1), (ids[1], ids[2], 1)])


@pytest.mark.parametrize("knob", ["aggregate_rule", "keep_component"])
def test_preprocess_config_rejects_unknown_choices(knob):
    with pytest.raises(ValueError, match=f"unknown {knob} 'x'"):
        PreprocessConfig(**{knob: "x"})


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_preprocess_config_rejects_a_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="sign_threshold must be finite"):
        PreprocessConfig(sign_threshold=float(threshold))


def test_zero_sign_rejected():
    with pytest.raises(ValueError, match="sign"):
        SignedDigraph([("a", "b", 0)])
    # a fractional sign is rejected as given, not truncated to +-1 or 0
    for sign in (1.5, -1.9, 0.5):
        with pytest.raises(ValueError, match=f"got {sign}$"):
            SignedDigraph([("a", "b", sign)])


def test_build_graph_rejects_ids_out_of_order():
    for ids in (["b", "a"], ["a", "a"]):
        columns = EdgeColumns(ids, np.array([0]), np.array([1]),
                              np.array([1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            build_graph(columns)


def test_build_graph_rejects_columns_of_different_lengths():
    columns = EdgeColumns(["a", "b"], np.array([0, 1]), np.array([1]),
                          np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="different lengths"):
        build_graph(columns)


@pytest.mark.parametrize("position", [-1, 2])
def test_build_graph_rejects_a_position_outside_the_ids(position):
    columns = EdgeColumns(["a", "b"], np.array([0, 1]),
                          np.array([1, position]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="outside the 2 ids"):
        build_graph(columns)


def _reference_build_graph(records, config):
    """Parallel records bucketed by their pair of id strings, aggregated and
    thresholded one pair at a time."""
    buckets = {}
    for source, target, weight in zip(*_lists(records)):
        if source != target:
            buckets.setdefault((source, target), []).append(weight)
    edges = []
    for (u, v), weights in buckets.items():
        if config.aggregate_rule == "sum-then-sign":
            agg = sum(weights)
        elif config.aggregate_rule == "mean-then-sign":
            agg = sum(weights) / len(weights)
        else:
            agg = weights[-1]
        if agg != config.sign_threshold:
            edges.append((u, v, 1 if agg > config.sign_threshold else -1))
    return SignedDigraph(edges)


# "9" < "10" in numeric but not in string order; numpy's unicode dtype would
# merge "a" and "a\x00"; the weights sum or average exactly to 0, 0.5 and
# -0.2 in some combinations
record_lists = st.lists(
    st.tuples(st.sampled_from(["9", "10", "a", "a\x00", "é"]),
              st.sampled_from(["9", "10", "a", "a\x00", "é"]),
              st.sampled_from([-1.0, -0.5, -0.2, 0.0, 0.25, 0.5, 1.0, 3.0])),
    max_size=30).map(lambda records: _rec(*records))


@given(records=record_lists)
@example(records=_rec(
    ("9", "10", 1.0), ("9", "10", -1.0),
    ("a", "a\x00", 0.5), ("a\x00", "a", -0.2),
    ("é", "é", 3.0), ("10", "é", 0.25),
    ("10", "é", 0.25), ("10", "é", -1.0)))
@settings(max_examples=150, deadline=None)
def test_build_graph_matches_reference(records):
    for rule in AGGREGATE_RULES:
        for threshold in (0.0, 0.5, -0.2):
            config = PreprocessConfig(sign_threshold=threshold,
                                      aggregate_rule=rule)
            g = build_graph(records, config)
            ref = _reference_build_graph(records, config)
            assert g.ids == ref.ids
            assert list(g.edge_items()) == list(ref.edge_items())
            for ours, theirs in zip((g.src, g.dst), (ref.src, ref.dst)):
                assert ours.tolist() == theirs.tolist()
            rebuilt = SignedDigraph(list(g.edge_items()), nodes=g.ids)
            assert rebuilt.ids == g.ids
            assert list(rebuilt.edge_items()) == list(g.edge_items())
            assert _signs(rebuilt) == _signs(g)
            with pytest.raises(ValueError):
                g.src[:1] = 0


# -- preprocessing ----------------------------------------------------------------


def test_pendant_chain_vanishes():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1)], nodes=["d"])
    pre = preprocess(g)
    assert pre.n_nodes == 0


def test_triangle_keeps_pendant_pruned():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
                       ("c", "d", 1)])
    pre = preprocess(g)
    assert pre.nodes == {"a", "b", "c"}


def test_giant_component_selection():
    g = SignedDigraph([
        ("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1),
        ("x", "y", 1), ("y", "z", 1), ("z", "x", 1),
    ])
    pre = preprocess(g, PreprocessConfig(prune_pendants=False))
    assert pre.nodes == {"a", "b", "c", "d"}


def test_giant_size_tie_keeps_smallest_id():
    # two 3-node components: the one holding "a" has 3 edges, the other 6;
    # "z" is an isolated third component
    g = SignedDigraph([
        ("b", "d", 1), ("d", "b", 1), ("d", "f", -1), ("f", "d", -1),
        ("b", "f", 1), ("f", "b", 1),
        ("c", "a", 1), ("e", "c", -1), ("a", "e", 1),
    ], nodes=["z"])
    pre = preprocess(g, PreprocessConfig(prune_pendants=False))
    assert pre.nodes == {"a", "c", "e"}
    m = metrics(g)
    assert m.node_count == 3
    assert m.edge_count == 3
    assert m.component_count == 3


def test_keep_all_components():
    g = SignedDigraph([
        ("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
        ("x", "y", 1), ("y", "z", 1), ("z", "x", 1),
    ])
    pre = preprocess(g, PreprocessConfig(keep_component="all"))
    assert pre.n_nodes == 6


def test_mutual_dyad_counts_twice_for_degree():
    # a<->b is a mutual dyad: both nodes have total degree 2, not pendants
    g = SignedDigraph([("a", "b", 1), ("b", "a", 1)])
    pre = preprocess(g)
    assert pre.nodes == {"a", "b"}


def test_subgraph_of_an_all_true_mask_is_the_graph_itself():
    g = random_signed_digraph(12, 0.3, 0.4, 5)
    tallies = tallies_of(g)
    kept = g.subgraph(np.ones(g.n_nodes, dtype=bool))
    assert kept is g
    assert kept._tallies is tallies


def test_subgraph_of_an_all_false_mask_is_empty():
    g = random_signed_digraph(12, 0.3, 0.4, 5)
    empty = g.subgraph(np.zeros(g.n_nodes, dtype=bool))
    assert (empty.ids, empty.n_edges) == ((), 0)


@pytest.mark.parametrize("keep", [
    np.array([0, 2]), np.arange(12), [0, 1], np.ones(11, dtype=bool),
    np.ones(13, dtype=bool), np.ones((12, 1), dtype=bool)],
    ids=["indices", "all-indices", "index-list", "short", "long", "2d"])
def test_subgraph_takes_only_a_boolean_node_mask(keep):
    g = random_signed_digraph(12, 0.3, 0.4, 5)
    with pytest.raises(ValueError, match="boolean mask of 12 nodes"):
        g.subgraph(keep)


def test_largest_component_of_no_nodes_is_an_empty_mask():
    none = np.zeros(0, dtype=np.int64)
    mask, count = largest_component(0, none, none)
    assert (mask.dtype, mask.shape, count) == (np.dtype(bool), (0,), 0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_largest_component_without_edges_is_node_0(k):
    none = np.zeros(0, dtype=np.int64)
    mask, count = largest_component(k, none, none)
    assert mask.dtype == bool
    assert mask.tolist() == [True] + [False] * (k - 1)
    assert count == k


@pytest.mark.parametrize("seed", range(8))
def test_subgraph_matches_a_set_restriction(seed):
    # sparse enough that some nodes have no edge, kept or dropped
    g = random_signed_digraph(30, 0.04, 0.4, seed)
    assert set(range(g.n_nodes)) - set(g.src.tolist()) - set(g.dst.tolist())
    keep = np.random.default_rng(seed).random(g.n_nodes) < 0.6
    kept = {g.ids[i] for i in range(g.n_nodes) if keep[i]}
    sub = g.subgraph(keep)
    assert sub.ids == tuple(sorted(kept))
    assert list(sub.edge_items()) == [(u, v, s) for u, v, s in g.edge_items()
                                      if u in kept and v in kept]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pruned_graphs_have_min_degree_two(seed):
    g = random_signed_digraph(12, 0.18, 0.4, seed)
    pre = preprocess(g)
    degree = (np.bincount(pre.src, minlength=pre.n_nodes)
              + np.bincount(pre.dst, minlength=pre.n_nodes))
    assert (degree >= 2).all()


def _reference_preprocess(graph: SignedDigraph,
                          config: PreprocessConfig) -> set[int]:
    """Kept node indices, from set-based BFS components and one-at-a-time
    pendant removal."""
    out, inn, adj = _index_sets(graph)
    keep = set(range(graph.n_nodes))
    if config.keep_component == "giant" and keep:
        components, seen = [], set()
        for start in range(graph.n_nodes):
            if start in seen:
                continue
            comp, queue = {start}, [start]
            while queue:
                for v in adj[queue.pop()] - comp:
                    comp.add(v)
                    queue.append(v)
            seen |= comp
            components.append(comp)
        best = max(len(c) for c in components)
        keep = min((c for c in components if len(c) == best),
                   key=lambda c: min(graph.ids[i] for i in c))
    if config.prune_pendants:
        def degree(i):
            return len(out[i] & keep) + len(inn[i] & keep)
        pendants = [i for i in keep if degree(i) <= 1]
        while pendants:
            keep = keep - {pendants[0]}
            pendants = [i for i in keep if degree(i) <= 1]
    return keep


def _weakly_connected(graph: SignedDigraph) -> bool:
    adj = _index_sets(graph)[2]
    reached, queue = {0}, [0]
    while queue:
        for v in adj[queue.pop()] - reached:
            reached.add(v)
            queue.append(v)
    return len(reached) == graph.n_nodes


# sparse graphs on ids "0".."15": string order ("10" < "2") differs from
# numeric order, so the size-tie rule is tested on the ids themselves
sparse_edges = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.sampled_from([1, -1]))
    .filter(lambda e: e[0] != e[1]),
    max_size=28, unique_by=lambda e: (e[0], e[1]))


@given(edges=sparse_edges)
@example(edges=[(0, 1, 1), (1, 2, 1), (2, 0, -1), (2, 3, 1), (3, 4, 1),
                (10, 11, 1), (11, 12, -1), (12, 10, 1), (12, 13, 1),
                (13, 14, 1)])
@settings(max_examples=200, deadline=None)
def test_preprocess_matches_set_reference(edges):
    g = SignedDigraph([(str(u), str(v), s) for u, v, s in edges],
                      nodes=[str(i) for i in range(16)])
    for config in (PreprocessConfig(), PreprocessConfig(prune_pendants=False),
                   PreprocessConfig(keep_component="all")):
        keep = _reference_preprocess(g, config)
        pre = preprocess(g, config)
        assert pre.ids == tuple(g.ids[i] for i in sorted(keep))
        assert list(pre.edge_items()) == [
            (u, v, s) for u, v, s in g.edge_items()
            if g.index[u] in keep and g.index[v] in keep]
        if config.keep_component == "giant" and pre.n_nodes:
            assert _weakly_connected(pre)


@given(edges=sparse_edges)
@settings(max_examples=100, deadline=None)
def test_kept_giant_component_equals_a_fresh_one(edges):
    # preprocess hands the graph it returns a giant component it did not
    # compute on that graph; it must be the one largest_component gives
    g = SignedDigraph([(str(u), str(v), s) for u, v, s in edges],
                      nodes=[str(i) for i in range(16)])
    for config in (PreprocessConfig(), PreprocessConfig(prune_pendants=False),
                   PreprocessConfig(keep_component="all")):
        pre = preprocess(g, config)
        mask, count = giant_of(pre)
        fresh, fresh_count = largest_component(pre.n_nodes, pre.src, pre.dst)
        assert (mask.tolist(), count) == (fresh.tolist(), fresh_count)
        assert not mask.flags.writeable
        assert giant_of(pre)[0] is mask


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_dump_rebuild_round_trip(seed):
    g = random_signed_digraph(10, 0.3, 0.5, seed)
    buf = io.StringIO()
    dump_tsv(g, buf)
    rebuilt = load_tsv(io.StringIO(buf.getvalue()))
    assert set(rebuilt.edge_items()) == set(g.edge_items())


def _read_back(edges):
    """The edges of the graph on `edges` as its dump reads back, or the
    message of the ValueError that refuses the graph or its dump."""
    try:
        g = SignedDigraph(edges)
        buf = io.StringIO()
        dump_tsv(g, buf)
    except ValueError as exc:
        return str(exc)
    assert list(load_tsv(io.StringIO(buf.getvalue())).edge_items()) == \
        list(g.edge_items())
    return None


@pytest.mark.parametrize("odd", ["#a", "# a", "#", "a#", " a", "a ", "a\xa0",
                                 "\u3000a", "", "a\tb", "a\rb", "a\nb",
                                 "a\x85b", "a\vb", "\ufeffa"])
def test_dump_reads_back_every_id_or_refuses_it(odd):
    # the odd id in a triangle, and as the source of the dump's first line
    for edges in ([(odd, "b", 1), ("b", "c", 1), (odd, "c", -1)],
                  [(odd, "\U0001f600", 1)]):
        refused = _read_back(edges)
        assert refused is None or repr(odd) in refused


def test_dump_reads_back_a_hash_id_that_is_only_a_target():
    assert _read_back([("a", "#x", 1), ("b", "#x", -1), ("a", "b", 1)]) is None


def test_pickle_round_trip_sends_arrays_only():
    g = random_signed_digraph(60, 0.1, 0.4, 7)
    tallies_of(g)
    data = pickle.dumps(g)
    loaded = pickle.loads(data)
    assert loaded._tallies is None
    assert list(loaded.edge_items()) == list(g.edge_items())
    assert (loaded.ids == g.ids and _signs(loaded) == _signs(g)
            and _index_sets(loaded)[2] == _index_sets(g)[2])
    for array in (loaded.src, loaded.dst, loaded.sgn):
        assert not array.flags.writeable
    # nothing beyond the ids and the edge arrays is carried, not even the
    # graph's triangle pass
    assert len(data) < len(pickle.dumps((g.ids, g.src, g.dst, g.sgn))) + 200


# -- undirected projection ---------------------------------------------------------


def test_projection_agreement():
    g = SignedDigraph([("u", "v", 1), ("v", "u", 1)])
    p = project_undirected(g)
    assert p.sign_of("u", "v") == p.sign_of("v", "u") == 1
    assert p.n_edges == 2


def test_projection_mismatch_cancels():
    g = SignedDigraph([("u", "v", 1), ("v", "u", -1)])
    p = project_undirected(g)
    assert not p.has_edge("u", "v")
    assert [(g.ids[u], g.ids[v]) for u, v in scan_triads(g).cancelled] \
        == [("u", "v")]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_edge_lookups_match_edge_items(seed):
    g = random_signed_digraph(9, 0.3, 0.5, seed)
    signs = _signs(g)
    items = list(g.edge_items())
    if items:  # the first and the last pair key
        assert g.sign_of(*items[0][:2]) == items[0][2]
        assert g.sign_of(*items[-1][:2]) == items[-1][2]
    for u in (*g.ids, "unknown"):
        for v in (*g.ids, "unknown"):
            assert g.has_edge(u, v) == ((u, v) in signs)
            if (u, v) in signs:
                assert g.sign_of(u, v) == signs[(u, v)]
            else:
                with pytest.raises(KeyError):
                    g.sign_of(u, v)


def test_find_keys_marks_absent_keys():
    keys = np.array([2, 5, 9])
    assert find_keys(keys, [0, 2, 3, 5, 9, 10]).tolist() == [-1, 0, -1, 1, 2,
                                                            -1]
    assert find_keys(keys, 9) == 2
    assert find_keys(np.zeros(0, dtype=np.int64), [0, 4]).tolist() == [-1, -1]


def test_projection_single_direction_kept():
    g = SignedDigraph([("u", "v", -1)])
    p = project_undirected(g)
    assert p.sign_of("u", "v") == -1


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_cancelled_pairs_match_reference(seed):
    # dense enough that most graphs hold reciprocal pairs, about half of
    # them with mismatched signs
    g = random_signed_digraph(12, 0.5, 0.5, seed)
    signs = _signs(g)
    want = sorted({(min(u, v), max(u, v)) for (u, v), s in signs.items()
                   if signs.get((v, u), s) != s})
    assert [(g.ids[u], g.ids[v]) for u, v in scan_triads(g).cancelled] \
        == want
    # a kept pair takes the sign of its edges, in both directions
    assert _signs(project_undirected(g)) == {
        pair: s for (u, v), s in signs.items() if (min(u, v), max(u, v))
        not in want for pair in ((u, v), (v, u))}


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_projection_edge_bound(seed):
    g = random_signed_digraph(10, 0.4, 0.5, seed)
    p = project_undirected(g)
    assert all(p.sign_of(v, u) == s for u, v, s in p.edge_items())
    pairs = {(min(u, v), max(u, v)) for (u, v) in _signs(g)}
    assert {(min(u, v), max(u, v)) for (u, v) in _signs(p)} <= pairs


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_symmetric_projection_halves_edges(seed):
    g = random_signed_digraph(9, 0.4, 0.5, seed)
    sym = SignedDigraph(
        [(u, v, s) for u, v, s in g.edge_items()]
        + [(v, u, s) for u, v, s in g.edge_items()
           if not g.has_edge(v, u)],
        nodes=g.ids)
    # force agreeing reciprocal signs
    fixed = {}
    for (u, v), s in _signs(sym).items():
        key = (min(u, v), max(u, v))
        fixed.setdefault(key, s)
    sym = SignedDigraph(
        [(u, v, fixed[(min(u, v), max(u, v))]) for (u, v) in _signs(sym)],
        nodes=sym.ids)
    p = project_undirected(sym)
    assert list(p.edge_items()) == list(sym.edge_items())
    assert len({(min(u, v), max(u, v)) for (u, v) in _signs(p)}) \
        == sym.n_edges / 2
