"""Signed digraph data model: ingestion, preprocessing, undirected projection.

Every input format parses into `EdgeColumns`: the sorted distinct node ids,
and per record (in input order) the positions of its source and target
among them and its weight.  `build_graph` aggregates and thresholds those
into signs.  The input is read once, as bytes; a text stream's text is
encoded as UTF-8.  A regular tsv-sign input is split into its columns in
one pass over one padded copy of those bytes; when every id fits in 8
bytes, its ids are interned on those bytes, so only the distinct ids become
strings.  Every other input goes through a per-line loop that reads the
bytes through the standard UTF-8 decoder, splits lines at LF, CR and CRLF
and interns its id strings in Python.
Node ids are opaque strings everywhere at the API surface.  Internally each
graph maps its ids to dense integer indices (sorted id order) and stores its
edges once, as read-only source, target and sign arrays sorted by index
pair.  Besides them it keeps only what it builds from them on first use: the
id -> index dict and its one triangle pass (`census.tallies_of`).  The
connected dyads with their directions and signs (`dyad_table`) and the
undirected skeleton as a CSR (`skeleton_csr`) are built from the arrays
when needed.
"""
from __future__ import annotations

import bisect
import io
import math
import operator
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import FormatError, ParseError

INPUT_FORMATS = ("csv-rating", "tsv-sign", "signed-matrix")
AGGREGATE_RULES = ("sum-then-sign", "last-record", "mean-then-sign")
KEEP_COMPONENTS = ("giant", "all")

#: index arrays are 32-bit while every entry they may hold is below this
_INDEX32_LIMIT = 1 << 31


def _index_dtype(bound: int) -> type:
    """The dtype of an index array whose entries stay below `bound`: int32
    when `bound` is under `_INDEX32_LIMIT`, else int64."""
    return np.int32 if bound < _INDEX32_LIMIT else np.int64


class EdgeColumns(NamedTuple):
    """Raw scored edges as read from a dataset, before sign collapsing.

    `ids` holds the distinct node ids, strictly increasing in Python's str
    order.  The other columns hold one entry per record, in input order:
    the positions in `ids` of its source and target, and its weight.
    """

    ids: list[str]
    sources: np.ndarray  # int64
    targets: np.ndarray  # int64
    weights: np.ndarray  # float64

    @classmethod
    def from_records(cls, sources: list[str], targets: list[str],
                     weights) -> "EdgeColumns":
        """The columns of records given as one source and one target id
        string each."""
        # Python's str order: numpy's unicode dtype would merge "a" and "a\x00"
        ids = sorted(set(sources).union(targets))
        position = dict(zip(ids, range(len(ids))))
        m = len(sources)
        return cls(ids, np.fromiter(map(position.__getitem__, sources),
                                    np.int64, m),
                   np.fromiter(map(position.__getitem__, targets), np.int64, m),
                   np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for collapsing raw records into a clean signed digraph.

    sign_threshold: aggregate > threshold maps to +1, < threshold to -1,
        and an aggregate exactly at the threshold drops the edge.
    aggregate_rule: how parallel records for one ordered pair collapse.
    prune_pendants: iteratively drop nodes of total degree <= 1 (they can
        never sit in a triad).
    keep_component: "giant" keeps the largest weakly-connected component.
    """

    sign_threshold: float = 0.0
    aggregate_rule: str = "sum-then-sign"
    prune_pendants: bool = True
    keep_component: str = "giant"

    def __post_init__(self):
        if not math.isfinite(self.sign_threshold):
            raise ValueError("sign_threshold must be finite")
        if self.aggregate_rule not in AGGREGATE_RULES:
            raise ValueError(f"unknown aggregate_rule {self.aggregate_rule!r}")
        if self.keep_component not in KEEP_COMPONENTS:
            raise ValueError(f"unknown keep_component {self.keep_component!r}")


def _check_ids(ids) -> None:
    """Reject an empty or padded id, or one holding a TAB, CR or LF: the
    canonical dump would not read it back as itself."""
    for u in ids:
        if not u or u != u.strip() or "\t" in u or "\r" in u or "\n" in u:
            raise ValueError(f"node id {u!r} is empty, padded or holds a "
                             f"TAB, CR or LF")


class SignedDigraph:
    """Immutable signed directed graph.

    The edges are stored once, as read-only arrays sorted by (source,
    target) index, so the pair keys source * n + target are sorted too and
    every lookup is a binary search over them:
        ids:   tuple of node id strings, sorted; position = dense index
        index: dict mapping id -> index, built on first use
        src:   int64 source index of each edge
        dst:   int64 target index of each edge
        sgn:   int8 sign of each edge, +1 | -1
    The graph's triangle pass is kept in `_tallies` by `census.tallies_of`,
    and its giant component in `_giant` by `giant_of`.
    """

    __slots__ = ("ids", "_index", "_tallies", "_giant", "src", "dst", "sgn")

    def __new__(cls, edges: Iterable[tuple[str, str, int]] = (),
                nodes: Iterable[str] = ()):
        edge_list = [(str(u), str(v), s) for u, v, s in edges]
        id_set = set(map(str, nodes))
        for u, v, s in edge_list:
            if u == v:
                raise ValueError(f"self-loop {u!r} not allowed")
            # checked as given: int(s) would truncate 1.5 to +1
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s!r}")
            id_set.add(u)
            id_set.add(v)
        ids = tuple(sorted(id_set))
        _check_ids(ids)
        index = dict(zip(ids, range(len(ids))))
        pair = np.array([index[u] * len(ids) + index[v]
                         for u, v, _ in edge_list], dtype=np.int64)
        pairs, first = np.unique(pair, return_index=True)
        if len(pairs) < len(pair):
            repeat = np.setdiff1d(np.arange(len(pair)), first)[0]
            u, v, _ = edge_list[repeat]
            raise ValueError(f"duplicate edge {u!r} -> {v!r}")
        sgn = np.array([s for _, _, s in edge_list], dtype=np.int8)
        return cls._from_arrays(ids, *np.divmod(pairs, len(ids)), sgn[first])

    @classmethod
    def _from_arrays(cls, ids: tuple[str, ...], src: np.ndarray,
                     dst: np.ndarray, sgn: np.ndarray) -> "SignedDigraph":
        """The graph on the sorted `ids` with the given edges, which must be
        sorted by (src, dst) and hold no self-loop and no repeated pair."""
        g = object.__new__(cls)
        g.ids = ids
        g._index = None
        g._tallies = g._giant = None
        g.src = np.asarray(src, dtype=np.int64)
        g.dst = np.asarray(dst, dtype=np.int64)
        g.sgn = np.asarray(sgn, dtype=np.int8)
        for array in (g.src, g.dst, g.sgn):
            array.flags.writeable = False
        return g

    def __reduce__(self):
        # a pickle or a copy carries the ids and edge arrays, not what is
        # built from them; loading makes the arrays read-only again
        return (type(self)._from_arrays, (self.ids, self.src, self.dst,
                                          self.sgn))

    # -- string-facing convenience -------------------------------------------

    @property
    def index(self) -> dict[str, int]:
        # only the id-facing lookups read it, and `analyze` makes none
        if self._index is None:
            self._index = dict(zip(self.ids, range(len(self.ids))))
        return self._index

    @property
    def nodes(self) -> set[str]:
        return set(self.ids)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def position(self, a: int, b: int) -> int:
        """Position of the edge a -> b of node indices, or -1: a's row, then b."""
        first, stop = np.searchsorted(self.src, [a, a + 1]).tolist()
        at = first + int(np.searchsorted(self.dst[first:stop], b))
        return at if at < stop and self.dst[at] == b else -1

    def has_edge(self, u: str, v: str) -> bool:
        try:
            return self.position(self.index[u], self.index[v]) >= 0
        except KeyError:
            return False

    def sign_of(self, u: str, v: str) -> int:
        at = self.position(self.index[u], self.index[v])
        if at < 0:
            raise KeyError((u, v))
        return int(self.sgn[at])

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        """Edges as (source, target, sign), sorted by index pair."""
        ids = self.ids
        for u, v, s in zip(self.src.tolist(), self.dst.tolist(),
                           self.sgn.tolist()):
            yield ids[u], ids[v], s

    def subgraph(self, keep: np.ndarray) -> "SignedDigraph":
        """The graph on the nodes where the boolean mask `keep` (one entry
        per node index) is True and the edges between them; the graph
        itself, triangle pass and all, when every node is kept.

        Ids are sorted, so one cumulative sum renumbers the kept nodes in
        index order and the edges stay sorted.  An index array, or anything
        else but such a mask, raises ValueError.
        """
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.n_nodes,):
            raise ValueError(f"keep must be a boolean mask of {self.n_nodes} "
                             f"nodes, got {keep.dtype} of shape {keep.shape}")
        if keep.all():
            return self
        inside = keep[self.src] & keep[self.dst]
        position = np.cumsum(keep) - 1
        return SignedDigraph._from_arrays(
            tuple(self.ids[i] for i in np.flatnonzero(keep).tolist()),
            position[self.src[inside]], position[self.dst[inside]],
            self.sgn[inside])

    def __repr__(self):
        return f"SignedDigraph(n={self.n_nodes}, m={self.n_edges})"


def find_keys(keys: np.ndarray, want) -> np.ndarray:
    """Position of each wanted key in the sorted `keys`, or -1 where it is
    absent.  The search is fastest when `want` is sorted too."""
    at = np.searchsorted(keys, want)
    if not len(keys):
        return np.full_like(at, -1)
    return np.where(keys.take(at, mode="clip") == want, at, -1)


#: dyad codes of reciprocal pairs of opposite signs, which the projection cancels
_CANCELLING = (0b0111, 0b1011)


def dyad_table(graph: SignedDigraph,
               rank: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The connected dyads as (pairs, codes): the sorted int64 keys
    lo * n + hi (lo < hi) of the pairs joined by an edge, and the 4-bit
    uint8 code of each: bit 0 set when lo -> hi is an edge, bit 1 when
    hi -> lo is, and bits 2 and 3 when those edges are negative.  lo and hi
    are node indices, or their `rank`s when a permutation of the indices is
    given.  One in-place sort of the edges tagged with their pair and their
    own bits, then one OR per pair."""
    src, dst = graph.src, graph.dst
    if rank is not None:
        src, dst = rank[src], rank[dst]
    forward = src < dst
    tagged = np.minimum(src, dst, dtype=np.int64)
    tagged *= graph.n_nodes
    tagged += np.maximum(src, dst)
    tagged <<= 4
    # an edge's own bits: 1 forward or 2 back, and the same bit two places
    # up when the edge is negative
    tagged |= np.where(forward, 1, 2) * np.where(graph.sgn < 0, 5, 1)
    tagged.sort()
    bits = tagged.astype(np.uint8)
    bits &= 15
    pairs = np.right_shift(tagged, 4, out=tagged)
    new = np.empty(len(pairs), dtype=bool)
    new[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return pairs[first], np.bitwise_or.reduceat(bits, first)


def skeleton_csr(n_nodes: int, src: np.ndarray,
                 dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The undirected simple skeleton of the edges (any directed edge joins
    its two ends once) in CSR form: the neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, sorted."""
    keys = np.sort(np.concatenate([src * n_nodes + dst, dst * n_nodes + src]))
    # sort plus a neighbour mask: np.unique hashes, which is slower here
    rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr, indices


# -- ingestion ----------------------------------------------------------------


#: the bytes a regular tsv-sign text may hold: TAB, LF and every byte above
#: space but '#', which leaves out CR and the other ASCII whitespace
_REGULAR_BYTES = bytes([9, 10, *range(33, 35), *range(36, 256)])


def _read(source) -> bytes:
    """The whole input, read once as bytes: from a path, bytes or a binary
    stream as they are, and a text stream's text encoded as UTF-8."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    data = source if isinstance(source, bytes) else source.read()
    return data.encode("utf-8") if isinstance(data, str) else data


def load_edge_records(source, fmt: str) -> EdgeColumns:
    """Parse raw edge records from a path, bytes, or a binary or text stream
    into `EdgeColumns`: the sorted distinct ids, and the source and target
    positions among them and the weight of each record, in input order.

    Formats:
        csv-rating:    source,target,rating[,timestamp]
        tsv-sign:      source TAB target TAB sign, the sign +1 or -1
        signed-matrix: square whitespace/comma separated matrix of finite
                       reals, rows are senders; zero cells produce no record

    The input is read once, as bytes (`_read`), and decoded as utf-8-sig.
    A regular tsv-sign text is split in one pass over those bytes, which
    also interns ids of up to 8 bytes (`_split_regular`); every other text
    goes through the per-line parsers, which read it through the standard
    UTF-8 decoder one chunk at a time and split lines at LF, CR and CRLF
    whatever the kind of source.
    """
    if fmt not in INPUT_FORMATS:
        raise FormatError(f"unknown input format {fmt!r}")
    data = _read(source)
    if fmt == "tsv-sign":
        columns = _split_regular(data)
        if columns is not None:
            return columns
    # decoded whole once, before any line is parsed, so a decode error names
    # its position in the input and wins over a parse error on an earlier line
    data.decode("utf-8-sig")
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                             newline="")
    if fmt == "signed-matrix":
        return _parse_matrix(lines)
    return _parse_lines(lines, fmt)


def _split_regular(data: bytes) -> EdgeColumns | None:
    """The columns of the regular tsv-sign input `data`, or None for any
    other input.

    Regular means: every line is 'id TAB id TAB sign' ending in LF (the last
    line may lack it), no id is empty, every sign is literally 1, +1 or -1,
    and no character is CR, '#' or whitespace other than TAB and LF.  The
    per-line loop skips, strips and rejects nothing in such a text, so its
    columns are the fields in order.  When every id fits in 8 bytes, the
    ids are interned on their UTF-8 bytes (`_intern_fields`); otherwise as
    strings, as the loop does.
    """
    skip = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    if len(data) == skip or data.translate(None, _REGULAR_BYTES):
        return None
    # decoded, which checks the UTF-8 as the per-line parsers would, only
    # when some byte is not ASCII
    text = None if data.isascii() else data.decode("utf-8-sig")
    # str.strip also removes non-ASCII whitespace
    if text is not None and re.search(r"[^\S\t\n]", text):
        return None
    split = _regular_fields(data, skip)
    if split is None:
        return None
    weights, words = split
    if words is None:
        if text is None:
            text = data.decode("ascii")
        # a final LF leaves one empty field after the last line
        fields, stop = text.replace("\n", "\t").split("\t"), 3 * len(weights)
        return EdgeColumns.from_records(fields[0:stop:3], fields[1:stop:3],
                                        weights)
    ids, positions = _intern_fields(words)
    sources, targets = np.split(positions, 2)
    return EdgeColumns(ids, sources, targets, weights)


#: _KEEP[k] keeps the first k bytes of a big-endian 8-byte word
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)],
                 dtype=np.uint64)


def _regular_fields(data: bytes, skip: int
                    ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The weight of each line of the tsv-sign bytes `data[skip:]` and, when
    no id is over 8 bytes, the id fields as words: every line's source and
    then every line's target, each read as a big-endian word from its start
    with the bytes past its end zeroed.  None unless every line is 'id TAB
    id TAB sign' LF, the last LF optional, with non-empty ids and a sign 1,
    +1 or -1.

    The bytes are copied once, with a final LF and 8 zero bytes, so a word
    read at any field start stays inside the copy.  Fields are cut from it
    as starts and lengths, 32-bit when the copy is under 2 GiB, which are
    dropped with the copy on return.
    """
    size = len(data) - skip
    raw = np.zeros(size + (not data.endswith(b"\n")) + 8, dtype=np.uint8)
    raw[:size] = np.frombuffer(data, np.uint8, offset=skip)
    raw[-9] = ord("\n")  # the text's own last LF, or one added
    # TAB and LF bytes, which never sit inside a multi-byte UTF-8 character:
    # each line must hold TAB TAB LF
    cuts = np.flatnonzero(raw[:-8] < 11)
    if len(cuts) % 3 or np.any(raw[cuts].reshape(-1, 3) != (9, 9, 10)):
        return None
    tab1, tab2, end = cuts.reshape(-1, 3).T
    # the sign is '1' after nothing, '+' or '-', so it is never empty
    wide, lead = end - tab2 > 2, raw[tab2 + 1]
    if (np.any(end - tab2 > 3) or np.any(raw[end - 1] != ord("1"))
            or np.any(wide & (lead != ord("+")) & (lead != ord("-")))):
        return None
    weights = np.where(wide & (lead == ord("-")), -1.0, 1.0)
    m = len(end)
    offset = _index_dtype(len(raw))
    starts, lengths = np.empty(2 * m, offset), np.empty(2 * m, offset)
    starts[0] = 0
    np.add(end[:-1], 1, out=starts[1:m])
    np.add(tab1, 1, out=starts[m:])
    np.subtract(tab1, starts[:m], out=lengths[:m])
    np.subtract(tab2, starts[m:], out=lengths[m:])
    del cuts, tab1, tab2, end, wide, lead  # the words need the room
    if lengths.min() < 1:
        return None
    if lengths.max() > 8:
        return weights, None
    windows = np.ndarray((len(raw) - 7,), ">u8", raw, strides=(1,))
    words = windows[starts]
    # in native byte order, in place, then cut to the fields
    words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
    words &= _KEEP[lengths]
    return weights, words


def _intern_fields(words: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct UTF-8 fields of the `words` that `_regular_fields`
    reads, decoded and sorted, and the position of each field among them.

    No field holds a zero byte, so the words compare as the bytes do, UTF-8
    byte order is the str order of the decoding, and a word's bytes up to
    its first zero byte are the field.  One argsort ranks the words: a
    field's position is the number of new words up to its place in the
    sorted order, scattered back into the words' own buffer.
    """
    order = np.argsort(words)
    ranked = words[order]
    new = np.empty(len(ranked), dtype=bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    # each distinct word's bytes and a TAB, in one buffer without the zero
    # bytes that end the shorter fields
    fields = np.full((int(new.sum()), 9), ord("\t"), dtype=np.uint8)
    fields[:, :8].view(">u8")[:, 0] = ranked[new]
    text = fields[fields != 0].tobytes()
    del fields  # the decoded ids need the room
    # counted in place in the sorted words' buffer: cumsum would first copy
    # the flags to int64
    new[0] = False
    ranks = ranked.view(np.int64)
    ranks[:] = new
    np.cumsum(ranks, out=ranks)
    positions = words.view(np.int64)
    positions[order] = ranks
    return text.decode("utf-8").split("\t")[:-1], positions


def _parse_lines(lines: Iterable[str], fmt: str) -> EdgeColumns:
    sep = "," if fmt == "csv-rating" else "\t"
    sources, targets, weights = [], [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(sep)
        if fmt == "csv-rating" and len(parts) not in (3, 4):
            raise ParseError(line_no, f"expected 3 or 4 comma fields, got {len(parts)}")
        if fmt == "tsv-sign" and len(parts) != 3:
            raise ParseError(line_no, f"expected 3 tab fields, got {len(parts)}")
        source, target = parts[0].strip(), parts[1].strip()
        if not source or not target:
            raise ParseError(line_no, "empty node id")
        if "\t" in source or "\t" in target:  # the TSV dump could not hold it
            raise ParseError(line_no, "TAB in node id")
        try:
            weight = float(parts[2])
        except ValueError:
            raise ParseError(line_no, f"bad weight {parts[2]!r}") from None
        if not math.isfinite(weight):
            raise ParseError(line_no, f"non-finite weight {parts[2]!r}")
        if fmt == "tsv-sign" and weight not in (1.0, -1.0):
            raise ParseError(line_no, f"sign must be +1 or -1, got {parts[2]!r}")
        if len(parts) == 4:
            # validated but not kept: last-record goes by input order
            try:
                int(float(parts[3]))
            except (ValueError, OverflowError):  # nan, inf
                raise ParseError(line_no, f"bad timestamp {parts[3]!r}") from None
        sources.append(source)
        targets.append(target)
        weights.append(weight)
    return EdgeColumns.from_records(sources, targets, weights)


def _parse_matrix(lines: Iterable[str]) -> EdgeColumns:
    rows: list[list[float]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(c) for c in line.replace(",", " ").split()]
        except ValueError:
            raise ParseError(line_no, f"non-numeric matrix cell in {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(line_no, f"non-finite matrix cell in {line!r}")
        rows.append(row)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise FormatError(f"matrix is not square: {n} rows but a row of "
                              f"length {len(row)}")
    matrix = np.array(rows, dtype=np.float64).reshape(n, n)
    # row-major: records come in input order, row by row
    senders, receivers = np.nonzero(matrix)
    return EdgeColumns.from_records(list(map(str, senders.tolist())),
                                    list(map(str, receivers.tolist())),
                                    matrix[senders, receivers])


# -- build + preprocess --------------------------------------------------------


def build_graph(columns: EdgeColumns,
                config: PreprocessConfig | None = None) -> SignedDigraph:
    """Collapse raw edge columns into a signed digraph.

    The columns' positions index its ids, which must be strictly increasing
    and pass `SignedDigraph`'s id rule; columns that break this raise
    ValueError.  Parallel records for one ordered pair (one pair of
    positions) are aggregated by the configured rule; the aggregate is
    compared against the sign threshold (above -> +1, below -> -1, exactly
    at it -> edge dropped).  Self-loops are dropped.
    `subgraph` then drops the ids that have no surviving edge.
    """
    config = config or PreprocessConfig()
    names, sources, targets, weights = columns
    n = len(names)
    src, dst = np.asarray(sources, np.int64), np.asarray(targets, np.int64)
    weight = np.asarray(weights, np.float64)
    if not len(src) == len(dst) == len(weight):
        raise ValueError(f"columns of different lengths: {len(src)} sources, "
                         f"{len(dst)} targets, {len(weight)} weights")
    if not all(map(operator.lt, names, names[1:])):
        raise ValueError("ids are not strictly increasing")
    _check_ids(names)
    if len(src) and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= n):
        raise ValueError(f"a position outside the {n} ids")
    loop = src == dst
    pair, weight = (src * n + dst)[~loop], weight[~loop]
    if config.aggregate_rule == "last-record":
        # by input order: the first of each pair in reversed order
        pairs, last = np.unique(pair[::-1], return_index=True)
        agg = weight[::-1][last]
    else:
        pairs, group = np.unique(pair, return_inverse=True)
        # bincount adds each pair's weights in input order, like `sum`
        agg = np.bincount(group, weights=weight, minlength=len(pairs))
        if config.aggregate_rule == "mean-then-sign":
            agg = agg / np.bincount(group, minlength=len(pairs))
    positive = agg > config.sign_threshold
    signed = positive | (agg < config.sign_threshold)  # at it: neutral
    src, dst = np.divmod(pairs[signed], n)
    used = np.zeros(n, dtype=bool)
    used[src] = used[dst] = True
    return SignedDigraph._from_arrays(
        tuple(names), src, dst,
        np.where(positive[signed], 1, -1)).subgraph(used)


def largest_component(n_nodes: int, src: np.ndarray,
                      dst: np.ndarray) -> tuple[np.ndarray, int]:
    """The largest weakly-connected component of the graph with the given
    edges as a boolean node mask, and the number of components (0 on 0).

    Labels come from min-label hooking with pointer jumping, so each node
    ends up labelled with the smallest index of its component.  Size ties
    go to the component holding the smallest index, which, ids being
    sorted, is the one with the smallest minimum id.
    """
    label = np.arange(n_nodes)
    while True:
        # every label is a root here (label[label] == label): hook each root
        # onto the smallest label across its edges, then jump pointers until
        # every node points at a root again
        ends = label[src], label[dst]
        low = np.minimum(*ends)
        hooked = label.copy()
        for end in ends:
            np.minimum.at(hooked, end, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    # one bin at least, so argmax has one on 0 nodes too
    sizes = np.bincount(label, minlength=1)
    # labels are component minima, so argmax's first maximum is the tie rule
    return label == np.argmax(sizes), int(np.count_nonzero(sizes))


def giant_of(graph: SignedDigraph) -> tuple[np.ndarray, int]:
    """The graph's `largest_component` mask, read-only, and its number of
    components: computed on first use and kept with the graph, which never
    changes."""
    if graph._giant is None:
        mask, count = largest_component(graph.n_nodes, graph.src, graph.dst)
        mask.flags.writeable = False
        graph._giant = mask, count
    return graph._giant


def preprocess(graph: SignedDigraph,
               config: PreprocessConfig | None = None) -> SignedDigraph:
    """Giant-component selection plus optional iterative pendant pruning,
    on one keep mask that `graph.subgraph` applies.

    Pruning drops nodes of total degree <= 1 (a mutual dyad counts twice)
    until none is left; they can never sit in a triad.  A pruned node has
    at most one neighbour, so removing it never disconnects the rest: the
    pruned giant component stays connected and needs no second selection,
    so a graph that lost nodes to it is handed that answer for `giant_of`.
    """
    config = config or PreprocessConfig()
    n = graph.n_nodes
    src, dst = graph.src, graph.dst
    giant = config.keep_component == "giant"
    if giant:
        keep = giant_of(graph)[0].copy()
    else:
        keep = np.ones(n, dtype=bool)
    if config.prune_pendants:
        live = keep[src] & keep[dst]
        degree = (np.bincount(src[live], minlength=n)
                  + np.bincount(dst[live], minlength=n))
        stack = np.flatnonzero(keep & (degree <= 1)).tolist()
        if stack:
            degree = degree.tolist()
            indptr, indices = skeleton_csr(n, src, dst)
        # peel one pendant at a time, so the work is bounded by the pruned
        # nodes and their edges however long a pendant chain is
        while stack:
            u = stack.pop()
            if not keep[u]:
                continue
            keep[u] = False
            # at most one kept v, by a single edge
            for v in indices[indptr[u]:indptr[u + 1]].tolist():
                if keep[v]:
                    degree[v] -= 1
                    if degree[v] <= 1:
                        stack.append(v)
    result = graph.subgraph(keep)
    if giant and result is not graph and result.n_nodes:
        result._giant = np.broadcast_to(True, result.n_nodes), 1  # read-only
    return result


# -- undirected projection -----------------------------------------------------


def project_undirected(graph: SignedDigraph) -> SignedDigraph:
    """Collapse the digraph onto unordered pairs, as a symmetric digraph on
    the same ids: every kept pair appears in both directions with its one
    sign.

    Both directions present with equal sign -> the pair keeps that sign;
    opposite signs -> the pair cancels out entirely; a single direction is
    kept with its sign.
    """
    pairs, codes = dyad_table(graph)
    kept = ~np.isin(codes, _CANCELLING)
    n = graph.n_nodes
    lo, hi = np.divmod(pairs[kept], n)
    sgn = np.where(codes[kept] & 0b1100, -1, 1)  # a negative edge: negative
    keys = np.concatenate([lo * n + hi, hi * n + lo])
    order = np.argsort(keys)
    return SignedDigraph._from_arrays(graph.ids, *np.divmod(keys[order], n),
                                      np.concatenate([sgn, sgn])[order])


# -- canonical dump --------------------------------------------------------------


def dump_tsv(graph: SignedDigraph, target) -> None:
    """Write the canonical dump: 'source TAB target TAB sign' per edge, to a
    path or a text stream, which `load_tsv` reads back as the same edges.
    Raises ValueError when an edge leaves an id that starts with '#'.

    The text is joined from pieces made once per node, a 'u TAB' source
    piece and 'v TAB +1' and 'v TAB -1' target pieces, which each edge picks
    by position, so no string is made per edge."""
    ids, n = graph.ids, graph.n_nodes
    # ids are sorted, so those that start with '#' are one block, and a line
    # starting with one would read back as a comment
    first, stop = bisect.bisect_left(ids, "#"), bisect.bisect_left(ids, "$")
    at = int(np.searchsorted(graph.src, first))
    if at < graph.n_edges and graph.src[at] < stop:
        raise ValueError(f"node id {ids[graph.src[at]]!r} starts with '#', "
                         f"so its edges would read back as comments")
    pieces = np.array([u + "\t" for u in ids] + [v + "\t+1\n" for v in ids]
                      + [v + "\t-1\n" for v in ids], dtype=object)
    # each edge's source piece, then its target piece, as 32-bit positions
    # when they fit
    order = np.empty(2 * graph.n_edges, dtype=_index_dtype(3 * n))
    order[0::2] = graph.src
    order[1::2] = graph.dst + n * (1 + (graph.sgn < 0))
    text = "".join(pieces[order].tolist())
    if text.startswith("\ufeff"):
        # a reader drops one leading byte-order mark, so the first id keeps
        # its own
        text = "\ufeff" + text
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w", encoding="utf-8", newline="\n") if own else target
    try:
        fh.write(text)
    finally:
        if own:
            fh.close()


def load_tsv(source) -> SignedDigraph:
    """Rebuild a digraph from its canonical dump."""
    return build_graph(load_edge_records(source, "tsv-sign"))
