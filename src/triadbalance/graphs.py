"""Signed digraph data model: ingestion, preprocessing, undirected projection.

Node ids are opaque strings everywhere at the API surface.  Internally each
graph maps its ids to dense integer indices (sorted id order) so that the
enumeration code can work on plain integer adjacency sets.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import FormatError, ParseError

INPUT_FORMATS = ("csv-rating", "tsv-sign", "signed-matrix")
AGGREGATE_RULES = ("sum-then-sign", "last-record", "mean-then-sign")
KEEP_COMPONENTS = ("giant", "all")


class EdgeRecord(NamedTuple):
    """One raw scored edge as read from a dataset, before sign collapsing."""

    source: str
    target: str
    weight: float
    timestamp: int | None = None


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
        if not (self.sign_threshold == self.sign_threshold):  # NaN guard
            raise ValueError("sign_threshold must be finite")
        if abs(self.sign_threshold) == float("inf"):
            raise ValueError("sign_threshold must be finite")
        if self.aggregate_rule not in AGGREGATE_RULES:
            raise ValueError(f"unknown aggregate_rule {self.aggregate_rule!r}")
        if self.keep_component not in KEEP_COMPONENTS:
            raise ValueError(f"unknown keep_component {self.keep_component!r}")


class SignedDigraph:
    """Immutable signed directed graph.

    Attributes (index-based, treat as read-only):
        ids:   tuple of node id strings; position = dense index
        out:   list of successor index sets
        inn:   list of predecessor index sets
        adj:   list of union neighbourhood sets (out | inn)
        sign:  dict mapping ordered index pair (u, v) -> +1 | -1
    """

    __slots__ = ("ids", "index", "out", "inn", "adj", "sign")

    def __init__(self, edges: Iterable[tuple[str, str, int]] = (),
                 nodes: Iterable[str] = ()):
        edge_list = [(str(u), str(v), int(s)) for u, v, s in edges]
        id_set = set(nodes)
        for u, v, s in edge_list:
            if u == v:
                raise ValueError(f"self-loop {u!r} not allowed")
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s}")
            id_set.add(u)
            id_set.add(v)
        self.ids: tuple[str, ...] = tuple(sorted(id_set))
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        n = len(self.ids)
        self.out: list[set[int]] = [set() for _ in range(n)]
        self.inn: list[set[int]] = [set() for _ in range(n)]
        self.sign: dict[tuple[int, int], int] = {}
        for u, v, s in edge_list:
            ui, vi = self.index[u], self.index[v]
            if (ui, vi) in self.sign:
                raise ValueError(f"duplicate edge {u!r} -> {v!r}")
            self.sign[(ui, vi)] = s
            self.out[ui].add(vi)
            self.inn[vi].add(ui)
        self.adj: list[set[int]] = [self.out[i] | self.inn[i] for i in range(n)]

    # -- string-facing convenience -------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return set(self.ids)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.sign)

    def has_edge(self, u: str, v: str) -> bool:
        try:
            return (self.index[u], self.index[v]) in self.sign
        except KeyError:
            return False

    def sign_of(self, u: str, v: str) -> int:
        return self.sign[(self.index[u], self.index[v])]

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        """Edges as (source, target, sign), sorted by index pair."""
        for (ui, vi) in sorted(self.sign):
            yield self.ids[ui], self.ids[vi], self.sign[(ui, vi)]

    def total_degree(self, i: int) -> int:
        """In-degree + out-degree of index i (a mutual dyad counts twice)."""
        return len(self.out[i]) + len(self.inn[i])

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of the edges as int64 index arrays."""
        pairs = np.fromiter(chain.from_iterable(self.sign), dtype=np.int64,
                            count=2 * len(self.sign))
        return pairs[0::2], pairs[1::2]

    def subgraph(self, keep: Iterable[int]) -> "SignedDigraph":
        """New graph restricted to the given node indices.

        Ids are sorted, so the kept indices are renumbered in their own
        order; nothing goes back through the id strings.
        """
        keep = sorted(keep)
        new = dict(zip(keep, range(len(keep))))
        g = object.__new__(SignedDigraph)
        g.ids = tuple(self.ids[i] for i in keep)
        g.index = dict(zip(g.ids, range(len(keep))))
        g.sign = {(new[u], new[v]): s for (u, v), s in self.sign.items()
                  if u in new and v in new}
        g.out = [{new[v] for v in self.out[u] if v in new} for u in keep]
        g.inn = [{new[v] for v in self.inn[u] if v in new} for u in keep]
        g.adj = [o | i for o, i in zip(g.out, g.inn)]
        return g

    def __repr__(self):
        return f"SignedDigraph(n={self.n_nodes}, m={self.n_edges})"


class SignedGraph:
    """Immutable signed undirected graph (projection of a digraph).

    Attributes mirror SignedDigraph; `sign` is keyed by the index pair
    (min, max).
    """

    __slots__ = ("ids", "index", "adj", "sign")

    def __init__(self, edges: Iterable[tuple[str, str, int]] = (),
                 nodes: Iterable[str] = ()):
        edge_list = [(str(u), str(v), int(s)) for u, v, s in edges]
        id_set = set(nodes)
        for u, v, s in edge_list:
            if u == v:
                raise ValueError(f"self-edge {u!r} not allowed")
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s}")
            id_set.add(u)
            id_set.add(v)
        self.ids: tuple[str, ...] = tuple(sorted(id_set))
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.adj: list[set[int]] = [set() for _ in self.ids]
        self.sign: dict[tuple[int, int], int] = {}
        for u, v, s in edge_list:
            ui, vi = self.index[u], self.index[v]
            key = (ui, vi) if ui < vi else (vi, ui)
            if key in self.sign:
                raise ValueError(f"duplicate edge {{{u!r}, {v!r}}}")
            self.sign[key] = s
            self.adj[ui].add(vi)
            self.adj[vi].add(ui)

    @property
    def nodes(self) -> set[str]:
        return set(self.ids)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.sign)

    def has_edge(self, u: str, v: str) -> bool:
        try:
            ui, vi = self.index[u], self.index[v]
        except KeyError:
            return False
        return (min(ui, vi), max(ui, vi)) in self.sign

    def sign_of(self, u: str, v: str) -> int:
        ui, vi = self.index[u], self.index[v]
        return self.sign[(min(ui, vi), max(ui, vi))]

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        for (ui, vi) in sorted(self.sign):
            yield self.ids[ui], self.ids[vi], self.sign[(ui, vi)]

    def __repr__(self):
        return f"SignedGraph(n={self.n_nodes}, m={self.n_edges})"


# -- ingestion ----------------------------------------------------------------


def _open_text(source) -> IO[str]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.RawIOBase) or isinstance(source, io.BufferedIOBase):
        return io.TextIOWrapper(source, encoding="utf-8")
    return source  # already a text stream


def load_edge_records(source, fmt: str) -> list[EdgeRecord]:
    """Parse raw edge records from a path, byte stream or text stream.

    Formats:
        csv-rating:    source,target,rating[,timestamp]
        tsv-sign:      source TAB target TAB sign, the sign +1 or -1
        signed-matrix: square whitespace/comma separated integer matrix,
                       rows are senders; zero cells produce no record
    """
    if fmt not in INPUT_FORMATS:
        raise FormatError(f"unknown input format {fmt!r}")
    stream = _open_text(source)
    try:
        if fmt == "signed-matrix":
            return _parse_matrix(stream)
        return _parse_lines(stream, fmt)
    finally:
        if isinstance(source, (str, os.PathLike)):
            stream.close()


def _parse_lines(stream: IO[str], fmt: str) -> list[EdgeRecord]:
    sep = "," if fmt == "csv-rating" else "\t"
    records: list[EdgeRecord] = []
    for line_no, raw in enumerate(stream, start=1):
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
        try:
            weight = float(parts[2])
        except ValueError:
            raise ParseError(line_no, f"bad weight {parts[2]!r}") from None
        if weight != weight or abs(weight) == float("inf"):
            raise ParseError(line_no, f"non-finite weight {parts[2]!r}")
        if fmt == "tsv-sign" and weight not in (1.0, -1.0):
            raise ParseError(line_no, f"sign must be +1 or -1, got {parts[2]!r}")
        timestamp = None
        if fmt == "csv-rating" and len(parts) == 4:
            try:
                timestamp = int(float(parts[3]))
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {parts[3]!r}") from None
        records.append(EdgeRecord(source, target, weight, timestamp))
    return records


def _parse_matrix(stream: IO[str]) -> list[EdgeRecord]:
    rows: list[list[float]] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.replace(",", " ").split()
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ParseError(line_no, f"non-numeric matrix cell in {line!r}") from None
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise FormatError(f"matrix is not square: {n} rows but a row of "
                              f"length {len(row)}")
    records = []
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if value != 0:
                records.append(EdgeRecord(str(i), str(j), value))
    return records


# -- build + preprocess --------------------------------------------------------


def build_graph(records: Iterable[EdgeRecord],
                config: PreprocessConfig | None = None) -> SignedDigraph:
    """Collapse raw records into a signed digraph.

    Parallel records for one ordered pair are aggregated by the configured
    rule; the aggregate is compared against the sign threshold (above -> +1,
    below -> -1, exactly at it -> edge dropped).  Self-loops are dropped.
    """
    config = config or PreprocessConfig()
    buckets: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec.source == rec.target:
            continue
        buckets.setdefault((rec.source, rec.target), []).append(rec.weight)
    edges = []
    for (u, v), weights in buckets.items():
        if config.aggregate_rule == "sum-then-sign":
            agg = sum(weights)
        elif config.aggregate_rule == "mean-then-sign":
            agg = sum(weights) / len(weights)
        else:  # last-record, by input order (timestamps are ignored)
            agg = weights[-1]
        if agg > config.sign_threshold:
            edges.append((u, v, 1))
        elif agg < config.sign_threshold:
            edges.append((u, v, -1))
        # at the threshold: neutral, dropped
    return SignedDigraph(edges)


def largest_component(n_nodes: int, src: np.ndarray,
                      dst: np.ndarray) -> tuple[np.ndarray, int]:
    """Indices of the largest weakly-connected component of the graph with
    the given edges, and the number of components.

    Size ties go to the component holding the smallest index, which, ids
    being sorted, is the one with the smallest minimum id.
    """
    if n_nodes == 0:
        return np.zeros(0, dtype=np.int64), 0
    arcs = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                      shape=(n_nodes, n_nodes))
    count, labels = connected_components(arcs, directed=True,
                                         connection="weak")
    sizes = np.bincount(labels)
    # the label of the first node that sits in a component of maximal size
    label = labels[np.argmax(sizes[labels] == sizes.max())]
    return np.flatnonzero(labels == label), count


def preprocess(graph: SignedDigraph,
               config: PreprocessConfig | None = None) -> SignedDigraph:
    """Giant-component selection plus optional iterative pendant pruning.

    Pruning drops nodes of total degree <= 1 (a mutual dyad counts twice)
    until none is left; they can never sit in a triad.  A pruned node has
    at most one neighbour, so removing it never disconnects the rest: the
    pruned giant component is still connected and needs no second
    selection.
    """
    config = config or PreprocessConfig()
    n = graph.n_nodes
    src, dst = graph.edge_index_arrays()
    keep = np.ones(n, dtype=bool)
    if config.keep_component == "giant":
        keep[:] = False
        keep[largest_component(n, src, dst)[0]] = True
    if config.prune_pendants:
        live = keep[src] & keep[dst]
        degree = (np.bincount(src[live], minlength=n)
                  + np.bincount(dst[live], minlength=n))
        stack = np.flatnonzero(keep & (degree <= 1)).tolist()
        degree = degree.tolist()
        # peel one pendant at a time, so the work is bounded by the pruned
        # nodes and their edges however long a pendant chain is
        while stack:
            u = stack.pop()
            if not keep[u]:
                continue
            keep[u] = False
            for v in graph.adj[u]:  # at most one kept v, by a single edge
                if keep[v]:
                    degree[v] -= 1
                    if degree[v] <= 1:
                        stack.append(v)
    if keep.all():
        return graph
    return graph.subgraph(np.flatnonzero(keep).tolist())


# -- undirected projection -----------------------------------------------------


def project_undirected(graph: SignedDigraph) -> SignedGraph:
    """Collapse the digraph onto unordered pairs.

    Both directions present with equal sign -> one edge with that sign;
    opposite signs -> the pair cancels out entirely; a single direction is
    kept with its sign.
    """
    edges = []
    for (u, v), s in graph.sign.items():
        if u > v:
            continue
        back = graph.sign.get((v, u))
        if back is None or back == s:
            edges.append((graph.ids[u], graph.ids[v], s))
    for (u, v), s in graph.sign.items():
        if u < v or (v, u) in graph.sign:
            continue
        edges.append((graph.ids[v], graph.ids[u], s))
    return SignedGraph(edges, nodes=graph.ids)


def cancelled_pairs(graph: SignedDigraph) -> list[tuple[str, str]]:
    """Unordered pairs removed by the projection's sign-mismatch rule."""
    pairs = []
    for (u, v), s in graph.sign.items():
        if u < v and graph.sign.get((v, u)) == -s:
            pairs.append((graph.ids[u], graph.ids[v]))
    return sorted(pairs)


# -- canonical dump --------------------------------------------------------------


def dump_tsv(graph: SignedDigraph, target) -> None:
    """Write the canonical dump: 'source TAB target TAB sign' per edge."""
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w", encoding="utf-8", newline="\n") if own else target
    try:
        for u, v, s in graph.edge_items():
            fh.write(f"{u}\t{v}\t{s:+d}\n")
    finally:
        if own:
            fh.close()


def load_tsv(source, config: PreprocessConfig | None = None) -> SignedDigraph:
    """Rebuild a digraph from its canonical dump."""
    return build_graph(load_edge_records(source, "tsv-sign"), config)
