"""Triad census for signed digraphs.

One pass over the triangles (triads whose three dyads are all connected)
feeds every figure.  It is the degree-ordered forward algorithm (Chiba &
Nishizeki 1985; Latapy 2008) in numpy, in one process.  One sort of the
edges in rank space gives each connected dyad, pointed toward the node of
higher (edge degree, index) rank, its 4-bit code in that orientation.  The
wedges of each node's out-edges are listed in fixed-size chunks.  A 64-bit
signature per row, one bit per out-neighbour rank modulo 64, drops most
wedges that cannot close, and a bisection inside the closing row checks the
rest.  A triangle's 12-bit index, its 6-bit dyad code plus the signs of the
edges present, comes from the codes of its three dyads, and one table folds
the index counts into the tallies.
The six open classes have exactly one centre node, so they follow from
per-node dyad counts minus the centre wedges inside the triangles (Moody
1998; Batagelj & Mrvar 2001), and the three disconnected classes (003, 012,
102) from complement counting.

Classification uses the 16 Mutual/Asymmetric/Null isomorphism classes.  The
four transitive classes (030T, 120D, 120U, 300) carry 1, 2, 2 and 6 ordered
transitive triples respectively; triples attach the edge signs needed by the
balance layer.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NonTransitiveTriadError
from .graphs import (_CANCELLING, SignedDigraph, _index_dtype, dyad_table,
                     find_keys, skeleton_csr)

TRIAD_TYPES = ("003", "012", "102", "021D", "021U", "021C", "111D", "111U",
               "030T", "030C", "201", "120D", "120U", "120C", "210", "300")
TRANSITIVE_TYPES = ("030T", "120D", "120U", "300")
TRIPLES_PER_TYPE = {"030T": 1, "120D": 2, "120U": 2, "300": 6}

_COMPOSITIONS = ("+++", "++-", "+--", "---")  # indexed by number of -1 signs
CLASSIFICATIONS = ("completely_balanced", "partially_balanced",
                   "completely_imbalanced")


class Triple(NamedTuple):
    """Ordered transitive triple: edges source->mid, mid->sink, source->sink."""

    source: str
    mid: str
    sink: str
    signs: tuple[int, int, int]


class Triad(NamedTuple):
    nodes: tuple[str, str, str]
    type: str
    triples: tuple[Triple, ...]


# -- classification over the 6-bit dyad code ------------------------------------
# bit layout for nodes (x, y, z):
#   0: x->y   1: y->x   2: x->z   3: z->x   4: y->z   5: z->y

_BIT = {(0, 1): 0, (1, 0): 1, (0, 2): 2, (2, 0): 3, (1, 2): 4, (2, 1): 5}


def _man_class(code: int) -> str:
    """Rule-based classification of a 6-bit dyad code into a MAN label."""
    edges = {pair for pair, b in _BIT.items() if code >> b & 1}
    asym = {(s, t) for s, t in edges if (t, s) not in edges}
    m = (len(edges) - len(asym)) // 2
    label = f"{m}{len(asym)}{3 - m - len(asym)}"
    sends = [sum(s == x for s, _ in asym) for x in range(3)]
    takes = [sum(t == x for _, t in asym) for x in range(3)]
    if label in ("021", "120"):
        # the two asymmetric dyads share one node: D = both leave it,
        # U = both enter it, C = a chain through it
        return label + ("D" if 2 in sends else "U" if 2 in takes else "C")
    if label == "030":
        return label + ("T" if 2 in sends else "C")
    if label == "111":
        # D = the asymmetric edge points into the mutual dyad
        (source, _), = asym
        return label + ("U" if source in {s for s, _ in edges - asym} else "D")
    return label


def _transitive_perms(code: int) -> tuple[tuple[int, int, int], ...]:
    """Orderings (s, m, k) whose edges s->m, m->k, s->k are all present."""
    found = []
    for s, m, k in permutations((0, 1, 2)):
        if (code >> _BIT[(s, m)]) & 1 and (code >> _BIT[(m, k)]) & 1 \
                and (code >> _BIT[(s, k)]) & 1:
            found.append((s, m, k))
    return tuple(found)


_CODE_CLASS = tuple(_man_class(code) for code in range(64))
_CODE_TRIPLES = tuple(
    _transitive_perms(code) if _CODE_CLASS[code] in TRANSITIVE_TYPES else ()
    for code in range(64))
_TRANSITIVE_SET = frozenset(TRANSITIVE_TYPES)

#: closed class -> classes of its three centre wedges: clearing the dyad
#: opposite one node leaves the open triad centred on that node
_OPPOSITE_DYAD = (0b110000, 0b001100, 0b000011)
_CENTRE_WEDGES = {
    _CODE_CLASS[code]: tuple(_CODE_CLASS[code & ~mask] for mask in _OPPOSITE_DYAD)
    for code in range(64) if all(code & mask for mask in _OPPOSITE_DYAD)}


#: dyad code with its two nodes exchanged (see `graphs.dyad_table`)
_SWAP = np.array([(code & 0b0101) << 1 | (code & 0b1010) >> 1
                  for code in range(16)], dtype=np.uint8)


def _fold_index(xy, xz, yz):
    """The 12-bit index of triads (x, y, z), from the dyad codes of (x, y),
    (x, z) and (y, z) seen from the first node: the 6-bit dyad code, plus
    bit 6 + b set when the edge of code bit b is present and negative."""
    # widened, as uint8 codes would lose the high bits
    xy, xz, yz = (np.asarray(c, dtype=np.int64) for c in (xy, xz, yz))
    return ((xy & 3) | (xz & 3) << 2 | (yz & 3) << 4
            | (xy >> 2) << 6 | (xz >> 2) << 8 | (yz >> 2) << 10)


def _one_index(graph: SignedDigraph, nodes: tuple[int, int, int]) -> int:
    """The 12-bit index of one triad of node indices, from six single-edge
    lookups rather than a dyad table, which sorts every edge."""
    index = 0
    for (s, t), bit in _BIT.items():
        at = graph.position(nodes[s], nodes[t])
        if at >= 0:
            index |= 1 << bit | int(graph.sgn[at] < 0) << (bit + 6)
    return index


def _triples(ids: tuple[str, ...], nodes: tuple[int, int, int],
             index: int) -> tuple[Triple, ...]:
    """The transitive triples of the triad on `nodes` with this index."""
    def sign(pair):
        return -1 if index >> (6 + _BIT[pair]) & 1 else 1
    return tuple(Triple(ids[nodes[s]], ids[nodes[m]], ids[nodes[t]],
                        (sign((s, m)), sign((m, t)), sign((s, t))))
                 for s, m, t in _CODE_TRIPLES[index & 63])


def classify_man(graph: SignedDigraph, a: str, b: str, c: str) -> str:
    """MAN class of the triad {a, b, c}; ignores edge signs."""
    if len({a, b, c}) != 3:
        raise ValueError("triad nodes must be distinct")
    try:
        idx = (graph.index[a], graph.index[b], graph.index[c])
    except KeyError as exc:
        raise KeyError(f"unknown node id {exc.args[0]!r}") from None
    return _CODE_CLASS[_one_index(graph, idx) & 63]


def enumerate_triads(graph: SignedDigraph) -> Iterator[Triad]:
    """Yield every triad with at least two connected dyads exactly once.

    Triads are emitted in lexicographic order of their sorted node indices.
    Two connected dyads of a triad share a node, a skeleton neighbour of
    the other two, so the triads are the pairs of each skeleton row taken
    with the row's node; the triple scan over all C(n, 3) combinations is
    never performed.
    """
    bounds, cols = (array.tolist() for array in skeleton_csr(
        graph.n_nodes, graph.src, graph.dst))
    # rows are sorted, so v < w and u goes in its place among them.  Each
    # row then lists its triads in ascending order; a dict keeps them in
    # that order, once each, and the sort merges the rows' runs
    found = sorted(dict.fromkeys(
        (u, v, w) if u < v else (v, u, w) if u < w else (v, w, u)
        for u, (a, b) in enumerate(zip(bounds, bounds[1:]))
        for v, w in combinations(cols[a:b], 2)))
    n = graph.n_nodes
    pairs, codes = dyad_table(graph)
    codes = np.append(codes, 0)  # position -1: no dyad
    x, y, z = np.array(found, dtype=np.int64).reshape(-1, 3).T
    # x < y < z, so each pair's code is seen from its first node
    index = _fold_index(*(codes[find_keys(pairs, a * n + b)]
                          for a, b in ((x, y), (x, z), (y, z))))
    ids = graph.ids
    for triad, index in zip(found, index.tolist()):
        cls = _CODE_CLASS[index & 63]
        yield Triad(tuple(ids[i] for i in triad), cls,
                    _triples(ids, triad, index))


def transitive_triples(graph: SignedDigraph, triad: Triad) -> list[Triple]:
    """All ordered transitive triples of a transitive-type triad."""
    if triad.type not in _TRANSITIVE_SET:
        raise NonTransitiveTriadError(
            f"triad {triad.nodes} has type {triad.type}; transitive triples "
            f"are defined only for {TRANSITIVE_TYPES}")
    idx = tuple(sorted(graph.index[x] for x in triad.nodes))
    return list(_triples(graph.ids, idx, _one_index(graph, idx)))


# -- triangle pass ----------------------------------------------------------------

#: wedges listed per step of the triangle pass.  A listed wedge holds about
#: 30 bytes of temporaries, so a step holds about 2 MB, as much as the 25
#: bytes the pass keeps per dyad come to at 80k dyads; above that the dyads
#: set the pass's peak.  The wedges of one edge may overshoot a step; under
#: the edge-degree order they are fewer than the square root of twice the
#: edge count.
_WEDGE_CHUNK = 1 << 16


def _fold_entry(code: int, negative: int) -> tuple:
    """Per triangle of this dyad code and negative-edge bits: its class,
    balanced transitive triples, triples per composition bin, and negative
    sides in the projection (None when a sign-mismatched pair cancels)."""
    comp = [0, 0, 0, 0]
    balanced = 0
    for s, m, t in _CODE_TRIPLES[code]:
        neg = sum(negative >> _BIT[p] & 1 for p in ((s, m), (m, t), (s, t)))
        comp[neg] += 1
        balanced += not neg & 1
    projected = 0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        signs = {negative >> bit & 1 for bit in (_BIT[(a, b)], _BIT[(b, a)])
                 if code >> bit & 1}
        if len(signs) > 1:
            projected = None
            break
        projected += signs.pop()
    return _CODE_CLASS[code], balanced, comp, projected


#: 12-bit triangle index -> `_fold_entry`, for every index a triangle can
#: have: a closed dyad code, with negative bits only where edges are
_FOLD = {code | negative << 6: _fold_entry(code, negative)
         for code in range(64) if all(code & mask for mask in _OPPOSITE_DYAD)
         for negative in range(64) if not negative & ~code}
#: indices of projected triangles without a transitive triple
_UNDIRECTED_ONLY = np.zeros(1 << 12, dtype=bool)
_UNDIRECTED_ONLY[[index for index, (cls, _, _, projected) in _FOLD.items()
                  if projected is not None and cls not in _TRANSITIVE_SET]] = True



@dataclass
class TriadTallies:
    """All-integer aggregate of one pass over the dyads and triangles.

    Every figure is a view of it: each figure function reads the graph's
    one pass through `tallies_of`.
    `census` counts triangles per closed class, `open_wedges` the centre
    wedges per open class, triangles included, and `mutual` the mutual
    dyads (see `census`).
    `undirected` counts the projection's triangles, which have no reciprocal
    pair of opposite signs (`cancelled`), by sign multiset; `undirected_only`
    lists those without a transitive triple as sorted node-id triples.
    `node_triangles` holds the triangle count of each node index.
    """

    census: dict
    type_balanced: dict
    classification: dict
    composition: dict
    undirected: dict
    undirected_only: list
    open_wedges: dict
    mutual: int
    cancelled: list
    node_triangles: tuple


def resolve_workers(requested: int | None = None) -> int:
    """Worker budget: the explicit request or the CPU count, capped by the
    CPUs this process may run on.  Nothing in the analysis reads it; it is
    kept, with `cli.RunConfig.workers`, because the benchmark under `bench/`
    calls it and records it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus) if requested and requested > 0 else cpus)


def _oriented_dyads(graph: SignedDigraph) -> tuple[np.ndarray, ...]:
    """The connected dyads in rank space: `node` (rank -> node index), and
    the sorted dyads as `tail` -> `head` of higher rank with their uint8
    `code`s seen from the tail.  Nodes are ranked by (edge degree, index),
    so no tail has more heads than the square root of twice the edge count.
    Ranks, tails and heads are 32-bit when the node and edge counts fit."""
    n = graph.n_nodes
    degree = np.bincount(graph.src, minlength=n) + np.bincount(graph.dst,
                                                               minlength=n)
    node = np.argsort(degree, kind="stable")
    index = _index_dtype(max(n, graph.n_edges))
    rank = np.empty(n, dtype=index)
    rank[node] = np.arange(n, dtype=index)
    pairs, code = dyad_table(graph, rank)
    tail, head = np.empty(len(pairs), index), np.empty(len(pairs), index)
    np.divmod(pairs, n, out=(tail, head))
    return node, tail, head, code


def scan_triads(graph: SignedDigraph) -> TriadTallies:
    """One pass over the dyads and the triangles, in this process.

    The tallies are all integer and the lists are sorted, so results do not
    depend on the chunking or on the rank order.
    """
    n = graph.n_nodes
    # a triangle is found once, at its lowest-ranked node x, as the wedge of
    # two out-edges x -> y, x -> z closed by the edge y -> z
    node, tail, head, code = _oriented_dyads(graph)
    length = np.bincount(tail, minlength=n).astype(tail.dtype)
    row_end = np.cumsum(length, dtype=tail.dtype)
    row_start = row_end - length
    # row y's signature has bit z & 63 set for each of its heads z, so a
    # wedge whose closing head's bit is clear there cannot close
    bit = np.left_shift(np.uint64(1), (head & 63).astype(np.uint64))
    signature = np.zeros(n, dtype=np.uint64)
    rows = np.flatnonzero(length)
    signature[rows] = np.bitwise_or.reduceat(bit, row_start[rows])
    steps = int(np.max(length, initial=0)).bit_length()
    # edge e opens one wedge with each later edge of its row: its k-th wedge
    # pairs it with edge e + 1 + k, and opened[e] counts the wedges up to e's
    opened = np.cumsum(row_end[tail] - np.arange(1, len(tail) + 1))
    counts = np.zeros(1 << 12, dtype=np.int64)
    node_triangles = np.zeros(n, dtype=np.int64)
    undirected_only = [np.zeros((0, 3), dtype=np.int64)]
    first = 0
    while first < len(tail):
        done = opened[first - 1] if first else 0
        stop = max(int(np.searchsorted(opened, done + _WEDGE_CHUNK, "right")),
                   first + 1)
        edges = np.arange(first, stop, dtype=tail.dtype)
        count = row_end[tail[first:stop]] - 1 - edges
        # wedges are numbered from the chunk's first, which keeps them in 32
        # bits: edge e's are numbered from opened[e] - done - count[e] on
        begin = (opened[first:stop] - done).astype(tail.dtype) - count
        partner = (np.arange(opened[stop - 1] - done, dtype=tail.dtype)
                   + np.repeat(edges + 1 - begin, count))
        maybe = np.flatnonzero(np.repeat(signature[head[first:stop]], count)
                               & bit.take(partner))
        edge = np.repeat(edges, count)[maybe]
        partner = partner[maybe]
        y, z = head[edge], head[partner]
        # bisect for z among row y's heads; a probe past an empty range at
        # the row's end may step beyond it, so only a position inside closes
        low, high = row_start[y], row_end[y]
        for _ in range(steps):
            mid = low + ((high - low) >> 1)
            less = head.take(mid, mode="clip") < z
            low = np.where(less, mid + 1, low)
            high = np.where(less, high, mid)
        closed = (low < row_end[y]) & (head.take(low, mode="clip") == z)
        edge, partner, closing = edge[closed], partner[closed], low[closed]
        index = _fold_index(code[edge], code[partner], code[closing])
        x, y, z = node[tail[edge]], node[head[edge]], node[head[partner]]
        counts += np.bincount(index, minlength=1 << 12)
        node_triangles += np.bincount(np.concatenate([x, y, z]), minlength=n)
        only = _UNDIRECTED_ONLY[index]
        undirected_only.append(np.sort(np.stack([x[only], y[only], z[only]],
                                                axis=1), axis=1))
        first = stop
    census: dict[str, int] = {}
    type_balanced: dict[str, int] = {}
    comp, und, cls_counts = [0] * 4, [0] * 4, [0] * 3
    for index in np.flatnonzero(counts).tolist():
        k = int(counts[index])
        cls, balanced, triple_bins, projected = _FOLD[index]
        census[cls] = census.get(cls, 0) + k
        if projected is not None:
            und[projected] += k
        if cls not in _TRANSITIVE_SET:
            continue
        type_balanced[cls] = type_balanced.get(cls, 0) + balanced * k
        for neg, triples in enumerate(triple_bins):
            comp[neg] += triples * k
        total = TRIPLES_PER_TYPE[cls]
        cls_counts[0 if balanced == total else 1 if balanced else 2] += k
    triads = np.concatenate(undirected_only)
    # index order is id order, so this is the order of the id triples
    triads = triads[np.lexsort(triads.T[::-1])].tolist()
    del bit, opened  # the dyad kinds below need the room
    # per rank, its out-only (column 1), in-only (2) and mutual (3) dyads
    ends = np.concatenate([tail, head]).astype(np.int64)
    ends *= 4
    ends += np.concatenate([code, _SWAP[code]]) & 3
    _, o, i, m = np.bincount(ends, minlength=4 * n).reshape(n, 4).T
    # the cancelling codes are their own swaps, so either end may come first
    cancel = np.isin(code, _CANCELLING)
    ends = np.sort(node[np.stack([tail[cancel], head[cancel]])], axis=0)
    cancelled = ends[:, np.argsort(ends[0] * n + ends[1])].tolist()
    # int64 sums cannot wrap: each is at most (edges) * (nodes)
    open_wedges = {
        "021D": o * (o - 1) // 2, "021U": i * (i - 1) // 2, "021C": o * i,
        "111U": m * o, "111D": m * i, "201": m * (m - 1) // 2}
    ids = graph.ids
    return TriadTallies(
        census=census,
        type_balanced=type_balanced,
        classification=dict(zip(CLASSIFICATIONS, cls_counts)),
        composition=dict(zip(_COMPOSITIONS, comp)),
        undirected=dict(zip(_COMPOSITIONS, und)),
        undirected_only=[(ids[u], ids[v], ids[w]) for u, v, w in triads],
        open_wedges={cls: int(w.sum()) for cls, w in open_wedges.items()},
        mutual=int(m.sum()) // 2,
        cancelled=[(ids[u], ids[v]) for u, v in zip(*cancelled)],
        node_triangles=tuple(node_triangles.tolist()),
    )


def tallies_of(graph: SignedDigraph) -> TriadTallies:
    """The graph's one `scan_triads` pass, made on first use and kept with
    the graph, which never changes.  Two threads may both make it; their
    passes are equal, and either is kept."""
    if graph._tallies is None:
        graph._tallies = scan_triads(graph)
    return graph._tallies


# -- census table -----------------------------------------------------------------


@dataclass
class CensusTable:
    """Counts for the 16 MAN classes.

    With `include_disconnected` the three null-heavy classes are present and
    the total equals C(n, 3); without them the total is the connected-triad
    count.
    """

    counts: dict
    n_nodes: int
    include_disconnected: bool = True

    def total(self) -> int:
        return sum(self.counts.values())

    def connected_only(self) -> "CensusTable":
        trimmed = dict(self.counts)
        for cls in ("003", "012", "102"):
            trimmed[cls] = 0
        return CensusTable(trimmed, self.n_nodes, include_disconnected=False)


def census(graph: SignedDigraph, *, workers: int = 1) -> CensusTable:
    """Full 16-class census from the graph's one triangle pass
    (`tallies_of`).

    Closed classes are the pass's triangle counts.  An open class is the
    pass's count, around every node, of the pairs of out-only, in-only or
    mutual neighbours of its kind, minus the centre wedges inside the
    triangles.
    012 and 102 follow from the fact that every dyad sits in n-2 triads,
    minus its appearances in connected triads (each class has a fixed dyad
    make-up); 003 is the complement up to C(n, 3).

    `workers` is not read: the pass runs in one process.  It stays because
    the criterion-7 acceptance tests call `census(graph, workers=...)`.
    """
    tallies = tallies_of(graph)
    counts = dict.fromkeys(TRIAD_TYPES, 0) | tallies.census | tallies.open_wedges
    for closed, wedges in _CENTRE_WEDGES.items():
        for wedge in wedges:
            counts[wedge] -= counts[closed]
    n = graph.n_nodes
    # a MAN label starts with its numbers of mutual and asymmetric dyads
    used_m = sum(counts[cls] * int(cls[0]) for cls in TRIAD_TYPES)
    used_a = sum(counts[cls] * int(cls[1]) for cls in TRIAD_TYPES)
    counts["102"] = tallies.mutual * (n - 2) - used_m
    counts["012"] = (graph.n_edges - 2 * tallies.mutual) * (n - 2) - used_a
    counts["003"] = comb(n, 3) - sum(counts.values())
    return CensusTable(counts, n_nodes=n)
