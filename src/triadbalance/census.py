"""Triad census for signed digraphs.

One pass visits the triangles (triads whose three dyads are all connected),
taking each node u as the smallest index and intersecting the adjacency
sets of its higher neighbours; it feeds every census, balance, composition
and comparison figure.  The six open classes have exactly one centre node,
so they follow from per-node degree counts minus the centre wedges inside
the triangles (Moody 1998; Batagelj & Mrvar 2001), and the three
disconnected classes (003, 012, 102) from complement counting.

Classification uses the 16 Mutual/Asymmetric/Null isomorphism classes.  The
four transitive classes (030T, 120D, 120U, 300) carry 1, 2, 2 and 6 ordered
transitive triples respectively; triples attach the edge signs needed by the
balance layer.
"""
from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from itertools import permutations
from math import comb
from typing import Iterator, NamedTuple

from .errors import NonTransitiveTriadError
from .graphs import SignedDigraph

TRIAD_TYPES = ("003", "012", "102", "021D", "021U", "021C", "111D", "111U",
               "030T", "030C", "201", "120D", "120U", "120C", "210", "300")
TRANSITIVE_TYPES = ("030T", "120D", "120U", "300")
TRIPLES_PER_TYPE = {"030T": 1, "120D": 2, "120U": 2, "300": 6}

#: mutual / asymmetric dyad count per class, used for complement counting
_DYADS = {
    "003": (0, 0), "012": (0, 1), "102": (1, 0),
    "021D": (0, 2), "021U": (0, 2), "021C": (0, 2),
    "111D": (1, 1), "111U": (1, 1),
    "030T": (0, 3), "030C": (0, 3),
    "201": (2, 0), "120D": (1, 2), "120U": (1, 2), "120C": (1, 2),
    "210": (2, 1), "300": (3, 0),
}

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
    bits = [(code >> b) & 1 for b in range(6)]
    edges = [pair for pair, b in _BIT.items() if bits[b]]
    state = {}
    for x, y in ((0, 1), (0, 2), (1, 2)):
        state[(x, y)] = (bits[_BIT[(x, y)]], bits[_BIT[(y, x)]])
    m = sum(1 for f, r in state.values() if f and r)
    a = sum(1 for f, r in state.values() if f != r)
    simple = {(0, 0): "003", (0, 1): "012", (1, 0): "102",
              (2, 0): "201", (2, 1): "210", (3, 0): "300"}
    if (m, a) in simple:
        return simple[(m, a)]
    mutual_pair = next((p for p, (f, r) in state.items() if f and r), None)
    asym_edges = [(s, t) for s, t in edges
                  if mutual_pair is None or {s, t} != set(mutual_pair)]
    if (m, a) == (0, 2):
        # the two asymmetric dyads share one node z; D = both leave z,
        # U = both enter z, C = chain through z
        shared = [0, 0, 0]
        for s, t in asym_edges:
            shared[s] += 1
            shared[t] += 1
        z = shared.index(2)
        z_out = sum(1 for s, _ in asym_edges if s == z)
        return {2: "021D", 0: "021U", 1: "021C"}[z_out]
    if (m, a) == (1, 1):
        # D = the asymmetric edge points into the mutual dyad
        return "111D" if asym_edges[0][1] in mutual_pair else "111U"
    if (m, a) == (0, 3):
        outdeg = [0, 0, 0]
        for s, _ in edges:
            outdeg[s] += 1
        return "030T" if 2 in outdeg else "030C"
    # (m, a) == (1, 2): mutual dyad plus two asymmetric dyads at the third node
    z = ({0, 1, 2} - set(mutual_pair)).pop()
    z_out = sum(1 for s, _ in asym_edges if s == z)
    return {2: "120D", 0: "120U", 1: "120C"}[z_out]


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


def _dyad_code(out: list[set[int]], i: int, j: int, k: int) -> int:
    return ((j in out[i]) | ((i in out[j]) << 1) | ((k in out[i]) << 2)
            | ((i in out[k]) << 3) | ((k in out[j]) << 4) | ((j in out[k]) << 5))


def classify_man(graph: SignedDigraph, a: str, b: str, c: str) -> str:
    """MAN class of the triad {a, b, c}; ignores edge signs."""
    if len({a, b, c}) != 3:
        raise ValueError("triad nodes must be distinct")
    try:
        idx = (graph.index[a], graph.index[b], graph.index[c])
    except KeyError as exc:
        raise KeyError(f"unknown node id {exc.args[0]!r}") from None
    return _CODE_CLASS[_dyad_code(graph.out, *idx)]


def _build_triples(graph: SignedDigraph, i: int, j: int, k: int,
                   code: int) -> tuple[Triple, ...]:
    nodes = (i, j, k)
    sign = graph.sign
    ids = graph.ids
    triples = []
    for s, m, t in _CODE_TRIPLES[code]:
        si, mi, ti = nodes[s], nodes[m], nodes[t]
        triples.append(Triple(ids[si], ids[mi], ids[ti],
                              (sign[(si, mi)], sign[(mi, ti)], sign[(si, ti)])))
    return tuple(triples)


def enumerate_triads(graph: SignedDigraph) -> Iterator[Triad]:
    """Yield every triad with at least two connected dyads exactly once.

    Triads are emitted in lexicographic order of their sorted node indices.
    Candidates for the smallest node u are pairs of u's higher neighbours
    plus, for each higher neighbour v, the neighbours of v that u does not
    reach; the triple scan over all C(n, 3) combinations is never performed.
    """
    adj, out, ids = graph.adj, graph.out, graph.ids
    for u in range(graph.n_nodes):
        au = adj[u]
        higher = sorted(x for x in au if x > u)
        cands: set[tuple[int, int]] = set()
        for pos, v in enumerate(higher):
            for w in higher[pos + 1:]:
                cands.add((v, w))
            for w in adj[v]:
                if w > u and w not in au:
                    cands.add((v, w) if v < w else (w, v))
        for v, w in sorted(cands):
            code = _dyad_code(out, u, v, w)
            cls = _CODE_CLASS[code]
            triples = (_build_triples(graph, u, v, w, code)
                       if cls in _TRANSITIVE_SET else ())
            yield Triad((ids[u], ids[v], ids[w]), cls, triples)


def transitive_triples(graph: SignedDigraph, triad: Triad) -> list[Triple]:
    """All ordered transitive triples of a transitive-type triad."""
    if triad.type not in _TRANSITIVE_SET:
        raise NonTransitiveTriadError(
            f"triad {triad.nodes} has type {triad.type}; transitive triples "
            f"are defined only for {TRANSITIVE_TYPES}")
    idx = sorted(graph.index[x] for x in triad.nodes)
    code = _dyad_code(graph.out, *idx)
    return list(_build_triples(graph, *idx, code))


# -- aggregated scan -------------------------------------------------------------


@dataclass
class TriadTallies:
    """Mergeable, all-integer aggregate of one pass over the triangles.

    `census` counts triangles per closed class only (see
    `census_from_tallies`).  `undirected` counts the triangles of the
    undirected projection, which have no reciprocal pair of opposite signs,
    by sign multiset; `undirected_only` lists those without a transitive
    triple as sorted node-id triples.
    """

    census: dict = field(default_factory=dict)
    type_triads: dict = field(default_factory=dict)
    type_balanced: dict = field(default_factory=dict)
    classification: dict = field(default_factory=lambda: {c: 0 for c in CLASSIFICATIONS})
    composition: dict = field(default_factory=lambda: {c: 0 for c in _COMPOSITIONS})
    undirected: dict = field(default_factory=lambda: {c: 0 for c in _COMPOSITIONS})
    undirected_only: list = field(default_factory=list)

    def merge(self, other: "TriadTallies") -> "TriadTallies":
        for name in ("census", "type_triads", "type_balanced",
                     "classification", "composition", "undirected"):
            mine, theirs = getattr(self, name), getattr(other, name)
            for key, val in theirs.items():
                mine[key] = mine.get(key, 0) + val
        self.undirected_only.extend(other.undirected_only)
        return self


def _projected_negatives(sign: dict, u: int, v: int, w: int) -> int | None:
    """Negative sides of the triangle {u, v, w} in the undirected projection,
    or None when a reciprocal pair with opposite signs cancels a side."""
    neg = 0
    for a, b in ((u, v), (u, w), (v, w)):
        s = sign.get((a, b)) or sign[(b, a)]
        if sign.get((b, a), s) != s:
            return None
        neg += s < 0
    return neg


def _scan_range(graph: SignedDigraph, start: int, step: int) -> TriadTallies:
    census: dict[str, int] = {}
    type_triads: dict[str, int] = {}
    type_balanced: dict[str, int] = {}
    comp = [0, 0, 0, 0]          # indexed by number of negative signs
    und = [0, 0, 0, 0]           # likewise, over projected triangles
    cls_counts = [0, 0, 0]       # completely / partially / completely-imbalanced
    undirected_only = []
    adj, out, sign, ids = graph.adj, graph.out, graph.sign, graph.ids
    code_class, code_triples = _CODE_CLASS, _CODE_TRIPLES

    for u in range(start, graph.n_nodes, step):
        higher = {x for x in adj[u] if x > u}
        for v in higher:
            for w in adj[v] & higher:
                if w < v:
                    continue
                code = ((v in out[u]) | ((u in out[v]) << 1)
                        | ((w in out[u]) << 2) | ((u in out[w]) << 3)
                        | ((w in out[v]) << 4) | ((v in out[w]) << 5))
                cls = code_class[code]
                census[cls] = census.get(cls, 0) + 1
                perms = code_triples[code]
                projected = _projected_negatives(sign, u, v, w)
                if projected is not None:
                    und[projected] += 1
                    if not perms:
                        undirected_only.append((ids[u], ids[v], ids[w]))
                if not perms:
                    continue
                nodes = (u, v, w)
                balanced = 0
                for s, m, t in perms:
                    si, mi, ti = nodes[s], nodes[m], nodes[t]
                    neg = ((sign[(si, mi)] < 0) + (sign[(mi, ti)] < 0)
                           + (sign[(si, ti)] < 0))
                    if not neg & 1:
                        balanced += 1
                    comp[neg] += 1
                type_triads[cls] = type_triads.get(cls, 0) + 1
                type_balanced[cls] = type_balanced.get(cls, 0) + balanced
                if balanced == len(perms):
                    cls_counts[0] += 1
                elif balanced:
                    cls_counts[1] += 1
                else:
                    cls_counts[2] += 1
    return TriadTallies(
        census=census,
        type_triads=type_triads,
        type_balanced=type_balanced,
        classification=dict(zip(CLASSIFICATIONS, cls_counts)),
        composition=dict(zip(_COMPOSITIONS, comp)),
        undirected=dict(zip(_COMPOSITIONS, und)),
        undirected_only=undirected_only,
    )


_POOL_GRAPH: SignedDigraph | None = None


def _pool_init(graph: SignedDigraph) -> None:
    global _POOL_GRAPH
    _POOL_GRAPH = graph


def _pool_scan(args: tuple[int, int]) -> TriadTallies:
    start, step = args
    return _scan_range(_POOL_GRAPH, start, step)


def resolve_workers(requested: int | None = None) -> int:
    """Worker budget: the explicit request or the CPU count, capped by the
    CPUs this process may run on and by the BALANCE_THREADS environment
    variable."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    workers = min(requested, cpus) if requested and requested > 0 else cpus
    cap = os.environ.get("BALANCE_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            pass
    return max(1, workers)


def scan_triads(graph: SignedDigraph, workers: int = 1) -> TriadTallies:
    """One pass over the triangles, optionally partitioned over worker
    processes.

    Pivot nodes are distributed round-robin; partial tallies merge by
    summation and `undirected_only` is sorted, so results are identical for
    any worker count.
    """
    workers = resolve_workers(workers)
    chunks = [(k, workers) for k in range(workers)]
    if workers == 1 or graph.n_nodes < 4 * workers:
        parts = [_scan_range(graph, 0, 1)]
    else:
        # forked children inherit the initializer's graph; nothing is pickled
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else None)
        with ctx.Pool(workers, initializer=_pool_init,
                      initargs=(graph,)) as pool:
            parts = pool.map(_pool_scan, chunks)
    merged = TriadTallies()
    for part in parts:
        merged.merge(part)
    merged.undirected_only.sort()
    return merged


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

    def to_csv_rows(self) -> list[tuple[str, int]]:
        return [(cls, self.counts[cls]) for cls in TRIAD_TYPES]


def census_from_tallies(graph: SignedDigraph,
                        tallies: TriadTallies) -> CensusTable:
    """Full 16-class census from one triangle pass.

    Closed classes are the pass's triangle counts.  An open class counts,
    around every node, the pairs of out-only (o), in-only (i) or mutual (m)
    neighbours of its kind, minus the centre wedges inside the triangles.
    012 and 102 follow from the fact that every dyad sits in n-2 triads,
    minus its appearances in connected triads (each class has a fixed dyad
    make-up); 003 is the complement up to C(n, 3).
    """
    counts = {cls: 0 for cls in TRIAD_TYPES}
    counts.update(tallies.census)
    n = graph.n_nodes
    mutual = 0
    for u in range(n):
        m = len(graph.out[u] & graph.inn[u])
        o = len(graph.out[u]) - m
        i = len(graph.inn[u]) - m
        mutual += m
        counts["021D"] += comb(o, 2)
        counts["021U"] += comb(i, 2)
        counts["021C"] += o * i
        counts["111U"] += m * o
        counts["111D"] += m * i
        counts["201"] += comb(m, 2)
    for closed, wedges in _CENTRE_WEDGES.items():
        for wedge in wedges:
            counts[wedge] -= counts[closed]
    mutual //= 2
    asym = graph.n_edges - 2 * mutual
    used_m = sum(counts[cls] * _DYADS[cls][0] for cls in TRIAD_TYPES)
    used_a = sum(counts[cls] * _DYADS[cls][1] for cls in TRIAD_TYPES)
    counts["102"] = mutual * (n - 2) - used_m
    counts["012"] = asym * (n - 2) - used_a
    counts["003"] = comb(n, 3) - sum(counts.values())
    return CensusTable(counts, n_nodes=n)


def census(graph: SignedDigraph, workers: int = 1) -> CensusTable:
    """Full 16-class census; see `census_from_tallies`."""
    return census_from_tallies(graph, scan_triads(graph, workers=workers))
