"""Sign-composition tables and descriptive network measures.

Composition is keyed by the sign multiset of a triple or triangle
(+++, +--, ++-, ---); the positions of the signs inside the triple are
deliberately discarded.  Descriptive measures follow the usual convention
for directed data: density counts ordered pairs on the digraph, while
transitivity, clustering and path length are computed on the unsigned
undirected skeleton (any directed edge induces a skeleton edge).  The
triangles at each node come from the census module's triangle pass, and
the average path length is exact, from a bit-parallel multi-source BFS over
the skeleton (Then et al., VLDB 2014) with 1024 sources per sweep, in O(n)
memory rather than an O(n^2) distance matrix.  Each BFS level pulls the
frontier bits of every node's neighbours through a column plan: nodes are
relabelled by descending degree, the k-th neighbours of all nodes of degree
above k form one column (a prefix of the rows), and the neighbours of the
few highest-degree nodes past the last column of at least min(n, 64) rows
form a small CSR tail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import tallies_of
from .errors import UndefinedResultError
from .graphs import SignedDigraph, largest_component, skeleton_csr

#: export order for composition columns
COMPOSITION_KEYS = ("+++", "+--", "++-", "---")

#: which graph realization each descriptive measure is computed on
METRIC_BASIS = {
    "density": "digraph-ordered-pairs",
    "transitivity": "undirected-skeleton",
    "clustering_coefficient": "undirected-skeleton",
    "avg_path_length": "undirected-skeleton",
}

#: uint64 words of BFS sources per node in one path-length sweep, so one
#: sweep runs 64 * _SWEEP_WORDS breadth-first searches at once
_SWEEP_WORDS = 16

#: a neighbour column of the path-length pull covers at least this many
#: rows; the neighbours of the rows past the last such column form a tail
_MIN_COLUMN_ROWS = 64


@dataclass(frozen=True)
class CompositionTable:
    proportions: dict
    counts: dict
    basis: str  # directed-triples | undirected-triangles
    total: int


def _table(counts: dict, basis: str) -> CompositionTable:
    total = sum(counts.values())
    proportions = {k: (counts[k] / total if total else 0.0)
                   for k in COMPOSITION_KEYS}
    return CompositionTable(proportions=proportions,
                            counts={k: counts[k] for k in COMPOSITION_KEYS},
                            basis=basis, total=total)


def composition_directed(graph: SignedDigraph) -> CompositionTable:
    """Sign multisets of every transitive triple across all transitive triads."""
    return _table(tallies_of(graph).composition, "directed-triples")


def composition_undirected(graph: SignedDigraph) -> CompositionTable:
    """Sign multisets of all closed triangles of the digraph's undirected
    projection."""
    return _table(tallies_of(graph).undirected, "undirected-triangles")


@dataclass(frozen=True)
class GraphMetrics:
    node_count: int
    edge_count: int
    component_count: int
    transitivity: float
    density: float
    avg_path_length: float
    clustering_coefficient: float


def _pull_plan(indptr: np.ndarray, indices: np.ndarray
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The neighbours of a CSR graph without empty rows, relabelled by
    descending degree, as (columns, tail_indices, tail_starts).

    Column k lists the k-th neighbour of every row of degree above k; as the
    rows are sorted by degree, those rows are a prefix of length len(column).
    Only columns of at least min(n, _MIN_COLUMN_ROWS) rows are kept, so for
    n >= 1 the first column is kept and covers every row.  The remaining
    neighbours of the fewer than _MIN_COLUMN_ROWS rows of higher degree form
    one CSR tail: row r's are
    `tail_indices[tail_starts[r]:tail_starts[r + 1]]`, the last segment
    running to the end.
    """
    n = len(indptr) - 1
    degrees = np.diff(indptr)
    order = np.argsort(-degrees, kind="stable")
    label = np.empty(n, dtype=np.int64)
    label[order] = np.arange(n)
    degree = degrees[order]
    starts = indptr[:-1][order]
    n_columns = int(degree[min(n, _MIN_COLUMN_ROWS) - 1])
    # rows[k] counts the rows of degree above k; negated, degrees ascend
    rows = np.searchsorted(-degree, -np.arange(n_columns + 1))
    columns = [label[indices[starts[:rows[k]] + k]] for k in range(n_columns)]
    extra = degree[:rows[-1]] - n_columns
    tail_starts = np.zeros(len(extra), dtype=np.int64)
    np.cumsum(extra[:-1], out=tail_starts[1:])
    tail = np.repeat(starts[:len(extra)] + n_columns - tail_starts, extra)
    tail += np.arange(len(tail))
    return columns, label[indices[tail]], tail_starts


def _distance_sum(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of the BFS distances over all ordered pairs of a connected
    unweighted graph in CSR form, by bit-parallel multi-source BFS; raises
    ValueError when a search stops before it reaches every node.

    Bit b of word w of a node's row stands for source 64 * w + b of the
    sweep, so one sweep runs 1024 searches.  One level ORs the frontier rows
    of each node's neighbours, so every source of the sweep advances one
    step; the sources newly reached are at that level's distance.  The OR is
    pulled through `_pull_plan`: one gather and one in-place OR per column
    into its row prefix, then one `reduceat` over the tail, until the last
    pair is reached.  The distance sum does not depend on the labelling, so
    the sweeps run on the plan's labels.
    """
    n = len(indptr) - 1
    # every row of a connected graph with n >= 2 has a neighbour, so the
    # first column covers all rows, and no tail segment is empty (an empty
    # reduceat segment would yield its start element)
    columns, tail, tail_starts = _pull_plan(indptr, indices)
    per_sweep = 64 * _SWEEP_WORDS
    # four row buffers for every sweep, reset in place
    pulled = np.empty((n, _SWEEP_WORDS), dtype=np.uint64)
    gathered, frontier, unvisited = (np.empty_like(pulled) for _ in range(3))
    total = 0
    for first in range(0, n, per_sweep):
        sources = np.arange(min(per_sweep, n - first))
        frontier.fill(0)
        frontier[first + sources, sources // 64] = (
            np.uint64(1) << (sources % 64).astype(np.uint64))
        np.invert(frontier, out=unvisited)
        # ordered pairs (source, node) of this sweep not reached yet
        remaining = len(sources) * (n - 1)
        level = 0
        while remaining:
            level += 1
            # the plan's labels are all in range, so mode="clip" clips
            # nothing and spares the buffered copy of the default mode
            np.take(frontier, columns[0], axis=0, out=pulled, mode="clip")
            for column in columns[1:]:
                part = gathered[:len(column)]
                np.take(frontier, column, axis=0, out=part, mode="clip")
                np.bitwise_or(pulled[:len(column)], part,
                              out=pulled[:len(column)])
            if len(tail_starts):
                pulled[:len(tail_starts)] |= np.bitwise_or.reduceat(
                    frontier[tail], tail_starts, axis=0)
            frontier, pulled = pulled, frontier
            frontier &= unvisited
            reached = int(np.bitwise_count(frontier).sum())
            if not reached:
                raise ValueError("the graph is not connected")
            total += level * reached
            remaining -= reached
            unvisited ^= frontier
    return total


def metrics(graph: SignedDigraph) -> GraphMetrics:
    """Descriptive measures, computed on the giant weakly-connected component.

    The component count refers to the graph as passed in; everything else is
    evaluated after giant-component selection (without pendant pruning).
    Triangles come from the graph's one triangle pass (`tallies_of`).
    """
    giant, component_count = largest_component(graph.n_nodes, graph.src,
                                               graph.dst)
    n = len(giant)
    if n < 2:
        raise UndefinedResultError("average path length undefined: the giant "
                                   "component has fewer than two nodes")
    # a triangle never spans two components
    tri_per_node = np.array(tallies_of(graph).node_triangles,
                            dtype=np.int64)[giant]
    if n < graph.n_nodes:
        graph = graph.subgraph(giant)
    src, dst = graph.src, graph.dst
    density = len(src) / (n * (n - 1))

    indptr, indices = skeleton_csr(n, src, dst)
    degrees = np.diff(indptr)
    wedges = int((degrees * (degrees - 1) // 2).sum())
    # the per-node counts see each triangle three times
    transitivity = int(tri_per_node.sum()) / wedges if wedges else 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(degrees > 1,
                         2.0 * tri_per_node / (degrees * (degrees - 1.0)), 0.0)
    clustering = float(local.mean())

    # the giant is connected, so every ordered pair off the diagonal is
    # reachable; the exact integer sum is divided once, correctly rounded
    apl = _distance_sum(indptr, indices) / (n * (n - 1))
    return GraphMetrics(
        node_count=n,
        edge_count=len(src),
        component_count=component_count,
        transitivity=float(transitivity),
        density=float(density),
        avg_path_length=apl,
        clustering_coefficient=clustering,
    )
