"""Sign-composition tables and descriptive network measures.

Composition is keyed by the sign multiset of a triple or triangle
(+++, +--, ++-, ---); the positions of the signs inside the triple are
deliberately discarded.  Descriptive measures follow the usual convention
for directed data: density counts ordered pairs on the digraph, while
transitivity, clustering and path length are computed on the unsigned
undirected skeleton (any directed edge induces a skeleton edge).  The
skeleton's triangles come from the census module's triangle listing, and
the average path length is exact, from a bit-parallel multi-source BFS over
the skeleton (Then et al., VLDB 2014), in O(m) memory per sweep of 512
sources rather than an O(n^2) distance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import TriadTallies, _triangle_chunks, scan_triads
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
_SWEEP_WORDS = 8


@dataclass(frozen=True)
class CompositionTable:
    proportions: dict
    counts: dict
    basis: str  # directed-triples | undirected-triangles
    total: int

    def to_csv_row(self, network: str) -> list:
        return ([network, self.basis]
                + [f"{self.proportions[k]:.2f}" for k in COMPOSITION_KEYS]
                + [self.total])

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "total": self.total,
            "counts": {k: self.counts[k] for k in COMPOSITION_KEYS},
            "proportions": {k: self.proportions[k] for k in COMPOSITION_KEYS},
        }


def _table(counts: dict, basis: str) -> CompositionTable:
    total = sum(counts.values())
    proportions = {k: (counts.get(k, 0) / total if total else 0.0)
                   for k in COMPOSITION_KEYS}
    return CompositionTable(proportions=proportions,
                            counts={k: counts.get(k, 0) for k in COMPOSITION_KEYS},
                            basis=basis, total=total)


def composition_from_tallies(tallies: TriadTallies) -> CompositionTable:
    return _table(dict(tallies.composition), "directed-triples")


def undirected_composition_from_tallies(tallies: TriadTallies) -> CompositionTable:
    return _table(dict(tallies.undirected), "undirected-triangles")


def composition_directed(graph: SignedDigraph, workers: int = 1) -> CompositionTable:
    """Sign multisets of every transitive triple across all transitive triads."""
    return composition_from_tallies(scan_triads(graph, workers=workers))


def composition_undirected(graph: SignedDigraph) -> CompositionTable:
    """Sign multisets of all closed triangles of the digraph's undirected
    projection."""
    return undirected_composition_from_tallies(scan_triads(graph))


@dataclass(frozen=True)
class GraphMetrics:
    node_count: int
    edge_count: int
    component_count: int
    transitivity: float
    density: float
    avg_path_length: float
    clustering_coefficient: float

    def to_json_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "component_count": self.component_count,
            "transitivity": self.transitivity,
            "density": self.density,
            "avg_path_length": self.avg_path_length,
            "clustering_coefficient": self.clustering_coefficient,
            "basis": dict(METRIC_BASIS),
        }

    def to_csv_rows(self) -> list[list]:
        return [
            ["measure", "value"],
            ["nodes", self.node_count],
            ["edges", self.edge_count],
            ["components", self.component_count],
            ["transitivity", f"{self.transitivity:.2f}"],
            ["density", f"{self.density:.2f}"],
            ["avg_path_length", f"{self.avg_path_length:.2f}"],
            ["clustering_coefficient", f"{self.clustering_coefficient:.2f}"],
        ]


def _distance_sum(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Sum of the BFS distances over all ordered pairs of a connected
    unweighted graph in CSR form, by bit-parallel multi-source BFS.

    Bit b of word w of a node's row stands for source 64 * w + b of the
    sweep.  One level ORs the frontier rows of each node's neighbours, so
    every source of the sweep advances one step; the sources newly reached
    are at that level's distance.
    """
    n = len(indptr) - 1
    # every row of a connected graph with n >= 2 has a neighbour, so no
    # reduceat segment is empty (an empty one would yield its start element)
    starts = indptr[:-1]
    per_sweep = 64 * _SWEEP_WORDS
    total = 0
    for first in range(0, n, per_sweep):
        sources = np.arange(min(per_sweep, n - first))
        frontier = np.zeros((n, _SWEEP_WORDS), dtype=np.uint64)
        frontier[first + sources, sources // 64] = (
            np.uint64(1) << (sources % 64).astype(np.uint64))
        unvisited = ~frontier
        level = 0
        while True:
            level += 1
            frontier = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier &= unvisited
            reached = int(np.bitwise_count(frontier).sum())
            if not reached:
                break
            total += level * reached
            unvisited ^= frontier
    return total


def metrics(graph: SignedDigraph) -> GraphMetrics:
    """Descriptive measures, computed on the giant weakly-connected component.

    The component count refers to the graph as passed in; everything else is
    evaluated after giant-component selection (without pendant pruning).
    """
    giant, component_count = largest_component(graph.n_nodes, graph.src,
                                               graph.dst)
    n = len(giant)
    if n < 2:
        raise UndefinedResultError(
            "average path length undefined for a singleton component")
    if n < graph.n_nodes:
        graph = graph.subgraph(giant)
    src, dst = graph.src, graph.dst
    density = len(src) / (n * (n - 1))

    indptr, indices = skeleton_csr(n, src, dst)
    degrees = np.diff(indptr)
    # each triangle counts once at each of its three nodes
    tri_per_node = np.zeros(n, dtype=np.int64)
    for triangle in _triangle_chunks(indptr, indices):
        tri_per_node += np.bincount(np.concatenate(triangle), minlength=n)
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
