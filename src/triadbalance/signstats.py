"""Sign-composition tables and descriptive network measures.

Composition is keyed by the sign multiset of a triple or triangle
(+++, +--, ++-, ---); the positions of the signs inside the triple are
deliberately discarded.  Descriptive measures follow the usual convention
for directed data: density counts ordered pairs on the digraph, while
transitivity, clustering and path length are computed on the unsigned
undirected skeleton (any directed edge induces a skeleton edge).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .census import TriadTallies, scan_triads
from .errors import UndefinedResultError
from .graphs import SignedDigraph, largest_component

#: export order for composition columns
COMPOSITION_KEYS = ("+++", "+--", "++-", "---")

#: which graph realization each descriptive measure is computed on
METRIC_BASIS = {
    "density": "digraph-ordered-pairs",
    "transitivity": "undirected-skeleton",
    "clustering_coefficient": "undirected-skeleton",
    "avg_path_length": "undirected-skeleton",
}


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


def metrics(graph: SignedDigraph) -> GraphMetrics:
    """Descriptive measures, computed on the giant weakly-connected component.

    The component count refers to the graph as passed in; everything else is
    evaluated after giant-component selection (without pendant pruning).
    """
    src, dst = graph.edge_index_arrays()
    giant, component_count = largest_component(graph.n_nodes, src, dst)
    n = len(giant)
    if n < 2:
        raise UndefinedResultError(
            "average path length undefined for a singleton component")
    if n < graph.n_nodes:
        src, dst = graph.subgraph(giant).edge_index_arrays()
    density = len(src) / (n * (n - 1))

    # int64, since common-neighbour counts of narrower entries would wrap;
    # the two entries of a mutual dyad are summed, then reset to 1
    mat = csr_matrix((np.ones(2 * len(src), dtype=np.int64),
                      (np.concatenate([src, dst]), np.concatenate([dst, src]))),
                     shape=(n, n))
    mat.data[:] = 1
    degrees = np.diff(mat.indptr).astype(np.int64)
    # (A @ A)[i, j] counts the common neighbours of i and j; summed over the
    # neighbours j of i, it counts each triangle at i twice
    tri_per_node = np.asarray(
        (mat @ mat).multiply(mat).sum(axis=1)).ravel() // 2
    wedges = int((degrees * (degrees - 1) // 2).sum())
    # the per-node counts see each triangle three times
    transitivity = int(tri_per_node.sum()) / wedges if wedges else 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(degrees > 1,
                         2.0 * tri_per_node / (degrees * (degrees - 1.0)), 0.0)
    clustering = float(local.mean())

    dist = shortest_path(mat, method="D", directed=False, unweighted=True)
    # the giant is connected, so every ordered pair off the diagonal is
    # reachable; the distances are integers, so the sum is exact
    apl = float(dist.sum() / (n * (n - 1)))
    return GraphMetrics(
        node_count=n,
        edge_count=len(src),
        component_count=component_count,
        transitivity=float(transitivity),
        density=float(density),
        avg_path_length=apl,
        clustering_coefficient=clustering,
    )
