from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadbalance import (TRIPLES_PER_TYPE, SignedDigraph,
                          composition_directed, composition_undirected,
                          metrics, scan_triads)
from triadbalance.errors import UndefinedResultError
from triadbalance.graphs import PreprocessConfig, preprocess, skeleton_csr
from triadbalance.oracle import brute_force, random_signed_digraph
from triadbalance.signstats import _distance_sum


def test_composition_all_positive():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    table = composition_directed(g)
    assert table.proportions == {"+++": 1.0, "+--": 0.0, "++-": 0.0, "---": 0.0}
    assert table.total == 1


def test_composition_single_030T_one_pos_two_neg():
    g = SignedDigraph([("a", "b", 1), ("b", "c", -1), ("a", "c", -1)])
    table = composition_directed(g)
    assert table.proportions["+--"] == 1.0


def test_composition_zero_triples():
    g = SignedDigraph([("a", "b", 1)])
    table = composition_directed(g)
    assert table.total == 0
    assert all(v == 0.0 for v in table.proportions.values())


def test_composition_undirected_single_triangle():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", -1)])
    table = composition_undirected(g)
    assert table.proportions["++-"] == 1.0
    assert table.basis == "undirected-triangles"


def test_composition_undirected_two_triangles():
    g = SignedDigraph([
        ("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
        ("x", "y", -1), ("y", "z", -1), ("x", "z", -1),
    ])
    table = composition_undirected(g)
    assert table.proportions["+++"] == 0.5
    assert table.proportions["---"] == 0.5


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_proportions_sum_to_one(seed):
    g = random_signed_digraph(12, 0.4, 0.5, seed)
    table = composition_directed(g)
    if table.total:
        assert abs(sum(table.proportions.values()) - 1.0) < 1e-9


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_balanced_share_matches_balance_module(seed):
    g = random_signed_digraph(12, 0.4, 0.4, seed)
    table = composition_directed(g)
    if not table.total:
        return
    tallies = scan_triads(g)
    balanced = sum(tallies.type_balanced.values())
    total = sum(tallies.census.get(cls, 0) * triples
                for cls, triples in TRIPLES_PER_TYPE.items())
    share = table.proportions["+++"] + table.proportions["+--"]
    assert abs(share - balanced / total) < 1e-9


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sign_flip_swaps_compositions(seed):
    g = random_signed_digraph(12, 0.4, 0.4, seed)
    flipped = SignedDigraph([(u, v, -s) for u, v, s in g.edge_items()],
                            nodes=g.ids)
    a = composition_directed(g).counts
    b = composition_directed(flipped).counts
    assert a["+++"] == b["---"] and a["---"] == b["+++"]
    assert a["++-"] == b["+--"] and a["+--"] == b["++-"]
    assert sum(a.values()) == sum(b.values())


# -- descriptive metrics -----------------------------------------------------------


def test_metrics_complete_mutual_graph():
    nodes = [f"n{i}" for i in range(5)]
    g = SignedDigraph([(u, v, 1) for u in nodes for v in nodes if u != v])
    m = metrics(g)
    assert m.transitivity == 1.0
    assert m.density == 1.0
    assert m.clustering_coefficient == 1.0
    assert m.avg_path_length == 1.0
    assert m.component_count == 1


def test_metrics_path_skeleton():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
    m = metrics(g)
    # ordered-pair distances on the path: 2*(1+2+3+1+2+1) / 12
    assert m.avg_path_length == pytest.approx(20 / 12)
    assert m.transitivity == 0.0


def test_metrics_density_on_digraph():
    g = SignedDigraph([("a", "b", 1), ("b", "a", -1), ("c", "a", 1),
                       ("b", "c", 1)])
    m = metrics(g)
    assert m.density == pytest.approx(4 / 6)


def test_metrics_component_count_of_input():
    g = SignedDigraph([("a", "b", 1), ("b", "a", 1),
                       ("x", "y", 1), ("y", "x", 1),
                       ("p", "q", 1), ("q", "p", 1)])
    m = metrics(g)
    assert m.component_count == 3
    assert m.node_count == 2  # giant component only


def test_metrics_singleton_undefined():
    for g in (SignedDigraph(nodes=["a"]), SignedDigraph()):
        with pytest.raises(UndefinedResultError,
                           match="giant component has fewer than two nodes"):
            metrics(g)


@pytest.mark.parametrize("n", [2, 63, 64, 65, 512, 513, 1024, 1025, 1100,
                               2049])
def test_metrics_path_graph_exact(n):
    # partial words, several sweeps of 1024 sources and over 2000 BFS levels;
    # the ordered-pair distances of a path sum to n (n - 1) (n + 1) / 3
    g = SignedDigraph([(f"v{i}", f"v{i + 1}", 1) for i in range(n - 1)])
    assert metrics(g).avg_path_length == (n + 1) / 3


def _connected_digraph(n, extra_arcs, seed, hub_count=0):
    """A random tree on n nodes plus `extra_arcs` random arcs, the first
    `hub_count` nodes joined to every other node, directions at random."""
    rng = np.random.default_rng(seed)
    tail = np.arange(1, n)
    head = (rng.random(n - 1) * tail).astype(np.int64)
    extra = rng.integers(0, n, size=(2, extra_arcs))
    hubs = np.repeat(np.arange(hub_count), n)
    u = np.concatenate([tail, extra[0], hubs])
    v = np.concatenate([head, extra[1], np.tile(np.arange(n), hub_count)])
    flip = rng.random(len(u)) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    pairs = {(a, b) for a, b in zip(u.tolist(), v.tolist()) if a != b}
    return SignedDigraph([(f"n{a}", f"n{b}", 1) for a, b in sorted(pairs)])


def _dense_apl(g):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = g.n_nodes
    mat = csr_matrix((np.ones(g.n_edges), (g.src, g.dst)), shape=(n, n))
    dist = shortest_path(mat, directed=False, unweighted=True)
    return float(dist.sum() / (n * (n - 1)))


@st.composite
def _connected_digraphs(draw):
    n = draw(st.integers(2, 600))
    seed = draw(st.integers(0, 2**32 - 1))
    return _connected_digraph(n, draw(st.integers(0, 3 * n)), seed)


@given(g=_connected_digraphs())
@settings(max_examples=30, deadline=None)
def test_avg_path_length_matches_dense_reference(g):
    assert metrics(g).avg_path_length == _dense_apl(g)


@pytest.mark.parametrize("n, extra, hub_count, seed", [
    (300, 600, 1, 0),     # a star plus random edges: the centre is the tail
    (2000, 4000, 5, 1),   # five hubs joined to everything
    (40, 60, 0, 2),       # under 64 rows, so no column and all in the tail
    (63, 0, 1, 3),        # 63 rows, a star exactly
    (1500, 3000, 0, 4),   # two sweeps of 1024 sources
    (2100, 2000, 2, 5),   # three sweeps, the last one partial
])
def test_avg_path_length_column_plan_exact(n, extra, hub_count, seed):
    g = _connected_digraph(n, extra, seed, hub_count)
    assert metrics(g).avg_path_length == _dense_apl(g)


def test_distance_sum_refuses_a_disconnected_graph():
    # two paths, 0-1-2 and 3-4: no search reaches the other component
    indptr, indices = skeleton_csr(5, np.array([0, 1, 3]), np.array([1, 2, 4]))
    with pytest.raises(ValueError, match="not connected"):
        _distance_sum(indptr, indices)
    indptr, indices = skeleton_csr(3, np.array([0, 1]), np.array([1, 2]))
    assert _distance_sum(indptr, indices) == 8


def _skeleton(graph):
    adj = {i: set() for i in range(graph.n_nodes)}
    for a, b, _ in graph.edge_items():
        u, v = graph.index[a], graph.index[b]
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _brute_transitivity_clustering(adj, n):
    triangles = 0
    closed_at = [0] * n
    for a, b, c in combinations(range(n), 3):
        links = (b in adj[a]) + (c in adj[a]) + (c in adj[b])
        if links == 3:
            triangles += 1
            for x in (a, b, c):
                closed_at[x] += 1
    wedges = sum(len(adj[v]) * (len(adj[v]) - 1) // 2 for v in range(n))
    transitivity = 3 * triangles / wedges if wedges else 0.0
    local = []
    for v in range(n):
        d = len(adj[v])
        local.append(2 * closed_at[v] / (d * (d - 1)) if d > 1 else 0.0)
    return transitivity, sum(local) / n


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_metrics_match_brute_force(seed):
    g = random_signed_digraph(14, 0.25, 0.4, seed)
    giant = preprocess(g, PreprocessConfig(prune_pendants=False))
    if giant.n_nodes < 2:
        return
    m = metrics(g)
    adj = _skeleton(giant)
    n = giant.n_nodes
    assert m.avg_path_length == brute_force(g).avg_path_length
    transitivity, clustering = _brute_transitivity_clustering(adj, n)
    assert m.transitivity == pytest.approx(transitivity, abs=1e-9)
    assert m.clustering_coefficient == pytest.approx(clustering, abs=1e-9)


def test_metrics_reuse_the_triangle_pass_on_all_components():
    # three components with triangles, kept whole: the giant's per-node
    # triangle counts are a slice of the pass over the whole graph
    edges = [("a", "b", 1), ("b", "c", -1), ("c", "a", 1), ("c", "d", 1),
             ("d", "a", 1), ("d", "e", -1), ("e", "a", 1),
             ("p", "q", 1), ("q", "r", 1), ("r", "p", -1),
             ("x", "y", 1), ("y", "z", 1), ("z", "x", 1), ("z", "w", 1),
             ("w", "x", -1), ("w", "y", 1)]
    g = preprocess(SignedDigraph(edges),
                   PreprocessConfig(keep_component="all"))
    assert g.n_nodes == 12
    measured = metrics(g)
    assert (measured.node_count, measured.component_count) == (5, 3)
    assert measured.transitivity == pytest.approx(9 / 14)
    giant = preprocess(SignedDigraph(edges))
    assert measured == replace(metrics(giant), component_count=3)
