import importlib
from itertools import combinations, permutations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadbalance import (TRANSITIVE_TYPES, TRIAD_TYPES, TRIPLES_PER_TYPE,
                          SignedDigraph, census, classify_man,
                          enumerate_triads, scan_triads, transitive_triples)
from triadbalance.census import census_from_tallies
from triadbalance.errors import NonTransitiveTriadError
from triadbalance.oracle import _PATTERNS, brute_force, random_signed_digraph

# the package's `census` function hides the module of the same name
census_module = importlib.import_module("triadbalance.census")


def test_classify_030T():
    g = SignedDigraph([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    assert classify_man(g, "a", "b", "c") == "030T"


def test_classify_300():
    edges = [(u, v, 1) for u, v in permutations("abc", 2)]
    g = SignedDigraph(edges)
    assert classify_man(g, "a", "b", "c") == "300"


def test_classify_030C():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    assert classify_man(g, "a", "b", "c") == "030C"


def test_classify_all_16_patterns():
    # the rule-based classifier must agree with the explicit canonical
    # patterns used by the oracle, for every class
    for label, pattern in _PATTERNS.items():
        g = SignedDigraph([(str(s), str(t), 1) for s, t in pattern],
                          nodes=["0", "1", "2"])
        assert classify_man(g, "0", "1", "2") == label


@given(seed=st.integers(0, 10**6), perm=st.permutations(["a", "b", "c"]))
@settings(max_examples=80, deadline=None)
def test_classify_permutation_invariant(seed, perm):
    g = random_signed_digraph(3, 0.5, 0.5, seed)
    relabel = dict(zip(g.ids, ["a", "b", "c"]))
    g2 = SignedDigraph([(relabel[u], relabel[v], s) for u, v, s in g.edge_items()],
                       nodes=["a", "b", "c"])
    assert classify_man(g2, *perm) == classify_man(g2, "a", "b", "c")


def test_classify_unknown_node():
    g = SignedDigraph([("a", "b", 1)], nodes=["c"])
    with pytest.raises(KeyError, match="zzz"):
        classify_man(g, "a", "b", "zzz")


def test_classify_distinct_nodes_required():
    g = SignedDigraph([("a", "b", 1)], nodes=["c"])
    with pytest.raises(ValueError, match="distinct"):
        classify_man(g, "a", "b", "a")


# -- enumeration -------------------------------------------------------------------


def test_mutual_4_clique_yields_four_300():
    edges = []
    for u, v in permutations("abcd", 2):
        edges.append((u, v, 1))
    g = SignedDigraph(edges)
    triads = list(enumerate_triads(g))
    assert len(triads) == 4
    assert all(t.type == "300" for t in triads)


def test_out_star_yields_021D():
    g = SignedDigraph([("a", "b", 1), ("a", "c", 1), ("a", "d", 1)])
    triads = list(enumerate_triads(g))
    assert len(triads) == 3
    assert all(t.type == "021D" for t in triads)
    assert all(t.triples == () for t in triads)


def test_lexicographic_emission_order():
    g = SignedDigraph([
        ("a", "b", 1), ("a", "e", 1),       # pair-based candidates
        ("b", "c", 1), ("c", "e", 1), ("d", "e", 1), ("b", "d", 1),
    ])
    triads = [t.nodes for t in enumerate_triads(g)]
    assert triads == sorted(triads)


def test_no_cyclic_triple():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    triads = list(enumerate_triads(g))
    assert triads[0].type == "030C"
    assert triads[0].triples == ()


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_enumeration_matches_oracle(seed):
    g = random_signed_digraph(14, 0.3, 0.4, seed)
    fast = {(t.nodes, t.type) for t in enumerate_triads(g)}
    slow = {(nodes, cls) for nodes, cls, _ in brute_force(g).triads}
    assert fast == slow


def _mismatched_digraph(n, edge_prob, seed):
    """Random signed digraph in which about half of the reciprocal pairs
    are given opposite signs."""
    signs = {(u, v): s for u, v, s in
             random_signed_digraph(n, edge_prob, 0.4, seed).edge_items()}
    rng = np.random.default_rng(seed)
    for (u, v), s in sorted(signs.items()):
        if u < v and (v, u) in signs and rng.random() < 0.5:
            signs[(v, u)] = -s
    return SignedDigraph([(u, v, s) for (u, v), s in signs.items()],
                         nodes=[str(i) for i in range(n)])


@given(n=st.integers(3, 40), edge_prob=st.sampled_from([0.08, 0.2, 0.35]),
       seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_scan_across_wedge_chunks_matches_oracle(n, edge_prob, seed):
    g = _mismatched_digraph(n, edge_prob, seed)
    # a chunk of 3 wedges splits every graph's pass many times, and many
    # single edges open more wedges than one chunk holds
    with mock.patch.object(census_module, "_WEDGE_CHUNK", 3):
        tallies = scan_triads(g)
    reference = brute_force(g)
    assert census_from_tallies(g, tallies).counts == {
        cls: reference.census.get(cls, 0) for cls in TRIAD_TYPES}
    for cls, (count, balanced, total) in reference.type_balance.items():
        assert tallies.type_triads.get(cls, 0) == count
        assert tallies.type_balanced.get(cls, 0) == balanced
        assert count * TRIPLES_PER_TYPE[cls] == total
    classes = {"completely_balanced": 0, "partially_balanced": 0,
               "completely_imbalanced": 0}
    for _, cls, triples in reference.triads:
        if cls in TRANSITIVE_TYPES:
            balanced = sum(1 for t in triples
                           if sum(1 for s in t if s < 0) % 2 == 0)
            classes["completely_balanced" if balanced == len(triples)
                    else "partially_balanced" if balanced
                    else "completely_imbalanced"] += 1
    assert tallies.classification == classes
    assert tallies.composition == reference.composition_directed
    assert tallies.undirected == reference.composition_undirected
    signs = {(u, v): s for u, v, s in g.edge_items()}
    cancelled = {(u, v) for (u, v), s in signs.items()
                 if signs.get((v, u), s) != s}
    assert tallies.undirected_only == sorted(
        nodes for nodes, cls, _ in reference.triads
        if cls in ("030C", "120C", "210")
        and not any(p in cancelled for p in permutations(nodes, 2)))
    assert tallies.cancelled == sorted((u, v) for u, v in cancelled if u < v)
    adjacent = {frozenset(pair) for pair in signs}
    at_node = dict.fromkeys(g.ids, 0)
    for nodes in combinations(g.ids, 3):
        if all(frozenset(p) in adjacent for p in combinations(nodes, 2)):
            for node in nodes:
                at_node[node] += 1
    assert tallies.node_triangles == tuple(at_node[i] for i in g.ids)


# -- census ----------------------------------------------------------------------


def test_census_empty_graph():
    g = SignedDigraph(nodes=list("abcde"))
    table = census(g)
    assert table.counts["003"] == 10
    assert table.total() == comb(5, 3)


def test_census_single_mutual_dyad():
    g = SignedDigraph([("a", "b", 1), ("b", "a", 1)], nodes=["c"])
    table = census(g)
    assert table.counts["102"] == 1
    assert table.counts["003"] == 0
    assert sum(v for k, v in table.counts.items() if k not in ("102",)) == 0


def test_census_complete_mutual_graph():
    nodes = [f"n{i}" for i in range(6)]
    edges = [(u, v, 1) for u in nodes for v in nodes if u != v]
    table = census(SignedDigraph(edges))
    assert table.counts["300"] == comb(6, 3)
    assert table.total() == comb(6, 3)


def test_census_connected_only_mode():
    g = SignedDigraph([("a", "b", 1)], nodes=["c", "d"])
    table = census(g)
    trimmed = table.connected_only()
    assert not trimmed.include_disconnected
    assert trimmed.total() == 0  # a lone arc creates no connected triad


def test_census_csv_rows_fixed_order():
    g = SignedDigraph(nodes=list("abc"))
    rows = census(g).to_csv_rows()
    assert [r[0] for r in rows] == list(TRIAD_TYPES)


@given(seed=st.integers(0, 10**6), n=st.integers(3, 16))
@settings(max_examples=50, deadline=None)
def test_census_sums_to_n_choose_3(seed, n):
    g = random_signed_digraph(n, 0.35, 0.5, seed)
    assert census(g).total() == comb(n, 3)


# -- transitive triples ------------------------------------------------------------


def test_030T_single_triple():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    triad = next(iter(enumerate_triads(g)))
    triples = transitive_triples(g, triad)
    assert [(t.source, t.mid, t.sink) for t in triples] == [("a", "b", "c")]


def test_120D_two_triples():
    g = SignedDigraph([("a", "b", 1), ("b", "a", 1), ("c", "a", 1), ("c", "b", 1)])
    triad = next(iter(enumerate_triads(g)))
    assert triad.type == "120D"
    ordered = sorted((t.source, t.mid, t.sink) for t in triad.triples)
    assert ordered == [("c", "a", "b"), ("c", "b", "a")]


def test_300_six_triples():
    edges = [(u, v, 1) for u, v in permutations("abc", 2)]
    g = SignedDigraph(edges)
    triad = next(iter(enumerate_triads(g)))
    assert triad.type == "300"
    assert len(transitive_triples(g, triad)) == 6


def test_triples_error_on_non_transitive():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    triad = next(iter(enumerate_triads(g)))
    with pytest.raises(NonTransitiveTriadError):
        transitive_triples(g, triad)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_triple_counts_per_type(seed):
    g = random_signed_digraph(12, 0.4, 0.5, seed)
    for triad in enumerate_triads(g):
        expected = TRIPLES_PER_TYPE.get(triad.type, 0)
        assert len(triad.triples) == expected
