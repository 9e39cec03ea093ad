import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadbalance import (SignedDigraph, Triple, aggregate_type_mean,
                          build_report, census, enumerate_triads,
                          nonpartial_balance, overall_balance,
                          triad_balance, triple_is_balanced, type_balance,
                          undirected_balance)
from triadbalance.errors import UndefinedResultError
from triadbalance.oracle import random_signed_digraph


def _triple(*signs):
    return Triple("a", "b", "c", signs)


@pytest.mark.parametrize("signs,expected", [
    ((1, 1, 1), True),
    ((1, -1, -1), True),
    ((-1, 1, -1), True),
    ((1, 1, -1), False),
    ((-1, -1, -1), False),
])
def test_even_negative_rule(signs, expected):
    assert triple_is_balanced(_triple(*signs)) is expected


def test_triad_balance_completely_balanced_030T():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    tb = triad_balance(g, next(iter(enumerate_triads(g))))
    assert tb.ratio == 1.0
    assert tb.classification == "completely_balanced"


def test_triad_balance_completely_imbalanced_030T():
    g = SignedDigraph([("a", "b", 1), ("b", "c", -1), ("a", "c", 1)])
    tb = triad_balance(g, next(iter(enumerate_triads(g))))
    assert (tb.balanced_triples, tb.total_triples) == (0, 1)
    assert tb.classification == "completely_imbalanced"


def test_triad_balance_300_all_positive():
    g = SignedDigraph([(u, v, 1) for u, v in permutations("abc", 2)])
    tb = triad_balance(g, next(iter(enumerate_triads(g))))
    assert (tb.balanced_triples, tb.total_triples) == (6, 6)


def test_triad_balance_120D_half():
    # triples (c,a,b) = (+,+,-) imbalanced and (c,b,a) = (-,-,+) balanced
    g = SignedDigraph([("a", "b", 1), ("b", "a", -1),
                       ("c", "a", 1), ("c", "b", -1)])
    tb = triad_balance(g, next(iter(enumerate_triads(g))))
    assert tb.ratio == 0.5
    assert tb.classification == "partially_balanced"


def test_type_balance_single_030T():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    entries = {tb.type: tb for tb in type_balance(g)}
    assert entries["030T"].triad_count == 1
    assert entries["030T"].ratio == 1.0
    assert entries["300"].triad_count == 0
    assert entries["300"].ratio is None


def test_type_balance_two_030T():
    g = SignedDigraph([
        ("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
        ("d", "e", 1), ("e", "f", 1), ("d", "f", -1),
    ])
    entries = {tb.type: tb for tb in type_balance(g)}
    assert entries["030T"].triad_count == 2
    assert entries["030T"].ratio == 0.5


def test_aggregate_type_mean_reference_row():
    entries = [(0.91, 3706), (0.85, 2096), (0.83, 2910), (0.93, 13752)]
    assert round(aggregate_type_mean(entries), 2) == 0.88


def test_aggregate_type_mean_excludes_absent_types():
    entries = [(None, 0), (None, 0), (None, 0), (0.87, 68)]
    assert aggregate_type_mean(entries) == 0.87


def test_aggregate_type_mean_empty_raises():
    with pytest.raises(UndefinedResultError):
        aggregate_type_mean([(None, 0)])
    # a type that occurs must come with its ratio
    with pytest.raises(ValueError, match="present type with undefined ratio"):
        aggregate_type_mean([(None, 3)])


def test_overall_balance_all_positive(mixed_graph):
    g = SignedDigraph([(u, v, 1) for u, v, _ in mixed_graph.edge_items()])
    assert overall_balance(g, "type-mean") == 1.0
    assert overall_balance(g, "triad-mean") == 1.0
    ratio, balanced, imbalanced = nonpartial_balance(g)
    assert ratio == 1.0 and imbalanced == 0


def test_overall_balance_unknown_mode(mixed_graph):
    with pytest.raises(ValueError):
        overall_balance(mixed_graph, "median")


def test_no_transitive_triads_is_an_error():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    with pytest.raises(UndefinedResultError):
        overall_balance(g)
    with pytest.raises(UndefinedResultError):
        nonpartial_balance(g)
    with pytest.raises(UndefinedResultError):
        build_report(g)


def test_nonpartial_single_sour_300():
    edges = [(u, v, 1) for u, v in permutations("abc", 2)]
    edges[0] = ("a", "b", -1)
    g = SignedDigraph(edges)
    ratio, balanced, imbalanced = nonpartial_balance(g)
    assert (ratio, balanced, imbalanced) == (0.0, 0, 1)


def test_undirected_triangle_signs():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", -1)])
    count, balanced, imbalanced, ratio = undirected_balance(g)
    assert (count, balanced, imbalanced, ratio) == (1, 0, 1, 0.0)
    g = SignedDigraph([("a", "b", -1), ("b", "c", -1), ("a", "c", 1)])
    count, balanced, imbalanced, ratio = undirected_balance(g)
    assert (count, balanced, imbalanced, ratio) == (1, 1, 0, 1.0)


def test_undirected_no_triangles():
    g = SignedDigraph([("a", "b", 1)])
    count, balanced, imbalanced, ratio = undirected_balance(g)
    assert (count, ratio) == (0, None)


def test_report_json_shape(mixed_graph):
    # the fields `cli` lays out as balance.json; its keys are pinned by
    # tests/test_cli.py::test_report_json_schema
    report = build_report(mixed_graph)
    assert {tb.type for tb in report.per_type} == {"030T", "120D", "120U", "300"}
    ratio, balanced, imbalanced = report.nonpartial
    assert ratio == balanced / (balanced + imbalanced)
    triangles, balanced, imbalanced, ratio = undirected_balance(mixed_graph)
    assert (triangles, ratio) == (balanced + imbalanced, balanced / triangles)
    counts = report.classification_counts
    assert sum(counts.values()) == sum(tb.triad_count for tb in report.per_type)


# -- properties -------------------------------------------------------------------


def _flip(graph: SignedDigraph) -> SignedDigraph:
    return SignedDigraph([(u, v, -s) for u, v, s in graph.edge_items()],
                         nodes=graph.ids)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sign_flip_preserves_structure(seed):
    g = random_signed_digraph(12, 0.35, 0.4, seed)
    flipped = _flip(g)
    assert census(g).counts == census(flipped).counts
    a = {tb.type: (tb.triad_count, tb.total_triples) for tb in type_balance(g)}
    b = {tb.type: (tb.triad_count, tb.total_triples) for tb in type_balance(flipped)}
    assert a == b


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sign_flip_maps_triple_parity(seed):
    g = random_signed_digraph(10, 0.4, 0.5, seed)
    for triad, triad_f in zip(enumerate_triads(g), enumerate_triads(_flip(g))):
        assert triad.nodes == triad_f.nodes
        for t, tf in zip(triad.triples, triad_f.triples):
            negs = sum(1 for s in t.signs if s < 0)
            assert triple_is_balanced(tf) == ((3 - negs) % 2 == 0)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_nonpartial_never_exceeds_triad_mean(seed):
    g = random_signed_digraph(12, 0.45, 0.4, seed)
    try:
        triad_mean = overall_balance(g, "triad-mean")
    except UndefinedResultError:
        return
    assert nonpartial_balance(g)[0] <= triad_mean + 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_triad_mean_matches_independent_summation(seed):
    g = random_signed_digraph(14, 0.4, 0.4, seed)
    ratios = []
    for triad in enumerate_triads(g):
        if triad.triples:
            balanced = sum(1 for t in triad.triples if triple_is_balanced(t))
            ratios.append(balanced / len(triad.triples))
    if not ratios:
        return
    independent = math.fsum(sorted(ratios)) / len(ratios)
    assert abs(overall_balance(g, "triad-mean") - independent) < 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_symmetric_graph_undirected_equals_300_ratio(seed):
    base = random_signed_digraph(9, 0.45, 0.5, seed)
    fixed = {}
    for u, v, s in base.edge_items():
        fixed.setdefault((min(u, v), max(u, v)), s)
    edges = []
    for (u, v), s in fixed.items():
        edges.append((u, v, s))
        edges.append((v, u, s))
    sym = SignedDigraph(edges, nodes=base.ids)
    entries = {tb.type: tb for tb in type_balance(sym)}
    und = undirected_balance(sym)
    if entries["300"].triad_count == 0:
        assert und[0] == 0
    else:
        assert und[3] == pytest.approx(entries["300"].ratio, abs=1e-12)
        assert und[0] == entries["300"].triad_count
