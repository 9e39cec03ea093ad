from dataclasses import fields, replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadbalance import SignedDigraph, crosscheck
from triadbalance.crosscheck import _same, compare_with_oracle
from triadbalance.oracle import OracleResult, brute_force, random_signed_digraph


def test_rng_determinism():
    a = random_signed_digraph(6, 0.5, 0.5, seed=1)
    b = random_signed_digraph(6, 0.5, 0.5, seed=1)
    assert list(a.edge_items()) == list(b.edge_items())


def test_rng_zero_edge_prob():
    g = random_signed_digraph(8, 0.0, 0.5, seed=3)
    assert g.n_edges == 0 and g.n_nodes == 8


def test_rng_complete_positive():
    g = random_signed_digraph(5, 1.0, 0.0, seed=3)
    assert g.n_edges == 20
    assert all(s == 1 for _, _, s in g.edge_items())


def test_oracle_refuses_large_graphs():
    g = random_signed_digraph(201, 0.0, 0.0, seed=0)
    with pytest.raises(ValueError, match="200"):
        brute_force(g)


def test_oracle_empty_graph():
    result = brute_force(SignedDigraph(nodes=[str(i) for i in range(6)]))
    assert result.census == {"003": comb(6, 3)}
    assert result.triads == []
    assert result.overall_type_mean is None


def test_oracle_single_030T():
    g = SignedDigraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    result = brute_force(g)
    assert result.overall_type_mean == 1.0
    assert result.overall_triad_mean == 1.0
    assert result.nonpartial == (1.0, 1, 0)


def test_oracle_census_sums():
    for seed in range(5):
        g = random_signed_digraph(12, 0.4, 0.5, seed)
        result = brute_force(g)
        assert sum(result.census.values()) == comb(12, 3)


@pytest.mark.parametrize("edge_prob", [0.3, 0.6])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fast_path_agrees_with_oracle(edge_prob, seed):
    g = random_signed_digraph(15, edge_prob, 0.4, seed)
    assert compare_with_oracle(g) == []


@pytest.mark.parametrize("path, triangle, apl", [
    ("abc", "xyz", 8 / 6),  # the path a-b-c holds the smallest id
    ("xyz", "abc", 1.0),    # the triangle a-b-c does
])
def test_oracle_path_length_size_tie(path, triangle, apl):
    p, q, r = path
    x, y, z = triangle
    g = SignedDigraph([(p, q, 1), (q, r, 1), (x, y, 1), (y, z, 1), (z, x, 1)])
    assert brute_force(g).avg_path_length == apl
    assert compare_with_oracle(g) == []


def test_oracle_path_length_undefined_without_edges():
    g = SignedDigraph(nodes=["a", "b", "c"])
    assert brute_force(g).avg_path_length is None
    assert compare_with_oracle(g) == []


def _corrupt(value):
    """`value` with its first number or string changed, floats by more
    than the comparison's tolerance."""
    if value is None:
        return 0.5
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _corrupt(value[key])}
    if isinstance(value, (tuple, list)):
        return type(value)([_corrupt(value[0]), *value[1:]])
    if isinstance(value, str):
        return value + "x"
    return value + (1e-9 if isinstance(value, float) else 1)


@pytest.mark.parametrize("name", [f.name for f in fields(OracleResult)])
def test_a_corrupted_figure_is_reported_by_its_field(monkeypatch, name):
    g = random_signed_digraph(12, 0.4, 0.4, seed=5)
    fast = crosscheck._fast_figures(g)
    assert getattr(fast, name) not in (None, [], {}), name
    corrupted = replace(fast, **{name: _corrupt(getattr(fast, name))})
    monkeypatch.setattr(crosscheck, "_fast_figures", lambda graph: corrupted)
    assert [m[0] for m in compare_with_oracle(g)] == [name]


def test_a_triad_listing_mismatch_shows_five_entries_from_the_first_change(
        monkeypatch):
    g = random_signed_digraph(12, 0.4, 0.4, seed=5)
    fast = crosscheck._fast_figures(g)
    triads = fast.triads[:3] + fast.triads[4:]  # the fourth goes missing
    monkeypatch.setattr(crosscheck, "_fast_figures",
                        lambda graph: replace(fast, triads=triads))
    [(name, shown, reference)] = compare_with_oracle(g)
    assert name == "triads"
    assert shown == fast.triads[4:9]
    assert reference == fast.triads[3:8]


@pytest.mark.parametrize("a, b, same", [
    (0.5, 0.5 + 1e-13, True),
    (0.5, 0.5 + 1e-11, False),
    ((3, 1, 2, 0.5), (3, 1, 2, 0.5 + 1e-13), True),
    ((3, 1, 2, 0.5), (3, 2, 1, 0.5), False),
    ((1, 2), (1, 2, 3), False),
    ({"a": 1}, {"b": 1}, False),
    ({"a": 1.0}, {"a": 1.0 - 1e-13}, True),
    ([("a", "030T", ((1, 1, 1),))], [("a", "030T", ((1, 1, -1),))], False),
    (None, 0.0, False),
    (None, None, True),
    ("030T", "030C", False),
])
def test_same_is_exact_but_for_float_rounding(a, b, same):
    assert _same(a, b) is same
    assert _same(b, a) is same
