"""Field-for-field comparison of the fast paths against the brute-force
reference.  Used by the test suite and the oracle-check subcommand.  As in
`analyze`, every figure reads the graph's one triangle pass, which the first
figure makes."""
from __future__ import annotations

import math
from dataclasses import fields

from .balance import (nonpartial_balance, overall_balance, type_balance,
                      undirected_balance)
from .census import TRIAD_TYPES, census, enumerate_triads
from .errors import UndefinedResultError
from .graphs import SignedDigraph
from .oracle import OracleResult, brute_force
from .signstats import composition_directed, composition_undirected, metrics

Mismatch = tuple[str, object, object]


def _ratio_or_none(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except UndefinedResultError:
        return None


def _fast_figures(graph: SignedDigraph) -> OracleResult:
    """Every figure of the oracle's, from the fast paths."""
    return OracleResult(
        census=census(graph).counts,
        triads=[(t.nodes, t.type, tuple(sorted(tr.signs for tr in t.triples)))
                for t in enumerate_triads(graph)],
        type_balance={tb.type: (tb.triad_count, tb.balanced_triples,
                                tb.total_triples)
                      for tb in type_balance(graph)},
        overall_type_mean=_ratio_or_none(overall_balance, graph, "type-mean"),
        overall_triad_mean=_ratio_or_none(overall_balance, graph,
                                          "triad-mean"),
        nonpartial=_ratio_or_none(nonpartial_balance, graph),
        undirected=undirected_balance(graph),
        composition_directed=composition_directed(graph).counts,
        composition_undirected=composition_undirected(graph).counts,
        avg_path_length=_ratio_or_none(
            lambda: metrics(graph).avg_path_length),
    )


def _same(a, b) -> bool:
    """Equal, except that two floats may differ by up to 1e-12; ints,
    strings and dict keys compare exactly."""
    if a == b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return False


def compare_with_oracle(graph: SignedDigraph) -> list[Mismatch]:
    """Empty list when every figure agrees with the brute-force reference.

    A listing that differs is shown as five entries a side, from its first
    differing entry on."""
    reference = brute_force(graph)
    reference.census = {cls: reference.census.get(cls, 0)
                        for cls in TRIAD_TYPES}
    reference.triads = [(nodes, cls, tuple(sorted(signs)))
                        for nodes, cls, signs in reference.triads]
    fast = _fast_figures(graph)
    mismatches: list[Mismatch] = []
    for field in fields(OracleResult):
        a, b = getattr(fast, field.name), getattr(reference, field.name)
        if _same(a, b):
            continue
        if isinstance(a, list):
            start = next((i for i, pair in enumerate(zip(a, b))
                          if not _same(*pair)), min(len(a), len(b)))
            a, b = a[start:start + 5], b[start:start + 5]
        mismatches.append((field.name, a, b))
    return mismatches
