"""Field-for-field comparison of the fast paths against the brute-force
reference.  Used by the test suite and the oracle-check subcommand.  As in
`analyze`, one `scan_triads` pass is handed to every function that takes it."""
from __future__ import annotations

import math

from .balance import (nonpartial_balance, overall_balance, type_balance,
                      undirected_balance)
from .census import TRIAD_TYPES, census, enumerate_triads, scan_triads
from .errors import UndefinedResultError
from .graphs import SignedDigraph
from .oracle import brute_force
from .signstats import composition_directed, composition_undirected, metrics

Mismatch = tuple[str, object, object]


def _ratio_or_none(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except UndefinedResultError:
        return None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)


def compare_with_oracle(graph: SignedDigraph) -> list[Mismatch]:
    """Empty list when every figure agrees with the brute-force reference."""
    reference = brute_force(graph)
    mismatches: list[Mismatch] = []
    tallies = scan_triads(graph)

    fast_census = census(graph, tallies).counts
    slow_census = {cls: reference.census.get(cls, 0) for cls in TRIAD_TYPES}
    if fast_census != slow_census:
        mismatches.append(("census", fast_census, slow_census))

    fast_triads = {(t.nodes, t.type): tuple(sorted(tr.signs for tr in t.triples))
                   for t in enumerate_triads(graph)}
    slow_triads = {(nodes, cls): tuple(sorted(signs))
                   for nodes, cls, signs in reference.triads}
    if fast_triads != slow_triads:
        extra = set(fast_triads) ^ set(slow_triads)
        diff = {k for k in set(fast_triads) & set(slow_triads)
                if fast_triads[k] != slow_triads[k]}
        mismatches.append(("triads", sorted(extra)[:5] or sorted(diff)[:5],
                           "see triad listings"))

    fast_types = {tb.type: (tb.triad_count, tb.balanced_triples, tb.total_triples)
                  for tb in type_balance(graph, tallies)}
    if fast_types != reference.type_balance:
        mismatches.append(("type_balance", fast_types, reference.type_balance))

    fast_type_mean = _ratio_or_none(overall_balance, graph, "type-mean", tallies)
    if not _close(fast_type_mean, reference.overall_type_mean):
        mismatches.append(("overall_type_mean", fast_type_mean,
                           reference.overall_type_mean))

    fast_triad_mean = _ratio_or_none(overall_balance, graph, "triad-mean", tallies)
    if not _close(fast_triad_mean, reference.overall_triad_mean):
        mismatches.append(("overall_triad_mean", fast_triad_mean,
                           reference.overall_triad_mean))

    fast_nonpartial = _ratio_or_none(nonpartial_balance, graph)
    if (fast_nonpartial is None) != (reference.nonpartial is None):
        mismatches.append(("nonpartial", fast_nonpartial, reference.nonpartial))
    elif fast_nonpartial is not None:
        if (not _close(fast_nonpartial[0], reference.nonpartial[0])
                or fast_nonpartial[1:] != reference.nonpartial[1:]):
            mismatches.append(("nonpartial", fast_nonpartial,
                               reference.nonpartial))

    fast_und = undirected_balance(graph, tallies)
    if (fast_und[:3] != reference.undirected[:3]
            or not _close(fast_und[3], reference.undirected[3])):
        mismatches.append(("undirected", fast_und, reference.undirected))

    fast_comp = composition_directed(graph, tallies).counts
    if fast_comp != reference.composition_directed:
        mismatches.append(("composition_directed", fast_comp,
                           reference.composition_directed))

    fast_comp_und = composition_undirected(graph, tallies).counts
    if fast_comp_und != reference.composition_undirected:
        mismatches.append(("composition_undirected", fast_comp_und,
                           reference.composition_undirected))

    fast_apl = _ratio_or_none(lambda: metrics(graph, tallies).avg_path_length)
    if not _close(fast_apl, reference.avg_path_length):
        mismatches.append(("avg_path_length", fast_apl,
                           reference.avg_path_length))

    return mismatches
