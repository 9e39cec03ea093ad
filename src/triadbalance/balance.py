"""Balance measures for signed digraphs, evaluated on transitive triples.

A transitive triple is balanced when it carries an even number of negative
edges.  A triad's partial balance is the fraction of its triples that are
balanced; a triad is completely balanced at ratio 1, completely imbalanced
at ratio 0, and partially balanced in between.  Graph-level figures come in
three modes: the type-mean (unweighted mean over the per-type ratios of the
types that occur), the triad-mean (mean of per-triad ratios), and the
non-partial ratio (fraction of triads that are completely balanced).  The
undirected counterpart scores each triangle of the projected graph by the
product of its edge signs.  Every figure is a view of the tallies of the
graph's one triangle pass, which `census.tallies_of` makes on first use and
keeps with the graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .census import (CLASSIFICATIONS, TRANSITIVE_TYPES, TRIPLES_PER_TYPE,
                     Triad, Triple, tallies_of, transitive_triples)
from .errors import UndefinedResultError
from .graphs import SignedDigraph

BALANCE_MODES = ("type-mean", "triad-mean")


def triple_is_balanced(triple: Triple | Sequence[int]) -> bool:
    """Even number of negative edges <=> balanced."""
    signs = triple.signs if isinstance(triple, Triple) else tuple(triple)
    return sum(1 for s in signs if s < 0) % 2 == 0


@dataclass(frozen=True)
class TriadBalance:
    triad: Triad
    balanced_triples: int
    total_triples: int
    ratio: float
    classification: str


@dataclass(frozen=True)
class TypeBalance:
    type: str
    triad_count: int
    balanced_triples: int
    total_triples: int
    #: None when no triad of this type occurs (never reported as 0)
    ratio: float | None


def triad_balance(graph: SignedDigraph, triad: Triad) -> TriadBalance:
    """Partial balance of one transitive triad."""
    triples = transitive_triples(graph, triad)
    balanced = sum(1 for t in triples if triple_is_balanced(t))
    total = len(triples)
    if balanced == total:
        cls = "completely_balanced"
    elif balanced == 0:
        cls = "completely_imbalanced"
    else:
        cls = "partially_balanced"
    return TriadBalance(triad, balanced, total, balanced / total, cls)


def type_balance(graph: SignedDigraph) -> list[TypeBalance]:
    """Per-type triad counts and triple-weighted balance ratios.

    All triads of one type carry the same number of triples, so the
    triple-weighted ratio coincides with the mean of per-triad ratios
    within the type.
    """
    tallies = tallies_of(graph)
    result = []
    for cls in TRANSITIVE_TYPES:
        count = tallies.census.get(cls, 0)
        balanced = tallies.type_balanced.get(cls, 0)
        total = count * TRIPLES_PER_TYPE[cls]
        ratio = balanced / total if total else None
        result.append(TypeBalance(cls, count, balanced, total, ratio))
    return result


def aggregate_type_mean(entries: Iterable[tuple[float | None, int]]) -> float:
    """Unweighted mean of per-type ratios over the types that occur.

    Accepts (ratio, triad_count) pairs; types with zero triads are excluded
    from the denominator.
    """
    present = [ratio for ratio, count in entries if count > 0]
    if not present:
        raise UndefinedResultError("no transitive triads: type-mean undefined")
    if any(r is None for r in present):
        raise ValueError("present type with undefined ratio")
    return math.fsum(present) / len(present)


def overall_balance(graph: SignedDigraph, mode: str = "type-mean") -> float:
    """Graph-level partial balance.

    type-mean: unweighted mean of per-type ratios over the occurring types.
    triad-mean: mean of per-triad ratios over all transitive triads.
    """
    if mode not in BALANCE_MODES:
        raise ValueError(f"unknown balance mode {mode!r}")
    report = build_report(graph)
    if mode == "type-mean":
        return report.overall_type_mean
    return report.overall_triad_mean


def nonpartial_balance(graph: SignedDigraph) -> tuple[float, int, int]:
    """Binary scoring: a triad counts as balanced only when completely so.

    Returns (ratio, balanced_count, imbalanced_count).
    """
    return build_report(graph).nonpartial


def undirected_balance(graph: SignedDigraph
                       ) -> tuple[int, int, int, float | None]:
    """Triangle balance on the undirected projection of the digraph.

    A triangle is balanced when the product of its three edge signs is
    positive.  Returns (triangle_count, balanced, imbalanced, ratio); the
    ratio is None when the projection has no triangles.
    """
    und = tallies_of(graph).undirected
    total = sum(und.values())
    balanced = und["+++"] + und["+--"]
    ratio = balanced / total if total else None
    return total, balanced, total - balanced, ratio


@dataclass
class BalanceReport:
    """All balance figures of one analysis run."""

    per_type: list[TypeBalance]
    overall_type_mean: float
    overall_triad_mean: float
    nonpartial: tuple[float, int, int]
    classification_counts: dict


def build_report(graph: SignedDigraph) -> BalanceReport:
    """Single-pass balance report; raises when no transitive triad exists."""
    per_type = type_balance(graph)
    transitive = sum(tb.triad_count for tb in per_type)
    if transitive == 0:
        raise UndefinedResultError("no transitive triads: balance undefined")
    type_mean = aggregate_type_mean((tb.ratio, tb.triad_count) for tb in per_type)
    # every triad of a type has the same number of triples, so the per-triad
    # ratios of a type sum to its balanced triples over that number
    triad_mean = math.fsum(tb.balanced_triples / TRIPLES_PER_TYPE[tb.type]
                           for tb in per_type) / transitive
    classification = tallies_of(graph).classification
    balanced = classification["completely_balanced"]
    return BalanceReport(
        per_type=per_type,
        overall_type_mean=type_mean,
        overall_triad_mean=triad_mean,
        nonpartial=(balanced / transitive, balanced, transitive - balanced),
        classification_counts={c: classification[c] for c in CLASSIFICATIONS},
    )
