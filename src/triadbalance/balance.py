"""Balance measures for signed digraphs, evaluated on transitive triples.

A transitive triple is balanced when it carries an even number of negative
edges.  A triad's partial balance is the fraction of its triples that are
balanced; a triad is completely balanced at ratio 1, completely imbalanced
at ratio 0, and partially balanced in between.  Graph-level figures come in
three modes: the type-mean (unweighted mean over the per-type ratios of the
types that occur), the triad-mean (mean of per-triad ratios), and the
non-partial ratio (fraction of triads that are completely balanced).  The
undirected counterpart scores each triangle of the projected graph by the
product of its edge signs.  Every figure is a view of the tallies of one
triangle pass (`census.scan_triads`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .census import (CLASSIFICATIONS, TRANSITIVE_TYPES, TRIPLES_PER_TYPE,
                     Triad, TriadTallies, Triple, scan_triads,
                     transitive_triples)
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
    return _type_balance_from_tallies(scan_triads(graph))


def _type_balance_from_tallies(tallies: TriadTallies) -> list[TypeBalance]:
    result = []
    for cls in TRANSITIVE_TYPES:
        count = tallies.type_triads.get(cls, 0)
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


def undirected_balance(graph: SignedDigraph) -> tuple[int, int, int, float | None]:
    """Triangle balance on the undirected projection of the digraph.

    A triangle is balanced when the product of its three edge signs is
    positive.  Returns (triangle_count, balanced, imbalanced, ratio); the
    ratio is None when the projection has no triangles.
    """
    return undirected_from_tallies(scan_triads(graph))


def undirected_from_tallies(tallies: TriadTallies) -> tuple[int, int, int, float | None]:
    """(triangle_count, balanced, imbalanced, ratio) of the projection."""
    und = tallies.undirected
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
    undirected: tuple[int, int, int, float | None] | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "per_type": [
                {"type": tb.type, "count": tb.triad_count, "ratio": tb.ratio}
                for tb in self.per_type
            ],
            "overall_type_mean": self.overall_type_mean,
            "overall_triad_mean": self.overall_triad_mean,
            "nonpartial": {
                "ratio": self.nonpartial[0],
                "balanced": self.nonpartial[1],
                "imbalanced": self.nonpartial[2],
            },
            "classification_counts": dict(self.classification_counts),
        }
        if self.undirected is not None:
            t, b, i, r = self.undirected
            doc["undirected"] = {"triangles": t, "balanced": b,
                                 "imbalanced": i, "ratio": r}
        return doc

    def to_csv_rows(self) -> list[list]:
        """Flat per-type view: type, ratio (2 decimals), triad count."""
        rows = [["type", "ratio", "triads"]]
        for tb in self.per_type:
            shown = "" if tb.ratio is None else f"{tb.ratio:.2f}"
            rows.append([tb.type, shown, tb.triad_count])
        total = sum(tb.triad_count for tb in self.per_type)
        rows.append(["average", f"{self.overall_type_mean:.2f}", total])
        return rows


def build_report(graph: SignedDigraph,
                 undirected: bool = False) -> BalanceReport:
    """Single-pass balance report, with the undirected figures when
    `undirected` is set; raises when no transitive triad exists."""
    return report_from_tallies(scan_triads(graph), undirected)


def report_from_tallies(tallies: TriadTallies,
                        undirected: bool = False) -> BalanceReport:
    """The balance report of one triangle pass; see `build_report`."""
    transitive = sum(tallies.type_triads.values())
    if transitive == 0:
        raise UndefinedResultError("no transitive triads: balance undefined")
    per_type = _type_balance_from_tallies(tallies)
    type_mean = aggregate_type_mean((tb.ratio, tb.triad_count) for tb in per_type)
    # every triad of a type has the same number of triples, so the per-triad
    # ratios of a type sum to its balanced triples over that number
    triad_mean = math.fsum(
        tallies.type_balanced.get(cls, 0) / TRIPLES_PER_TYPE[cls]
        for cls in TRANSITIVE_TYPES) / transitive
    balanced = tallies.classification["completely_balanced"]
    return BalanceReport(
        per_type=per_type,
        overall_type_mean=type_mean,
        overall_triad_mean=triad_mean,
        nonpartial=(balanced / transitive, balanced, transitive - balanced),
        classification_counts={c: tallies.classification[c] for c in CLASSIFICATIONS},
        undirected=undirected_from_tallies(tallies) if undirected else None,
    )
