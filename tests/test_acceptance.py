"""Acceptance suite.

One test per acceptance criterion; every test prints a single
"[criterion N] PASS/FAIL" line (visible with `pytest -v -s`) and asserts at
the stated tolerance.  Reference figures are the published values for the
bundled datasets.
"""
import copy
import os
import time
import timeit
from math import comb
from pathlib import Path

import pytest

import triadbalance as tb
from triadbalance.census import census
from triadbalance.cli import compare_report
from triadbalance.crosscheck import compare_with_oracle
from triadbalance.errors import UndefinedResultError
from triadbalance.oracle import random_signed_digraph

REPO_ROOT = Path(__file__).resolve().parent.parent
HIGHLAND_MATRIX = REPO_ROOT / "data" / "highland" / "highland_tribes_matrix.txt"
BITCOIN_OTC = REPO_ROOT / "data" / "bitcoin" / "soc-sign-bitcoinotc.csv"
BITCOIN_ALPHA = REPO_ROOT / "data" / "bitcoin" / "soc-sign-bitcoinalpha.csv"


def _check(criterion: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{criterion}] {status}" + (f" -- {'; '.join(failures)}" if failures else ""))
    assert not failures, f"{criterion}: {'; '.join(failures)}"


def _load_highland() -> tb.SignedDigraph:
    records = tb.load_edge_records(HIGHLAND_MATRIX, "signed-matrix")
    return tb.preprocess(tb.build_graph(records))


# -- criterion 1: 16-node alliance network end-to-end -----------------------------


def test_criterion_1_highland_directed():
    start = time.perf_counter()
    graph = _load_highland()
    transitive = [t for t in tb.enumerate_triads(graph)
                  if t.type in tb.TRANSITIVE_TYPES]
    partial = tb.overall_balance(graph, "type-mean")
    comp = tb.composition_directed(graph).proportions
    density = graph.n_edges / (graph.n_nodes * (graph.n_nodes - 1))
    elapsed = time.perf_counter() - start

    failures = []
    if len(transitive) != 68:
        failures.append(f"expected 68 transitive triads, got {len(transitive)}")
    off_type = [t for t in transitive if t.type != "300"]
    if off_type:
        failures.append(f"{len(off_type)} transitive triads not of type 300")
    if abs(partial - 0.87) > 0.005:
        failures.append(f"partial balance {partial:.4f} not within 0.87 +/- 0.005")
    for key, expected in (("+++", 0.28), ("+--", 0.59), ("++-", 0.03),
                          ("---", 0.10)):
        if abs(comp[key] - expected) > 0.01:
            failures.append(f"composition {key} = {comp[key]:.4f}, "
                            f"expected {expected} +/- 0.01")
    if abs(density - 0.48) > 0.005:
        failures.append(f"density {density:.4f} not within 0.48 +/- 0.005")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _check("criterion 1 (alliance network, directed)", failures)


def test_criterion_1_highland_undirected():
    # The undirected row follows from the published directed figures.  The
    # matrix is symmetric (29 positive, 29 negative relations), so the
    # projection keeps every edge and its triangles are exactly the 68
    # type-300 triads checked above.  All six triples of a symmetric triad
    # share the triangle's sign product, so the undirected ratio equals the
    # directed 0.87, and the published composition (+++ 0.28, +-- 0.59,
    # ++- 0.03, --- 0.10) over 68 triangles gives 19/40/2/7, i.e. 59
    # balanced and 9 imbalanced.  From the matrix alone, with A unsigned and
    # S signed: trace(A^3)/6 = 68 and (trace(A^3) + trace(S^3))/12 = 59.
    # An older reference row of 24/2 at 0.92 contradicts all of these.
    graph = _load_highland()
    triangles, balanced, imbalanced, ratio = tb.undirected_balance(graph)
    failures = []
    if triangles != 68:
        failures.append(f"expected 68 triangles, got {triangles}")
    if balanced != 59:
        failures.append(f"expected 59 balanced triangles, got {balanced}")
    if imbalanced != 9:
        failures.append(f"expected 9 imbalanced triangles, got {imbalanced}")
    if ratio is None or abs(ratio - 0.87) > 0.005:
        failures.append(f"undirected ratio {ratio} not within 0.87 +/- 0.005")
    _check("criterion 1 (alliance network, undirected reference row)", failures)


# -- criterion 2: signed-rating networks ------------------------------------------


def _bitcoin_case(path: Path, name: str, type_mean_ref: float,
                  count_300_ref: int, nonpartial_ref: float) -> None:
    start = time.perf_counter()
    records = tb.load_edge_records(path, "csv-rating")
    graph = tb.preprocess(tb.build_graph(records))
    report = tb.build_report(graph)
    elapsed = time.perf_counter() - start

    per_type = {e.type: e for e in report.per_type}
    failures = []
    if abs(report.overall_type_mean - type_mean_ref) > 0.03:
        failures.append(f"type-mean {report.overall_type_mean:.4f} not within "
                        f"{type_mean_ref} +/- 0.03")
    count_300 = per_type["300"].triad_count
    if abs(count_300 - count_300_ref) > 0.05 * count_300_ref:
        failures.append(f"300-type count {count_300} not within 5% of "
                        f"{count_300_ref}")
    if abs(report.nonpartial[0] - nonpartial_ref) > 0.03:
        failures.append(f"non-partial {report.nonpartial[0]:.4f} not within "
                        f"{nonpartial_ref} +/- 0.03")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _check(f"criterion 2 ({name})", failures)


@pytest.mark.skipif(not BITCOIN_OTC.exists(),
                    reason="rating dataset not bundled; run "
                           "scripts/fetch_datasets.py to download it")
def test_criterion_2_bitcoin_otc():
    _bitcoin_case(BITCOIN_OTC, "bitcoin-otc", 0.88, 13752, 0.86)


@pytest.mark.skipif(not BITCOIN_ALPHA.exists(),
                    reason="rating dataset not bundled; run "
                           "scripts/fetch_datasets.py to download it")
def test_criterion_2_bitcoin_alpha():
    _bitcoin_case(BITCOIN_ALPHA, "bitcoin-alpha", 0.86, 9894, 0.84)


# -- criterion 3: type-mean aggregation over the reference rows --------------------

# per-type (ratio, triad count) fixtures and the published averages
REFERENCE_ROWS = {
    "bitcoin-otc": ([(0.91, 3706), (0.85, 2096), (0.83, 2910), (0.93, 13752)], 0.88),
    "bitcoin-alpha": ([(0.82, 974), (0.82, 1142), (0.87, 1780), (0.92, 9894)], 0.86),
    "highland-tribes": ([(0.00, 0), (0.00, 0), (0.00, 0), (0.87, 68)], 0.87),
    "college-house-a": ([(0.67, 27), (0.85, 13), (1.00, 13), (1.00, 4)], 0.88),
    "college-house-b": ([(0.43, 21), (0.33, 6), (0.80, 15), (0.88, 4)], 0.61),
    "college-house-c": ([(0.82, 17), (1.00, 8), (1.00, 3), (1.00, 1)], 0.96),
    "enron-morality": ([(0.91, 4514), (0.92, 2390), (0.92, 3615), (0.94, 3056)], 0.92),
    # Fails as stated: the exact type-mean of these rows is 0.6725, 0.0075
    # from the published 0.68.  The ratios are rounded to two decimals, so
    # their unrounded type-mean lies in [0.6675, 0.6775), which overlaps the
    # rounding interval [0.675, 0.685) of 0.68; the count-weighted mean
    # (0.6708) fits 0.68 no better.  Neither the row nor the average can be
    # shown wrong until the unrounded Enron per-type ratios are bundled.
    "enron-sentiment": ([(0.67, 4238), (0.68, 2384), (0.64, 3513), (0.70, 3056)], 0.68),
    "avocado-morality": ([(0.81, 8787), (0.86, 14111), (0.87, 26165), (0.93, 124371)], 0.87),
    "avocado-sentiment": ([(0.76, 8577), (0.81, 14276), (0.83, 28615), (0.90, 144865)], 0.82),
}


@pytest.mark.parametrize("network", sorted(REFERENCE_ROWS))
def test_criterion_3_type_mean_reproduces_averages(network):
    rows, expected = REFERENCE_ROWS[network]
    mean = tb.aggregate_type_mean(rows)
    failures = []
    if abs(mean - expected) > 0.005 + 1e-12:
        failures.append(f"type-mean {mean:.4f} vs published {expected} "
                        f"(diff {abs(mean - expected):.4f} > 0.005)")
    _check(f"criterion 3 ({network})", failures)


# -- criterion 4: oracle equivalence ------------------------------------------------


@pytest.mark.parametrize("n", [5, 10, 20, 30])
def test_criterion_4_oracle_equivalence(n):
    mismatch_count = 0
    first = None
    for edge_prob in (0.2, 0.5):
        for neg_prob in (0.0, 0.3, 0.7):
            for seed in range(100):
                graph = random_signed_digraph(n, edge_prob, neg_prob, seed)
                mismatches = compare_with_oracle(graph)
                if mismatches:
                    mismatch_count += 1
                    first = first or (n, edge_prob, neg_prob, seed, mismatches[0])
    failures = []
    if mismatch_count:
        failures.append(f"{mismatch_count} graphs disagree with the oracle; "
                        f"first: {first}")
    _check(f"criterion 4 (oracle equivalence, n={n})", failures)


# -- criterion 5: property batch ----------------------------------------------------


def test_criterion_5_property_suite():
    failures = []
    for seed in range(10):
        n = 12 + (seed % 3)
        g = random_signed_digraph(n, 0.4, 0.4, seed)

        if census(g).total() != comb(n, 3):
            failures.append(f"census total != C({n},3) at seed {seed}")

        for triad in tb.enumerate_triads(g):
            if len(triad.triples) != tb.TRIPLES_PER_TYPE.get(triad.type, 0):
                failures.append(f"triple count for {triad.type} at seed {seed}")
                break

        flipped = tb.SignedDigraph([(u, v, -s) for u, v, s in g.edge_items()],
                                   nodes=g.ids)
        a = tb.composition_directed(g)
        b = tb.composition_directed(flipped)
        if (a.counts["+++"] != b.counts["---"]
                or a.counts["+--"] != b.counts["++-"]
                or a.total != b.total):
            failures.append(f"sign-flip composition mapping at seed {seed}")
        if a.total and abs(sum(a.proportions.values()) - 1.0) > 1e-9:
            failures.append(f"proportions do not sum to 1 at seed {seed}")

        try:
            triad_mean = tb.overall_balance(g, "triad-mean")
            if tb.nonpartial_balance(g)[0] > triad_mean + 1e-12:
                failures.append(f"nonpartial > triad-mean at seed {seed}")
        except UndefinedResultError:
            pass

        positive = tb.SignedDigraph([(u, v, 1) for u, v, s in g.edge_items()],
                                    nodes=g.ids)
        try:
            modes = (tb.overall_balance(positive, "type-mean"),
                     tb.overall_balance(positive, "triad-mean"),
                     tb.nonpartial_balance(positive)[0])
            if any(m != 1.0 for m in modes):
                failures.append(f"all-positive graph scored {modes} at seed {seed}")
            und = tb.undirected_balance(positive)
            if und[0] and und[3] != 1.0:
                failures.append(f"all-positive undirected ratio {und[3]}")
        except UndefinedResultError:
            pass
    _check("criterion 5 (property suite)", failures)


# -- criterion 6: undirected projection rules ---------------------------------------


def test_criterion_6_projection_rules():
    failures = []
    g = tb.SignedDigraph([("u", "v", 1), ("v", "u", 1)])
    if tb.project_undirected(g).sign_of("u", "v") != 1:
        failures.append("agreeing reciprocal pair not kept")

    g = tb.SignedDigraph([("u", "v", 1), ("v", "u", -1)])
    if tb.project_undirected(g).has_edge("u", "v"):
        failures.append("mismatched reciprocal pair not cancelled")

    g = tb.SignedDigraph([("u", "v", -1)])
    if tb.project_undirected(g).sign_of("u", "v") != -1:
        failures.append("one-directional edge not kept")

    # a directed 3-cycle forms an undirected triangle but no transitive triad
    cycle_plus = tb.SignedDigraph([
        ("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
        ("c", "d", 1), ("d", "e", 1), ("c", "e", 1),
    ])
    doc = compare_report(cycle_plus)
    if ["a", "b", "c"] not in doc["undirected_only_triangles"]:
        failures.append("3-cycle triangle missing from the undirected-only list")
    if doc["undirected"]["triangles"] != 2:
        failures.append(f"expected 2 projected triangles, got "
                        f"{doc['undirected']['triangles']}")
    transitive = [t for t in tb.enumerate_triads(cycle_plus)
                  if t.type in tb.TRANSITIVE_TYPES]
    if len(transitive) != 1 or transitive[0].nodes != ("c", "d", "e"):
        failures.append("inflation fixture should contain exactly one "
                        "transitive triad (c, d, e)")
    _check("criterion 6 (projection rules)", failures)


# -- criterion 7: performance gate ---------------------------------------------------


def _perf_graph() -> tb.SignedDigraph:
    n = 5000
    return random_signed_digraph(n, 35000 / (n * (n - 1)), 0.3, seed=42)


def test_criterion_7_single_thread_enumeration():
    graph = _perf_graph()
    start = time.perf_counter()
    census(graph, workers=1)
    elapsed = time.perf_counter() - start
    failures = []
    if elapsed >= 10.0:
        failures.append(f"single-threaded enumeration took {elapsed:.1f}s >= 10s")
    _check("criterion 7 (single-threaded runtime)", failures)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason=f"4-worker scaling needs >= 4 CPUs; host reports "
                           f"{os.cpu_count()}")
def test_criterion_7_parallel_speedup():
    graph = _perf_graph()
    # a fresh copy keeps no pass, so each call makes its own
    serial = min(timeit.repeat(lambda: census(copy.copy(graph), workers=1),
                               number=1, repeat=3))
    parallel = min(timeit.repeat(lambda: census(copy.copy(graph), workers=4),
                                 number=1, repeat=3))
    speedup = serial / parallel
    failures = []
    if speedup < 2.0:
        failures.append(f"speedup {speedup:.2f}x < 2x at 4 workers "
                        f"(serial {serial:.2f}s, parallel {parallel:.2f}s)")
    _check("criterion 7 (4-worker speedup)", failures)
