"""Seeded input generators for the benchmark workloads.

The program only ever sees the TSV files written here.  Every generator
draws from PCG64 in a fixed order, so one seed always gives one input.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_edges(n: int, edge_prob: float, neg_prob: float,
                 seed: int) -> np.ndarray:
    """Independent ordered-pair edges, as rows (source, target, sign).

    Same draws in the same order as `triadbalance.oracle.random_signed_digraph`
    (one uniform row per source node, then one uniform per selected edge for
    the sign), so equal arguments give the same graph.
    """
    rng = _rng(seed)
    parts = []
    for u in range(n):
        mask = rng.random(n) < edge_prob
        mask[u] = False
        targets = np.flatnonzero(mask)
        if len(targets):
            negative = rng.random(len(targets)) < neg_prob
            parts.append(np.column_stack((np.full(len(targets), u), targets,
                                          np.where(negative, -1, 1))))
    if not parts:
        return np.zeros((0, 3), dtype=np.int64)
    return np.concatenate(parts).astype(np.int64)


def hub_edges(n: int, out_degree: int, recip_prob: float, neg_prob: float,
              mismatch_prob: float, attach_offset: int,
              seed: int) -> np.ndarray:
    """Preferential-attachment digraph with reciprocated and mismatched pairs.

    Node t links to min(t, out_degree) distinct earlier nodes, each chosen
    with probability proportional to its in-degree plus `attach_offset`, so
    early nodes become hubs.  Each link is reciprocated with `recip_prob`;
    a reciprocal edge takes the opposite sign with `mismatch_prob`, which
    makes the undirected projection cancel that pair.  Draws per node, in
    order: target indices (repeated until enough distinct ones), then one
    uniform per link for its sign, its reciprocation and the reciprocal's
    sign mismatch.
    """
    rng = _rng(seed)
    urn = np.empty(n * attach_offset + 2 * n * out_degree, dtype=np.int64)
    size = 0
    rows = []
    for t in range(n):
        k = min(t, out_degree)
        if k:
            chosen: list[int] = []
            while len(chosen) < k:
                for v in urn[rng.integers(0, size, size=k)].tolist():
                    if v not in chosen and len(chosen) < k:
                        chosen.append(v)
            targets = np.array(chosen, dtype=np.int64)
            signs = np.where(rng.random(k) < neg_prob, -1, 1)
            recip = rng.random(k) < recip_prob
            flip = rng.random(k) < mismatch_prob
            rows.append(np.column_stack((np.full(k, t), targets, signs)))
            back = targets[recip]
            rows.append(np.column_stack((back, np.full(len(back), t),
                                         np.where(flip[recip], -signs[recip],
                                                  signs[recip]))))
            urn[size:size + k] = targets
            size += k
            urn[size:size + len(back)] = t
            size += len(back)
        urn[size:size + attach_offset] = t
        size += attach_offset
    return np.concatenate(rows).astype(np.int64)


def write_tsv(edges: np.ndarray, path: Path) -> None:
    """Write edges as `source TAB target TAB sign` lines."""
    lines = [f"{u}\t{v}\t{s}\n" for u, v, s in edges.tolist()]
    path.write_text("".join(lines), encoding="utf-8")


NAMES = ("gate", "hubs", "batch")
ALL_ANALYSES = ("census", "balance", "composition", "metrics",
                "undirected-compare")
#: hubs leaves out the dense all-pairs path length, so a path-length change
#: must leave it unchanged
NO_METRICS = ("census", "balance", "composition", "undirected-compare")
HIGHLAND = Path("data") / "highland" / "highland_tribes.tsv"


def make_jobs(workload: str, seed: int, small: bool, root: Path,
              work: Path) -> list[dict]:
    """Write the workload's inputs under `work`; one job per input.

    gate:  random digraph, n=3000, m~21k (mean out-degree 7), 30% negative,
           all analyses at one worker.
    hubs:  preferential attachment, n=6000, out-degree 8, 10% reciprocated,
           a fifth of reciprocal pairs with mismatched signs; no metrics,
           two workers.
    batch: the bundled highland network plus 119 random graphs of 40-200
           nodes and mean total degree 8, all analyses at the CLI default
           worker count.
    `small` shrinks every workload for the self-test.
    """
    jobs = []

    def add(name: str, edges: np.ndarray, analyses, workers) -> None:
        path = work / f"{name}.tsv"
        write_tsv(edges, path)
        jobs.append({"name": name, "input": str(path),
                     "analyses": list(analyses), "workers": workers})

    if workload == "gate":
        n = 400 if small else 3000
        add("gate", random_edges(n, 7 * n / (n * (n - 1)), 0.3, seed),
            ALL_ANALYSES, 1)
    elif workload == "hubs":
        add("hubs", hub_edges(1000 if small else 6000, 8, 0.10, 0.3, 0.2, 8,
                              seed), NO_METRICS, 2)
    elif workload == "batch":
        jobs.append({"name": "highland", "input": str(root / HIGHLAND),
                     "analyses": list(ALL_ANALYSES), "workers": None})
        rng = _rng(seed)
        for i in range(8 if small else 119):
            n = int(rng.integers(40, 201))
            sub_seed = int(rng.integers(0, 2 ** 32))
            add(f"batch{i:03d}", random_edges(n, 4 / (n - 1), 0.3, sub_seed),
                ALL_ANALYSES, None)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
