"""Brute-force reference implementations used to validate the fast paths.

Everything here works by exhaustive O(n^3) scans, an explicit
canonical-pattern table and plain breadth-first searches, deliberately
sharing no classification, enumeration, projection or traversal code with
the production modules: the graph is read only through its edge list.
Determinism beats speed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations
from math import fsum

import numpy as np

from .graphs import SignedDigraph

ORACLE_MAX_NODES = 200

_BITPOS = {(0, 1): 0, (1, 0): 1, (0, 2): 2, (2, 0): 3, (1, 2): 4, (2, 1): 5}

#: explicit representative edge patterns for the 16 triad classes
_PATTERNS = {
    "003": (),
    "012": ((0, 1),),
    "102": ((0, 1), (1, 0)),
    "021D": ((1, 0), (1, 2)),
    "021U": ((0, 1), (2, 1)),
    "021C": ((0, 1), (1, 2)),
    "111D": ((0, 1), (1, 0), (2, 1)),
    "111U": ((0, 1), (1, 0), (1, 2)),
    "030T": ((0, 1), (1, 2), (0, 2)),
    "030C": ((0, 1), (1, 2), (2, 0)),
    "201": ((0, 1), (1, 0), (1, 2), (2, 1)),
    "120D": ((1, 0), (1, 2), (0, 2), (2, 0)),
    "120U": ((0, 1), (2, 1), (0, 2), (2, 0)),
    "120C": ((0, 1), (1, 2), (0, 2), (2, 0)),
    "210": ((0, 1), (1, 2), (2, 1), (0, 2), (2, 0)),
    "300": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}

_TRANSITIVE = ("030T", "120D", "120U", "300")


def _canonical(edges) -> int:
    """Smallest 6-bit code over all relabelings of the three nodes."""
    best = 63
    for perm in permutations((0, 1, 2)):
        code = 0
        for s, t in edges:
            code |= 1 << _BITPOS[(perm[s], perm[t])]
        best = min(best, code)
    return best


_CANON_CLASS = {_canonical(edges): label for label, edges in _PATTERNS.items()}
assert len(_CANON_CLASS) == 16, "triad patterns must be pairwise non-isomorphic"


@dataclass
class OracleResult:
    census: dict
    triads: list  # (nodes, type, tuple of triple sign tuples)
    type_balance: dict  # type -> (triad_count, balanced_triples, total_triples)
    overall_type_mean: float | None
    overall_triad_mean: float | None
    nonpartial: tuple | None  # (ratio, balanced, imbalanced)
    undirected: tuple  # (triangles, balanced, imbalanced, ratio-or-None)
    composition_directed: dict
    composition_undirected: dict
    avg_path_length: float | None  # on the largest weak component


def _distances(adjacent: dict, start) -> dict:
    """Hop distance from `start` to every node it reaches."""
    distance = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacent[u]:
            if v not in distance:
                distance[v] = distance[u] + 1
                queue.append(v)
    return distance


def _avg_path_length(graph: SignedDigraph) -> float | None:
    """Mean hop distance over the ordered pairs of the largest weakly
    connected component, size ties going to the smallest minimum id;
    None below two nodes."""
    adjacent = {v: set() for v in graph.ids}
    for u, v, _ in graph.edge_items():
        adjacent[u].add(v)
        adjacent[v].add(u)
    components = []
    seen: set = set()
    for v in graph.ids:
        if v not in seen:
            components.append(list(_distances(adjacent, v)))
            seen.update(components[-1])
    giant = min(components, key=lambda c: (-len(c), min(c)), default=[])
    if len(giant) < 2:
        return None
    total = sum(sum(_distances(adjacent, v).values()) for v in giant)
    return total / (len(giant) * (len(giant) - 1))


def brute_force(graph: SignedDigraph) -> OracleResult:
    """Exhaustive evaluation of every census and balance figure."""
    n = graph.n_nodes
    if n > ORACLE_MAX_NODES:
        raise ValueError(f"oracle refuses graphs with more than "
                         f"{ORACLE_MAX_NODES} nodes (got {n})")
    sign = {(u, v): s for u, v, s in graph.edge_items()}
    ids = graph.ids  # sorted, so combinations come in index order

    census: dict[str, int] = {}
    triads = []
    type_counts = {t: 0 for t in _TRANSITIVE}
    type_balanced = {t: 0 for t in _TRANSITIVE}
    type_total = {t: 0 for t in _TRANSITIVE}
    ratios = []
    completely = 0
    comp_dir = {"+++": 0, "+--": 0, "++-": 0, "---": 0}
    comp_by_neg = ("+++", "++-", "+--", "---")

    for a, b, c in combinations(ids, 3):
        local = []
        for x, y in permutations((a, b, c), 2):
            if (x, y) in sign:
                mapping = {a: 0, b: 1, c: 2}
                local.append((mapping[x], mapping[y]))
        label = _CANON_CLASS[_canonical(local)]
        census[label] = census.get(label, 0) + 1
        connected_dyads = sum(
            1 for x, y in ((a, b), (a, c), (b, c))
            if (x, y) in sign or (y, x) in sign)
        if connected_dyads < 2:
            continue
        sign_lists = []
        if label in _TRANSITIVE:
            balanced = 0
            for s, m, t in permutations((a, b, c)):
                if (s, m) in sign and (m, t) in sign and (s, t) in sign:
                    signs = (sign[(s, m)], sign[(m, t)], sign[(s, t)])
                    sign_lists.append(signs)
                    negatives = sum(1 for v in signs if v < 0)
                    comp_dir[comp_by_neg[negatives]] += 1
                    if negatives % 2 == 0:
                        balanced += 1
            total = len(sign_lists)
            type_counts[label] += 1
            type_balanced[label] += balanced
            type_total[label] += total
            ratios.append(balanced / total)
            if balanced == total:
                completely += 1
        triads.append(((a, b, c), label, tuple(sign_lists)))

    type_balance = {t: (type_counts[t], type_balanced[t], type_total[t])
                    for t in _TRANSITIVE}
    present = [type_balanced[t] / type_total[t]
               for t in _TRANSITIVE if type_counts[t]]
    overall_type_mean = fsum(present) / len(present) if present else None
    overall_triad_mean = fsum(ratios) / len(ratios) if ratios else None
    nonpartial = ((completely / len(ratios), completely,
                   len(ratios) - completely) if ratios else None)

    # the projection: a pair keeps the sign its edges agree on and cancels
    # when a reciprocal pair disagrees
    psign = {}
    for a, b in combinations(ids, 2):
        signs = {sign[p] for p in ((a, b), (b, a)) if p in sign}
        if len(signs) == 1:
            psign[(a, b)] = signs.pop()
    tri = bal = 0
    comp_und = {"+++": 0, "+--": 0, "++-": 0, "---": 0}
    for i, j, k in combinations(ids, 3):
        pairs = ((i, j), (i, k), (j, k))
        if all(p in psign for p in pairs):
            tri += 1
            negatives = sum(1 for p in pairs if psign[p] < 0)
            comp_und[comp_by_neg[negatives]] += 1
            if psign[pairs[0]] * psign[pairs[1]] * psign[pairs[2]] > 0:
                bal += 1
    undirected = (tri, bal, tri - bal, (bal / tri) if tri else None)

    return OracleResult(
        census=census,
        triads=triads,
        type_balance=type_balance,
        overall_type_mean=overall_type_mean,
        overall_triad_mean=overall_triad_mean,
        nonpartial=nonpartial,
        undirected=undirected,
        composition_directed=comp_dir,
        composition_undirected=comp_und,
        avg_path_length=_avg_path_length(graph),
    )


def random_signed_digraph(n: int, edge_prob: float, neg_prob: float,
                          seed: int) -> SignedDigraph:
    """Random signed digraph with independent ordered-pair edges.

    Uses the PCG64 generator with a fixed draw order (one uniform row per
    source node, then one uniform per selected edge for the sign), so a
    given (n, edge_prob, neg_prob, seed) always yields the same graph.
    """
    if n < 0:
        raise ValueError(f"node count must be non-negative, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not (0 <= edge_prob <= 1 and 0 <= neg_prob <= 1):
        raise ValueError("probabilities must be within [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = []
    for u in range(n):
        mask = rng.random(n) < edge_prob
        mask[u] = False
        targets = np.flatnonzero(mask)
        if len(targets):
            negative = rng.random(len(targets)) < neg_prob
            u_id = str(u)
            for v, neg in zip(targets.tolist(), negative.tolist()):
                edges.append((u_id, str(v), -1 if neg else 1))
    return SignedDigraph(edges, nodes=(str(i) for i in range(n)))
