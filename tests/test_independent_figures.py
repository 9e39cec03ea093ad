"""Every report of an `analyze` run on graphs above the brute-force oracle's
size limit, against figures derived without the program's code.

`bench/expect.py` redoes preprocessing with numpy and scipy, takes census,
balance, composition and projection figures from sparse-matrix identities
over the adjacency, and the path length from a blocked breadth-first search;
`bench/workloads.py` writes the seeded inputs.  Both are loaded by path.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from triadbalance import cli
from triadbalance.oracle import ORACLE_MAX_NODES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


expect = _load("expect")
workloads = _load("workloads")



def _holme_kim(n: int, links: int, rng) -> np.ndarray:
    """The undirected links (a < b) of a Holme-Kim growth graph on 0..n-1:
    a clique on the first `links + 1` nodes, then each new node links to
    `links` earlier ones, the first chosen by preferential attachment and
    each next one, with probability 0.8, among the neighbours of the one
    before (triad formation).  So every node has `links` neighbours or
    more."""
    neighbours = [set(range(links + 1)) - {i} for i in range(links + 1)]
    urn = [i for i in range(links + 1) for _ in range(links)]
    for t in range(links + 1, n):
        chosen = [urn[rng.integers(len(urn))]]
        while len(chosen) < links:
            friends = sorted(neighbours[chosen[-1]].difference(chosen))
            if friends and rng.random() < 0.8:
                pick = friends[rng.integers(len(friends))]
            else:
                pick = urn[rng.integers(len(urn))]
            if pick not in chosen:
                chosen.append(pick)
        neighbours.append(set(chosen))
        for v in chosen:
            neighbours[v].add(t)
        urn += chosen + [t] * links
    return np.array([(a, b) for a in range(n) for b in sorted(neighbours[a])
                     if a < b], dtype=np.int64)


def _signed(links: np.ndarray, reciprocal: float, rng) -> np.ndarray:
    """Rows (source, target, sign): one edge per link in a random direction,
    negative with probability 0.3, and with probability `reciprocal` the
    reverse edge too, of the opposite sign one time in five."""
    flip = rng.random(len(links)) < 0.5
    src = np.where(flip, links[:, 1], links[:, 0])
    dst = np.where(flip, links[:, 0], links[:, 1])
    sign = np.where(rng.random(len(links)) < 0.3, -1, 1)
    back = rng.random(len(links)) < reciprocal
    back_sign = np.where(rng.random(len(links)) < 0.2, -sign, sign)
    return np.concatenate([np.column_stack((src, dst, sign)),
                           np.column_stack((dst, src, back_sign))[back]])


def _dropping_records(seed: int) -> tuple[np.ndarray, dict]:
    """Records that lose nodes at every preprocessing step, and the
    generator's own count of what it planted.

    Component A is a clustered 1200-node core (three neighbours or more
    each, so pruning leaves it whole) carrying pendant trees and chains.
    Component B is a clustered core of A's size, so the size tie goes to
    the component holding the smallest id, "0", which is put in A.  Smaller
    side components come with them.  On top of the edges: repeated records
    that keep their sign, zero-sum records on pairs without an edge, and
    self-loops, some of them on ids that have no other record, which
    `build_graph` drops.  Ids are the node numbers, shuffled."""
    rng = np.random.default_rng(seed)
    core = 1200
    # pendant trees: each node hangs off the core, starting a tree, or off
    # an earlier pendant node
    parents = [int(rng.integers(core)) if t == 0 or rng.random() < 0.15
               else core + int(rng.integers(t)) for t in range(2400)]
    pendants = list(zip(range(core, core + 2400), parents))
    n = core + 2400
    chain_lengths = rng.integers(5, 10, size=12).tolist()
    for length in chain_lengths:
        nodes = [int(rng.integers(core)), *range(n, n + length)]
        pendants += zip(nodes[1:], nodes[:-1])
        n += length
    a_size = n
    parts = [_signed(_holme_kim(core, 3, rng), 0.3, rng),
             _signed(np.array(pendants, dtype=np.int64), 0.0, rng)]
    for size in (a_size, 5, 8, 12, 12, 30):
        parts.append(_signed(_holme_kim(size, 2 + (size > 5), rng) + n, 0.3,
                             rng))
        n += size
    edges = np.concatenate(parts)
    linked = set(map(tuple, edges[:, :2].tolist()))
    pairs = dict.fromkeys(p for p in map(tuple, rng.integers(
        core, size=(400, 2)).tolist()) if p[0] != p[1] and p not in linked)
    alone = np.arange(n, n + 60)
    n += 60
    zero_sum = np.array(list(pairs)[:200], dtype=np.int64)
    zero_sum = np.concatenate([zero_sum, alone[:40].reshape(-1, 2)])
    loops = np.concatenate([rng.choice(core, 100, replace=False), alone[40:]])
    repeated = edges[rng.choice(len(edges), 300, replace=False)]
    one = np.ones((len(zero_sum), 1), dtype=np.int64)
    records = np.concatenate([
        edges, repeated, repeated * [1, 1, -1],
        np.hstack((zero_sum, one)), np.hstack((zero_sum, -one)),
        np.column_stack((loops, loops, np.ones_like(loops)))])
    labels = rng.permutation(n)
    at = int(np.flatnonzero(labels == 0)[0])
    labels[[0, at]] = labels[[at, 0]]
    records[:, :2] = labels[records[:, :2]]
    parent_set = set(parents)
    book = {"ids": n, "edgeless": len(alone),
            "edges": len(edges), "a_size": a_size, "b_size": a_size,
            "side": n - len(alone) - a_size, "kept": core,
            "kept_edges": len(parts[0]),
            "leaves": sum(1 for t in range(2400) if core + t not in parent_set),
            "longest_chain": max(chain_lengths), "zero_sum": len(zero_sum),
            "self_loops": len(loops)}
    return records[rng.permutation(len(records))], book


GRAPHS = {
    "random": lambda seed: (
        workloads.random_edges(2000, 7 / 1999, 0.3, seed), None),
    # reciprocal pairs of opposite signs cancel in the projection, and
    # cyclic triangles are projected without a transitive triple
    "hubs": lambda seed: (
        workloads.hub_edges(2000, 8, 0.10, 0.3, 0.2, 8, seed), None),
    # every preprocessing step drops nodes, on frontiers of a thousand or more
    "drops": _dropping_records,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_analyze_matches_independent_figures(tmp_path, name):
    data = tmp_path / f"{name}.tsv"
    records, book = GRAPHS[name](42)
    workloads.write_tsv(records, data)
    prepared = expect.prepare(data)
    figures = expect.figures(prepared, True)
    assert figures["nodes"] > ORACLE_MAX_NODES
    if name == "hubs":
        assert figures["cancelled"] and figures["undirected_only"]
    if book:
        # build_graph drops the ids without an edge, component selection
        # the side components and B, and pruning every pendant of A
        assert book["edgeless"] and book["zero_sum"] and book["self_loops"]
        assert prepared.before == (book["ids"] - book["edgeless"],
                                   book["edges"])
        assert prepared.before[0] == book["a_size"] + book["side"]
        assert book["a_size"] == book["b_size"]
        assert book["leaves"] > 1000 and book["longest_chain"] >= 5
        assert (figures["nodes"], figures["edges"]) == (book["kept"],
                                                        book["kept_edges"])
    out = tmp_path / "out"
    assert cli.run(cli.RunConfig(input_path=str(data), out_dir=str(out))) == 0
    assert expect.check_run(out, prepared, figures, cli.ANALYSES) == []
