"""Metamorphic checks of the triangle pass and the analyze run on a graph
far above the brute-force oracle's size limit.

Switching (Cartwright & Harary 1956) negates every edge with exactly one end
in a node set.  Every triangle crosses the cut on zero or two of its pairs,
so the parity of negative edges in each transitive triple, and the sign
product of each projected triangle, stay the same; a reciprocal pair
crosses the cut as a whole, so its sign mismatch stays too.  Relabelling
node ids changes the id order, hence every index, the degree-rank ties and
the chunking of the pass, but no figure.
"""
import json

import numpy as np
import pytest

from triadbalance import SignedDigraph, scan_triads
from triadbalance.cli import RunConfig, run


def _hub_edges(n: int, out_degree: int, seed: int) -> dict:
    """(source, target) -> sign of a seeded preferential-attachment digraph.

    Node t links to min(t, out_degree) earlier nodes drawn in proportion to
    their in-degree plus one, so early nodes become hubs; 30% of the links
    are negative, 15% are reciprocated, and a third of the reciprocal edges
    take the opposite sign.
    """
    rng = np.random.default_rng(seed)
    urn: list[int] = []
    signs = {}
    for t in range(n):
        targets: set[int] = set()
        while len(targets) < min(t, out_degree):
            targets.update(urn[i] for i in rng.integers(0, len(urn), 8))
        chosen = sorted(targets)[:out_degree]
        draws = rng.random((len(chosen), 3)).tolist()
        for v, (negative, reciprocated, mismatched) in zip(chosen, draws):
            sign = -1 if negative < 0.3 else 1
            signs[(t, v)] = sign
            if reciprocated < 0.15:
                signs[(v, t)] = -sign if mismatched < 1 / 3 else sign
                urn.append(t)
            urn.append(v)
        urn.append(t)
    return signs


@pytest.fixture(scope="module")
def hub_signs() -> dict:
    return _hub_edges(3000, 8, seed=11)


def test_switching_keeps_balance(hub_signs):
    rng = np.random.default_rng(12)
    side = rng.random(3000) < 0.5
    graph = SignedDigraph((str(u), str(v), s)
                          for (u, v), s in hub_signs.items())
    switched = SignedDigraph((str(u), str(v), -s if side[u] != side[v] else s)
                             for (u, v), s in hub_signs.items())
    before, after = scan_triads(graph), scan_triads(switched)
    assert before.cancelled and before.undirected_only
    for name in ("census", "open_wedges", "mutual", "type_triads",
                 "type_balanced", "classification", "cancelled",
                 "undirected_only", "node_triangles"):
        assert getattr(after, name) == getattr(before, name), name

    def projected(tallies):
        und = tallies.undirected
        return und["+++"] + und["+--"], und["++-"] + und["---"]
    assert projected(after) == projected(before)
    # the switch does move triples between composition bins
    assert after.composition != before.composition


def _tsv(signs: dict, name) -> str:
    return "".join(f"{name[u]}\t{name[v]}\t{s}\n"
                   for (u, v), s in sorted(signs.items()))


def test_relabelling_changes_no_figure(tmp_path, hub_signs):
    signs = dict(hub_signs)
    # two small components, so the giant is chosen, and uniquely
    for a in (3000, 3003):
        signs.update({(a, a + 1): 1, (a + 1, a + 2): -1, (a, a + 2): 1})
    nodes = range(3006)
    old = {u: str(u) for u in nodes}
    rng = np.random.default_rng(13)
    new = {u: f"n{k:x}" for u, k in zip(nodes, rng.permutation(10**5)[:3006])}
    back = {new[u]: old[u] for u in nodes}
    docs = {}
    for label, name in (("old", old), ("new", new)):
        data = tmp_path / label / "net.tsv"
        data.parent.mkdir()
        data.write_text(_tsv(signs, name), encoding="utf-8")
        out = tmp_path / label / "out"
        assert run(RunConfig(input_path=str(data), out_dir=str(out),
                             analyses=("census", "balance", "composition",
                                       "undirected-compare"))) == 0
        docs[label] = {stem: json.loads((out / f"{stem}.json").read_text())
                       for stem in ("census", "balance", "composition",
                                    "compare", "manifest")}
        docs[label]["graph"] = (out / "graph.tsv").read_text().splitlines()
    was, now = docs["old"], docs["new"]
    for stem in ("census", "balance", "composition"):
        assert now[stem] == was[stem], stem
    assert now["manifest"]["counts"] == was["manifest"]["counts"]
    assert was["manifest"]["counts"]["before"]["nodes"] == 3006

    def mapped(rows):
        return sorted(sorted(back[i] for i in row) for row in rows)
    for key in ("cancelled_edges", "undirected_only_triangles"):
        assert mapped(now["compare"].pop(key)) == \
            sorted(map(sorted, was["compare"].pop(key)))
    assert now["compare"] == was["compare"]

    rows = (line.split("\t") for line in now["graph"])
    assert sorted((back[u], back[v], s) for u, v, s in rows) == sorted(
        tuple(line.split("\t")) for line in was["graph"])
