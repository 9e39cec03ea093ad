"""Metamorphic checks of the triangle pass and the analyze run on a graph
far above the brute-force oracle's size limit.

Switching (Cartwright & Harary 1956) negates every edge with exactly one end
in a node set.  Every triangle crosses the cut on zero or two of its pairs,
so the parity of negative edges in each transitive triple, and the sign
product of each projected triangle, stay the same; a reciprocal pair
crosses the cut as a whole, so its sign mismatch stays too.  Relabelling
node ids changes the id order, hence every index, the degree-rank ties and
the chunking of the pass, but no figure.  Shuffling the records of a
csv-rating input changes no figure under the sum and mean rules, and under
last-record only the signs of the pairs whose last rating moved.
"""
import json

import numpy as np
import pytest

from triadbalance import (PreprocessConfig, SignedDigraph, build_graph,
                          load_edge_records, scan_triads)
from triadbalance.cli import RunConfig, main, run


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
    for name in ("census", "open_wedges", "mutual", "type_balanced",
                 "classification", "cancelled", "undirected_only",
                 "node_triangles"):
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


def _rating_lines(seed: int) -> list[str]:
    """csv-rating lines with one to four parallel records per ordered pair.

    Ratings are integers in [-10, 10], so their float sums are exact in any
    order; `1e16, -1e16, 1` sums to 1 but `1, 1e16, -1e16` to 0.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(60):
        for v in rng.choice(60, 6, replace=False).tolist():
            if u != v:
                lines += [f"n{u},n{v},{r}" for r in
                          rng.integers(-10, 11, rng.integers(1, 5)).tolist()]
    return lines


def _shuffled(lines: list[str]) -> list[str]:
    return [lines[i] for i in np.random.default_rng(22).permutation(len(lines))]


@pytest.mark.parametrize("rule", ["sum", "mean"])
def test_record_order_changes_no_report(tmp_path, rule):
    lines = _rating_lines(21)
    data = tmp_path / "net.csv"
    files = {}
    for label, order in (("given", lines), ("shuffled", _shuffled(lines))):
        data.write_text("\n".join(order) + "\n", encoding="utf-8")
        out = tmp_path / label
        assert main(["analyze", "--input", str(data), "--format", "csv-rating",
                     "--aggregate", rule, "--out", str(out)]) == 0
        files[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    given, shuffled = files["given"], files["shuffled"]
    manifests = [json.loads(f.pop("manifest.json")) for f in (given, shuffled)]
    assert manifests[0]["input"].pop("sha256") != \
        manifests[1]["input"].pop("sha256")
    for manifest in manifests:
        del manifest["created"]
    assert manifests[0] == manifests[1]
    assert sorted(given) == sorted(shuffled)
    for name in given:
        assert given[name] == shuffled[name], name


def test_last_record_order_moves_only_pairs_whose_last_rating_moved():
    lines = _rating_lines(21)

    def signs(order):
        graph = build_graph(
            load_edge_records("\n".join(order).encode(), "csv-rating"),
            PreprocessConfig(aggregate_rule="last-record"))
        return {(u, v): s for u, v, s in graph.edge_items()}

    def last(order):
        return {(u, v): r for u, v, r in (line.split(",") for line in order)}

    shuffled = _shuffled(lines)
    was, now = signs(lines), signs(shuffled)
    after = last(shuffled)
    moved = {pair for pair, r in last(lines).items() if after[pair] != r}
    assert any(was.get(pair) != now.get(pair) for pair in moved)
    for pair in set(was) | set(now):
        if pair not in moved:
            assert was.get(pair) == now.get(pair), pair
