"""Expected outputs of one `analyze` run, derived without the program's code.

Preprocessing is redone with numpy and scipy.  Census, balance, composition
and projection figures come from sparse-matrix identities over the
preprocessed adjacency, and the average path length from a blocked
breadth-first search, so a defect in the program's enumeration, projection
or metrics code cannot hide in the reference.  `check_run` compares a
report directory against these figures.

Notation: A is the 0/1 adjacency, M = A o A^T the mutual dyads, D = A - M
the asymmetric ones, Ms and Md the mutual dyads whose two signs agree or
differ.  For masks X, Y, Z the sum of (X.Y) o Z counts the ordered triples
(s, m, t) with s-m in X, m-t in Y and s-t in Z; each triad class has a
fixed number of such triples (030T: DD o D once, 120D: DM o D twice, ...).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

#: weight of a negative edge in encoded products; a positive edge weighs 1,
#: so an entry of the product reads c0 + c1*B + c2*B^2 by negative count
B = 1 << 20
COMPOSITION_BY_NEG = ("+++", "++-", "+--", "---")
TRANSITIVE = ("030T", "120D", "120U", "300")
TRIPLES_PER_TYPE = {"030T": 1, "120D": 2, "120U": 2, "300": 6}
CENSUS_TYPES = ("003", "012", "102", "021D", "021U", "021C", "111D", "111U",
                "030T", "030C", "201", "120D", "120U", "120C", "210", "300")
#: (mutual, asymmetric) dyads per class, for the disconnected complements
_DYADS = {"021D": (0, 2), "021U": (0, 2), "021C": (0, 2), "111D": (1, 1),
          "111U": (1, 1), "030T": (0, 3), "030C": (0, 3), "201": (2, 0),
          "120D": (1, 2), "120U": (1, 2), "120C": (1, 2), "210": (2, 1),
          "300": (3, 0)}
REL_TOL = 1e-9


@dataclass
class Prepared:
    """Independently preprocessed graph: sorted ids, edges as index arrays."""

    ids: list
    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    records: int
    before: tuple
    dump_sha256: str


def _giant(n: int, src: np.ndarray, dst: np.ndarray,
           alive: np.ndarray) -> np.ndarray:
    """Largest weak component among alive nodes; size ties go to the
    component holding the smallest id (ids are indexed in sorted order)."""
    if not alive.any():
        return alive
    keep = alive[src] & alive[dst]
    graph = csr_matrix((np.ones(int(keep.sum())), (src[keep], dst[keep])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="weak")
    sizes = np.bincount(labels[alive])
    best = sizes.max()
    nodes = np.flatnonzero(alive)
    label = labels[nodes[sizes[labels[nodes]] == best].min()]
    return alive & (labels == label)


def prepare(path: Path) -> Prepared:
    """Default preprocessing: sum parallel records, sign by threshold 0, drop
    self-loops and neutral pairs, keep the giant weak component, prune
    nodes of total degree <= 1 to a fixed point, keep the giant again."""
    agg: dict = {}
    records = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            u, v, w = line.rstrip("\r\n").split("\t")
            records += 1
            u, v = u.strip(), v.strip()
            if u != v:
                agg[(u, v)] = agg.get((u, v), 0.0) + float(w)
    edges = [(u, v, 1 if w > 0 else -1) for (u, v), w in agg.items() if w != 0]
    ids = sorted({x for u, v, _ in edges for x in (u, v)})
    index = {x: i for i, x in enumerate(ids)}
    n = len(ids)
    src = np.array([index[u] for u, _, _ in edges], dtype=np.int64)
    dst = np.array([index[v] for _, v, _ in edges], dtype=np.int64)
    sign = np.array([s for _, _, s in edges], dtype=np.int64)
    before = (n, len(edges))

    alive = _giant(n, src, dst, np.ones(n, dtype=bool))
    while True:
        keep = alive[src] & alive[dst]
        degree = (np.bincount(src[keep], minlength=n)
                  + np.bincount(dst[keep], minlength=n))
        drop = alive & (degree <= 1)
        if not drop.any():
            break
        alive &= ~drop
    alive = _giant(n, src, dst, alive)

    keep = alive[src] & alive[dst]
    relabel = np.cumsum(alive) - 1
    src, dst, sign = relabel[src[keep]], relabel[dst[keep]], sign[keep]
    order = np.lexsort((dst, src))
    src, dst, sign = src[order], dst[order], sign[order]
    ids = [x for x, a in zip(ids, alive.tolist()) if a]
    dump = "".join(f"{ids[u]}\t{ids[v]}\t{s:+d}\n"
                   for u, v, s in zip(src.tolist(), dst.tolist(), sign.tolist()))
    return Prepared(ids, src, dst, sign, records, before,
                    hashlib.sha256(dump.encode("utf-8")).hexdigest())


def _mask(matrix) -> csr_matrix:
    out = csr_matrix(matrix, dtype=np.int64)
    out.eliminate_zeros()
    out.data[:] = 1
    return out


def _encode(mask: csr_matrix, neg: csr_matrix) -> csr_matrix:
    return (mask + (B - 1) * mask.multiply(neg)).tocsr()


def _tally(product: csr_matrix, z: csr_matrix, pos: csr_matrix,
           neg: csr_matrix) -> np.ndarray:
    """Triples of (X.Y) o Z by their number of negative edges (0..3)."""
    out = np.zeros(4, dtype=np.int64)
    for sign_mask, shift in ((pos, 0), (neg, 1)):
        values = product.multiply(z.multiply(sign_mask)).tocsr().data
        for k in range(3):
            out[k + shift] += int(((values // B ** k) % B).sum())
    return out


def _apl(skeleton: csr_matrix, block: int = 256) -> float:
    """Mean shortest-path length over ordered reachable pairs, by blocked
    breadth-first search: B sources at a time as sparse x dense products."""
    n = skeleton.shape[0]
    adj = csr_matrix(skeleton, dtype=np.float32)
    total = pairs = 0
    for start in range(0, n, block):
        cols = np.arange(start, min(n, start + block))
        visited = np.zeros((n, len(cols)), dtype=bool)
        visited[cols, np.arange(len(cols))] = True
        frontier = visited.copy()
        level = 0
        while True:
            level += 1
            reached = (adj @ frontier.astype(np.float32)) > 0
            reached &= ~visited
            count = int(reached.sum())
            if not count:
                break
            total += level * count
            pairs += count
            visited |= reached
            frontier = reached
    return total / pairs


def figures(g: Prepared, with_metrics: bool) -> dict:
    """Every figure an all-analyses run reports, from matrix identities."""
    n = len(g.ids)
    shape = (n, n)
    ones = np.ones(len(g.src), dtype=np.int64)
    a = csr_matrix((ones, (g.src, g.dst)), shape=shape)
    s = csr_matrix((g.sign, (g.src, g.dst)), shape=shape)
    neg = _mask(s < 0)
    pos = _mask(s > 0)
    m = _mask(a.multiply(a.T))
    d = _mask(a - m)
    agree = s.multiply(s.T)
    ms, md = _mask(agree > 0), _mask(agree < 0)

    enc = {"D": _encode(d, neg), "M": _encode(m, neg), "Ms": _encode(ms, neg)}
    masks = {"D": d, "M": m, "Ms": ms}
    tallies = {}
    for x, y, zs in (("D", "D", ("D", "M", "Ms")), ("D", "M", ("D", "M")),
                     ("M", "D", ("D", "M")), ("M", "M", ("D", "M")),
                     ("D", "Ms", ("D",)), ("Ms", "D", ("D",)),
                     ("Ms", "Ms", ("D", "Ms"))):
        product = (enc[x] @ enc[y]).tocsr()
        for z in zs:
            tallies[x + y + z] = _tally(product, masks[z], pos, neg)
    dd = (masks["D"] @ masks["D"]).tocsr()
    cyclic = int(dd.multiply(d.T).sum()) // 3

    def count(key: str) -> int:
        return int(tallies[key].sum())

    pattern = {"030T": "DDD", "120D": "DMD", "120U": "MDD", "300": "MMM"}
    agreeing = {"030T": "DDD", "120D": "DMsD", "120U": "MsDD", "300": "MsMsMs"}
    per_type, classification = {}, dict.fromkeys(
        ("completely_balanced", "partially_balanced", "completely_imbalanced"), 0)
    composition = np.zeros(4, dtype=np.int64)
    ratio_sum = 0.0
    for cls in TRANSITIVE:
        k = TRIPLES_PER_TYPE[cls]
        t = tallies[pattern[cls]]
        triples, balanced = int(t.sum()), int(t[0] + t[2])
        composition += t
        per_type[cls] = {"count": triples // k,
                         "ratio": balanced / triples if triples else None}
        ratio_sum += balanced / k
        # a triad is wholly balanced or imbalanced only when every mutual
        # dyad in it carries agreeing signs; then all its triples agree
        t = tallies[agreeing[cls]]
        classification["completely_balanced"] += int(t[0] + t[2]) // k
        classification["completely_imbalanced"] += int(t[1] + t[3]) // k
    transitive = sum(v["count"] for v in per_type.values())
    classification["partially_balanced"] = (
        transitive - classification["completely_balanced"]
        - classification["completely_imbalanced"])
    present = [v["ratio"] for v in per_type.values() if v["count"]]
    type_mean = math.fsum(present) / len(present) if present else None
    triad_mean = ratio_sum / transitive if transitive else None
    cb = classification["completely_balanced"]

    census = {"030T": count("DDD"), "030C": cyclic, "120D": count("DMD") // 2,
              "120U": count("MDD") // 2, "120C": count("DDM"),
              "210": count("MMD"), "300": count("MMM") // 6}
    out_deg = np.asarray(d.sum(axis=1)).ravel()
    in_deg = np.asarray(d.sum(axis=0)).ravel()
    mut_deg = np.asarray(m.sum(axis=1)).ravel()

    def pairs_of(x: np.ndarray) -> int:
        return int((x * (x - 1) // 2).sum())

    # every open triad has one centre node adjacent to both others, so open
    # classes are wedge counts minus the wedges that closed triads contain
    census["021D"] = pairs_of(out_deg) - census["030T"] - census["120D"]
    census["021U"] = pairs_of(in_deg) - census["030T"] - census["120U"]
    census["021C"] = (int((out_deg * in_deg).sum()) - census["030T"]
                      - 3 * census["030C"] - census["120C"])
    census["111D"] = (int((mut_deg * in_deg).sum()) - 2 * census["120D"]
                      - census["120C"] - census["210"])
    census["111U"] = (int((mut_deg * out_deg).sum()) - 2 * census["120U"]
                      - census["120C"] - census["210"])
    census["201"] = pairs_of(mut_deg) - census["210"] - 3 * census["300"]
    mutual_pairs, asym_pairs = int(m.sum()) // 2, int(d.sum())
    census["102"] = mutual_pairs * (n - 2) - sum(
        census[c] * _DYADS[c][0] for c in _DYADS)
    census["012"] = asym_pairs * (n - 2) - sum(
        census[c] * _DYADS[c][1] for c in _DYADS)
    census["003"] = math.comb(n, 3) - sum(census.values())

    projected = (s + s.T).tocsr()
    projected.data = np.sign(projected.data)
    up, un = _mask(projected > 0), _mask(projected < 0)
    u_mask = _mask(up + un)
    u_enc = _encode(u_mask, un)
    walks = _tally((u_enc @ u_enc).tocsr(), u_mask, up, un) // 6
    triangles = int(walks.sum())
    und_balanced = int(walks[0] + walks[2])

    cancelled = sorted([g.ids[u], g.ids[v]]
                       for u, v in zip(*md.nonzero()) if u < v)
    undirected_only = cyclic + count("DDMs") + count("MsMsD")

    result = {
        "nodes": n, "edges": len(g.src),
        "census": {c: census[c] for c in CENSUS_TYPES},
        "all_triples": sum(count(x + y + z) for x in "DM" for y in "DM"
                           for z in "DM"),
        "per_type": per_type,
        "type_mean": type_mean,
        "triad_mean": triad_mean,
        "nonpartial": ((cb / transitive, cb, transitive - cb)
                       if transitive else None),
        "classification": classification,
        "transitive_triads": transitive,
        "composition_directed": dict(zip(COMPOSITION_BY_NEG, composition.tolist())),
        "composition_undirected": dict(zip(COMPOSITION_BY_NEG, walks.tolist())),
        "undirected": (triangles, und_balanced, triangles - und_balanced,
                       und_balanced / triangles if triangles else None),
        "cancelled": cancelled,
        "undirected_only": undirected_only,
    }
    if with_metrics:
        skeleton = _mask(a + a.T)
        degree = np.asarray(skeleton.sum(axis=1)).ravel()
        per_node = np.asarray((skeleton @ skeleton).multiply(skeleton)
                              .sum(axis=1)).ravel() // 2
        wedges = pairs_of(degree)
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(degree > 1,
                             2.0 * per_node / (degree * (degree - 1.0)), 0.0)
        result["metrics"] = {
            "node_count": n, "edge_count": len(g.src),
            "component_count": connected_components(
                skeleton, directed=False)[0],
            "transitivity": (int(per_node.sum()) / wedges
                             if wedges else 0.0),
            "density": len(g.src) / (n * (n - 1)),
            "avg_path_length": _apl(skeleton),
            "clustering_coefficient": float(local.mean()),
        }
    return result


# -- comparing a report directory ----------------------------------------------


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_run(out_dir: Path, g: Prepared, exp: dict,
              analyses: tuple) -> list[str]:
    """Differences between a report directory and the expected figures."""
    errors: list[str] = []

    def expect(what: str, got, want, close: bool = False) -> None:
        if not (_close(got, want) if close else got == want):
            errors.append(f"{what}: got {got!r}, expected {want!r}")

    def load(name: str) -> dict:
        return json.loads((out_dir / name).read_text(encoding="utf-8"))

    try:
        manifest = load("manifest.json")
        dump = hashlib.sha256((out_dir / "graph.tsv").read_bytes()).hexdigest()
        expect("graph.tsv sha256", dump, g.dump_sha256)
        expect("records", manifest["input"]["records"], g.records)
        counts = manifest["counts"]
        expect("counts before", (counts["before"]["nodes"],
                                 counts["before"]["edges"]), g.before)
        expect("counts after", (counts["after"]["nodes"],
                                counts["after"]["edges"]),
               (exp["nodes"], exp["edges"]))
        want_files = {"graph.tsv"}
        stems = {"undirected-compare": "compare"}
        for analysis in analyses:
            stem = stems.get(analysis, analysis)
            want_files |= {f"{stem}.json", f"{stem}.csv"}
        expect("reports", sorted(manifest["reports"]), sorted(want_files))
        for name in want_files:
            if not (out_dir / name).is_file():
                errors.append(f"missing report {name}")

        if "census" in analyses:
            census = load("census.json")["counts"]
            expect("census", census, exp["census"])
            expect("census total", sum(census.values()),
                   math.comb(exp["nodes"], 3))
            expect("transitive triples = sum((A.A) o A)",
                   census["030T"] + 2 * census["120D"] + 2 * census["120U"]
                   + 6 * census["300"] + census["120C"] + 3 * census["210"],
                   exp["all_triples"])
        if "balance" in analyses:
            doc = load("balance.json")
            for entry in doc["per_type"]:
                want = exp["per_type"][entry["type"]]
                expect(f"{entry['type']} count", entry["count"], want["count"])
                expect(f"{entry['type']} ratio", entry["ratio"], want["ratio"],
                       close=True)
                if "census" in analyses:
                    expect(f"census {entry['type']} vs balance count",
                           load("census.json")["counts"][entry["type"]],
                           entry["count"])
            expect("overall_type_mean", doc["overall_type_mean"],
                   exp["type_mean"], close=True)
            expect("overall_triad_mean", doc["overall_triad_mean"],
                   exp["triad_mean"], close=True)
            expect("nonpartial ratio", doc["nonpartial"]["ratio"],
                   exp["nonpartial"][0], close=True)
            expect("nonpartial counts", (doc["nonpartial"]["balanced"],
                                         doc["nonpartial"]["imbalanced"]),
                   exp["nonpartial"][1:])
            expect("classification", doc["classification_counts"],
                   exp["classification"])
            if "undirected-compare" in analyses:
                und = doc["undirected"]
                expect("undirected", (und["triangles"], und["balanced"],
                                      und["imbalanced"]), exp["undirected"][:3])
                expect("undirected ratio", und["ratio"], exp["undirected"][3],
                       close=True)
        if "composition" in analyses:
            doc = load("composition.json")
            expect("composition directed", doc["directed"]["counts"],
                   exp["composition_directed"])
            expect("composition undirected", doc["undirected"]["counts"],
                   exp["composition_undirected"])
        if "metrics" in analyses:
            doc = load("metrics.json")
            for key, want in exp["metrics"].items():
                expect(f"metrics {key}", doc[key], want,
                       close=isinstance(want, float))
        if "undirected-compare" in analyses:
            doc = load("compare.json")
            und = doc["undirected"]
            expect("compare undirected", (und["triangles"], und["balanced"],
                                          und["imbalanced"]),
                   exp["undirected"][:3])
            expect("compare undirected ratio", und["ratio"],
                   exp["undirected"][3], close=True)
            expect("compare partial", doc["directed_partial"]["ratio"],
                   exp["type_mean"], close=True)
            expect("compare classification",
                   doc["directed_partial"]["classification_counts"],
                   exp["classification"])
            expect("compare nonpartial", doc["directed_nonpartial"]["balanced"],
                   exp["nonpartial"][1])
            expect("cancelled pairs", doc["cancelled_edges"], exp["cancelled"])
            expect("undirected-only triangles",
                   len(doc["undirected_only_triangles"]), exp["undirected_only"])
            expect("identical_realizations", doc["identical_realizations"],
                   not exp["cancelled"] and not exp["undirected_only"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable report: {exc!r}")
    return errors
