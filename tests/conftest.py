import importlib.util
from pathlib import Path

import pytest

from triadbalance import SignedDigraph, build_graph, load_edge_records, preprocess

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
HIGHLAND_MATRIX = DATA_DIR / "highland" / "highland_tribes_matrix.txt"
HIGHLAND_TSV = DATA_DIR / "highland" / "highland_tribes.tsv"
BITCOIN_OTC = DATA_DIR / "bitcoin" / "soc-sign-bitcoinotc.csv"
BITCOIN_ALPHA = DATA_DIR / "bitcoin" / "soc-sign-bitcoinalpha.csv"


@pytest.fixture(scope="session")
def hubs_text() -> bytes:
    """The benchmark's hubs input at seed 42 (6000 nodes, 52,754 lines) as
    tsv-sign bytes, from `bench/workloads.py`, which is loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO_ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rows = workloads.hub_edges(6000, 8, 0.10, 0.3, 0.2, 8, 42).tolist()
    return "".join(f"{u}\t{v}\t{s}\n" for u, v, s in rows).encode()


@pytest.fixture(scope="session")
def highland() -> SignedDigraph:
    records = load_edge_records(HIGHLAND_MATRIX, "signed-matrix")
    return preprocess(build_graph(records))


@pytest.fixture
def mixed_graph() -> SignedDigraph:
    """One triad of each transitive type plus assorted clutter."""
    edges = [
        # 030T on a,b,c
        ("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
        # 120D: mutual d<->e, f -> d, f -> e
        ("d", "e", 1), ("e", "d", 1), ("f", "d", -1), ("f", "e", 1),
        # 120U: mutual g<->h, g -> i, h -> i
        ("g", "h", -1), ("h", "g", -1), ("g", "i", 1), ("h", "i", 1),
        # 300 on j,k,l
        ("j", "k", 1), ("k", "j", 1), ("j", "l", 1), ("l", "j", 1),
        ("k", "l", -1), ("l", "k", -1),
        # connect the pieces so the giant component keeps everything
        ("c", "d", 1), ("e", "g", 1), ("i", "j", -1),
        ("b", "a", 1), ("c", "b", 1),
    ]
    return SignedDigraph(edges)
