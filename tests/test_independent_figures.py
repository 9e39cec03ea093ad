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

GRAPHS = {
    "random": lambda seed: workloads.random_edges(2000, 7 / 1999, 0.3, seed),
    # reciprocal pairs of opposite signs cancel in the projection, and
    # cyclic triangles are projected without a transitive triple
    "hubs": lambda seed: workloads.hub_edges(2000, 8, 0.10, 0.3, 0.2, 8, seed),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_analyze_matches_independent_figures(tmp_path, name):
    data = tmp_path / f"{name}.tsv"
    workloads.write_tsv(GRAPHS[name](42), data)
    prepared = expect.prepare(data)
    figures = expect.figures(prepared, True)
    assert figures["nodes"] > ORACLE_MAX_NODES
    if name == "hubs":
        assert figures["cancelled"] and figures["undirected_only"]
    out = tmp_path / "out"
    assert cli.run(cli.RunConfig(input_path=str(data), out_dir=str(out))) == 0
    assert expect.check_run(out, prepared, figures, cli.ANALYSES) == []
