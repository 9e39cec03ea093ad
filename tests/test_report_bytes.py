"""Report bytes pinned by hash: every file of a handful of `analyze` runs
must match the sha256 recorded in `report_hashes.json`.

The manifest is hashed without `created` and the input path, which name the
run rather than its figures.  A change that alters a report on purpose
regenerates the file and says why:

    PYTHONPATH=src python tests/test_report_bytes.py
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from triadbalance import graphs
from triadbalance.census import _oriented_dyads
from triadbalance.cli import RunConfig, run
from triadbalance.crosscheck import compare_with_oracle
from triadbalance.graphs import PreprocessConfig, dump_tsv
from triadbalance.oracle import random_signed_digraph

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "report_hashes.json"
HIGHLAND = ROOT / "data" / "highland"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _random_tsv(path: Path) -> Path:
    # independent edge signs leave ~40% of the reciprocal pairs mismatched
    dump_tsv(random_signed_digraph(400, 0.02, 0.3, 11), path)
    return path


def _hubs_tsv(path: Path) -> Path:
    workloads = _workloads()
    workloads.write_tsv(workloads.hub_edges(1000, 8, 0.10, 0.3, 0.2, 8, 42),
                        path)
    return path


def _rating_csv(path: Path) -> Path:
    """csv-rating text in which most pairs are rated several times."""
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 200, size=(900, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rows = pairs[rng.integers(0, len(pairs), size=3000)]
    ratings = rng.integers(-10, 11, size=len(rows))
    path.write_text("".join(
        f"n{u},n{v},{r},{1000 + t}\n"
        for t, ((u, v), r) in enumerate(zip(rows.tolist(), ratings.tolist()))),
        encoding="utf-8")
    return path


#: case -> (input writer or fixed path, RunConfig keyword arguments)
CASES = {
    "highland-tsv": (lambda d: HIGHLAND / "highland_tribes.tsv", {}),
    "highland-matrix": (lambda d: HIGHLAND / "highland_tribes_matrix.txt",
                        {"input_format": "signed-matrix"}),
    "random-400": (lambda d: _random_tsv(d / "random.tsv"), {}),
    "random-400-triad-mean": (lambda d: _random_tsv(d / "random.tsv"),
                              {"balance_mode": "triad-mean"}),
    "hubs-1000": (lambda d: _hubs_tsv(d / "hubs.tsv"), {}),
    "hubs-1000-no-compare": (
        lambda d: _hubs_tsv(d / "hubs.tsv"),
        {"analyses": ("census", "balance", "composition", "metrics")}),
    **{f"rating-{rule}": (
        lambda d: _rating_csv(d / "rating.csv"),
        {"input_format": "csv-rating",
         "preprocess": PreprocessConfig(sign_threshold=1.5,
                                        aggregate_rule=rule)})
       for rule in ("sum-then-sign", "last-record", "mean-then-sign")},
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        # the manifest is written as this dump, so dropping two keys from
        # it changes nothing else
        assert (json.dumps(manifest, indent=2, sort_keys=True) + "\n"
                ).encode() == data
        del manifest["created"], manifest["input"]["path"]
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def report_hashes(case: str, work: Path) -> dict[str, str]:
    """sha256 of every report file of one case's `analyze` run."""
    write_input, options = CASES[case]
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    assert run(RunConfig(input_path=str(write_input(work)), out_dir=str(out),
                         **options)) == 0
    return {path.name: _digest(path) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_pinned_hashes(tmp_path, case):
    assert report_hashes(case, tmp_path) == json.loads(HASHES.read_text())[case]


def test_64_bit_indices_give_the_same_figures(tmp_path, monkeypatch):
    # no input here is large enough to reach the 64-bit index arrays, so the
    # bound is lowered until every index array takes them
    monkeypatch.setattr(graphs, "_INDEX32_LIMIT", 0)
    pinned = json.loads(HASHES.read_text())
    for case in sorted(CASES):
        assert report_hashes(case, tmp_path / case) == pinned[case], case
    for seed in range(4):
        g = random_signed_digraph(30, 0.2, 0.4, seed)
        assert _oriented_dyads(g)[1].dtype == np.int64
        assert compare_with_oracle(g) == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {case: report_hashes(case, Path(tmp) / case)
                  for case in sorted(CASES)}
    HASHES.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
