"""The program names that the benchmark under `bench/` relies on.

The benchmark stays unchanged across program changes, so a rename or a
removal in the program must fail here rather than only in the benchmark's
own self-test: `bench/tracer.py` wraps every function in its `WRAPPED`
table inside the modules in `MODULES`, `bench/worker.py` builds
`cli.RunConfig(..., workers=...)` and calls `census.resolve_workers`, and
`bench/run.py` checks reports with `brute_force(SignedDigraph(edges))`.
The tracer's per-layer figures also rely on `analyze` handing its one
triangle pass to the public function of each report.
"""
import importlib
import importlib.util
import json
from pathlib import Path

from triadbalance import SignedDigraph, brute_force, cli
from triadbalance.census import resolve_workers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wrapped_names_resolve():
    tracer = _tracer()
    assert tracer.WRAPPED
    for name, (module, attr) in tracer.WRAPPED.items():
        owner = importlib.import_module(f"triadbalance.{module}")
        assert callable(getattr(owner, attr, None)), name
    for module in tracer.MODULES:
        importlib.import_module(module)


def test_traced_run_makes_one_pass_and_enters_every_view(tmp_path):
    data = tmp_path / "g.tsv"
    data.write_text("a\tb\t+1\nb\tc\t-1\na\tc\t-1\nc\td\t+1\n"
                    "d\ta\t+1\nb\td\t+1\nd\tb\t-1\n", encoding="utf-8")
    tracer = _tracer().Tracer()
    config = cli.RunConfig(input_path=str(data), out_dir=str(tmp_path / "out"))
    assert config.analyses == cli.ANALYSES
    with tracer.installed():
        assert cli.run(config) == 0
    times = tracer.self_times(tracer.run_id)
    calls = {name: n for name, (_, n) in times.items()}
    assert calls["census.scan"] == 1
    for name in ("census.census", "balance.report", "signstats.composition",
                 "cli.compare", "signstats.metrics"):
        assert calls.get(name, 0) >= 1, name


def test_worker_run_config_and_workers(tmp_path):
    data = tmp_path / "g.tsv"
    data.write_text("a\tb\t+1\nb\tc\t+1\na\tc\t+1\n", encoding="utf-8")
    for requested in (None, 1, 2):
        assert resolve_workers(requested) >= 1
    out = tmp_path / "out"
    config = cli.RunConfig(input_path=str(data), analyses=("census", "balance"),
                           out_dir=str(out), workers=2)
    assert cli.run(config) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["workers"] == resolve_workers(2)


def test_run_oracle_on_a_graph_from_edge_triples():
    # bench/run.py passes a generator of (source, target, sign) triples
    graph = SignedDigraph((u, v, s) for u, v, s in
                          [("a", "b", 1), ("b", "c", -1), ("a", "c", -1)])
    oracle = brute_force(graph)
    assert oracle.census["030T"] == 1
    assert oracle.type_balance["030T"][0] == 1
    assert oracle.nonpartial[1:] == (1, 0)
    assert oracle.undirected[:2] == (1, 1)
    assert oracle.composition_directed and oracle.composition_undirected
    assert oracle.overall_type_mean == oracle.overall_triad_mean == 1.0
