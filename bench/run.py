"""End-to-end and per-layer benchmark of `triadbalance analyze`.

Run from the repository root:

    python3 bench/run.py --workload {gate,hubs,batch} --seed N --seconds S --trace {0,1}

Workloads (inputs are generated from --seed; the program sees only TSV files):
  gate   random signed digraph, n=3000, m~21k, all five analyses at one
         worker.  `metrics` (dense all-pairs path length) is most of the run,
         so a path-length change shows here and nowhere else.
  hubs   preferential-attachment digraph, n=6000, out-degree 8, with
         reciprocal and sign-mismatched pairs; census, balance, composition
         and compare at two workers.  Degree skew makes the census scans
         dominate, and projection cancels pairs.
  batch  the highland network plus 119 small random graphs, all analyses at
         the CLI's default workers.  Per-call fixed cost (process pools,
         report writing) dominates, so work moved into set-up shows here.
         BENCHMARK.json leaves batch out: its per-graph time swings about
         twofold with the host's cost of creating processes and files, while
         gate and hubs swing far less.  Run it by hand, as paired runs.

With --trace 0 every timed run is a plain `cli.run`, and the end-to-end
metrics are printed.  With --trace 1 the program's public functions are
wrapped from outside, and the per-layer metrics are printed.  Every run's
reports are checked against figures computed without the program's code
(see expect.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details, including spans,
go to .bench_work/<workload>-seed<N>-trace<T>.json.

`python3 bench/selftest.py` runs shrunken workloads and a corrupted report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 42
SETUP_REPEATS = 7
BRUTE_FORCE_SAMPLE = 3
BRUTE_FORCE_MAX_NODES = 100

#: per-layer metric -> (span name, "self" or "calls"), from one analyze run
LAYER_SPANS = {
    "graphs.parse_s": ("graphs.parse", "self"),
    "graphs.build_s": ("graphs.build", "self"),
    "graphs.dump_s": ("graphs.dump", "self"),
    "graphs.preprocess_s": ("graphs.preprocess", "self"),
    "graphs.preprocess_calls": ("graphs.preprocess", "calls"),
    "graphs.project_s": ("graphs.project", "self"),
    "graphs.project_calls": ("graphs.project", "calls"),
    "census.scan_s": ("census.scan", "self"),
    "census.scan_calls": ("census.scan", "calls"),
    "census.census_s": ("census.census", "self"),
    "balance.report_s": ("balance.report", "self"),
    "balance.report_calls": ("balance.report", "calls"),
    "balance.undirected_s": ("balance.undirected", "self"),
    "signstats.composition_s": ("signstats.composition", "self"),
    "signstats.metrics_s": ("signstats.metrics", "self"),
    "cli.compare_s": ("cli.compare", "self"),
    "cli.run_self_s": ("cli.run", "self"),
}
#: tracer counters reported as per-layer metrics, summed over one analyze run
LAYER_COUNTERS = ("census.triads_visited", "census.pool_starts",
                  "cli.bytes_written")
#: RSS rises are read from the first traced run of a fresh process, since
#: the high-water mark cannot rise again once a run has reached it
LAYER_RSS = ("graphs.build_rss_rise_mb", "signstats.metrics_rss_rise_mb")


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BALANCE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> float:
    """Median wall time for a fresh interpreter to import triadbalance.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import triadbalance.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_figures(out_dir: Path, analyses) -> dict:
    """The float figures kept in reference.json for the default seed."""
    doc = json.loads((out_dir / "balance.json").read_text(encoding="utf-8"))
    figures = {"type_mean": doc["overall_type_mean"],
               "triad_mean": doc["overall_triad_mean"],
               "nonpartial": doc["nonpartial"]["ratio"]}
    if "metrics" in analyses:
        doc = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        for key in ("avg_path_length", "transitivity", "clustering_coefficient"):
            figures[key] = doc[key]
    return figures


def _highland_errors(out_dir: Path) -> list[str]:
    """The published highland figures: 68 transitive triads, partial
    balance 0.87 and density 0.48 (two decimals)."""
    balance = json.loads((out_dir / "balance.json").read_text(encoding="utf-8"))
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    errors = []
    triads = sum(entry["count"] for entry in balance["per_type"])
    if triads != 68:
        errors.append(f"highland: {triads} transitive triads, published 68")
    if abs(balance["overall_type_mean"] - 0.87) > 0.005:
        errors.append(f"highland: partial balance "
                      f"{balance['overall_type_mean']}, published 0.87")
    if abs(metrics["density"] - 0.48) > 0.005:
        errors.append(f"highland: density {metrics['density']}, published 0.48")
    return errors


def _brute_force_errors(prepared, out_dir: Path) -> list[str]:
    """The program's reports against the exhaustive oracle."""
    from triadbalance import SignedDigraph, brute_force

    graph = SignedDigraph(
        (prepared.ids[u], prepared.ids[v], s) for u, v, s in
        zip(prepared.src.tolist(), prepared.dst.tolist(), prepared.sign.tolist()))
    oracle = brute_force(graph)

    def load(name):
        return json.loads((out_dir / name).read_text(encoding="utf-8"))

    census = load("census.json")["counts"]
    balance = load("balance.json")
    composition = load("composition.json")
    compare = load("compare.json")["undirected"]
    pairs = [
        ("census", {k: v for k, v in census.items() if v},
         {k: v for k, v in oracle.census.items() if v}),
        ("per-type counts", {e["type"]: e["count"] for e in balance["per_type"]},
         {t: v[0] for t, v in oracle.type_balance.items()}),
        ("nonpartial", [balance["nonpartial"]["balanced"],
                        balance["nonpartial"]["imbalanced"]],
         list(oracle.nonpartial[1:])),
        ("composition directed", composition["directed"]["counts"],
         oracle.composition_directed),
        ("composition undirected", composition["undirected"]["counts"],
         oracle.composition_undirected),
        ("undirected", [compare["triangles"], compare["balanced"]],
         list(oracle.undirected[:2])),
    ]
    errors = [f"oracle {what}: got {got!r}, oracle {want!r}"
              for what, got, want in pairs if got != want]
    for what, got, want in (
            ("type mean", balance["overall_type_mean"], oracle.overall_type_mean),
            ("triad mean", balance["overall_triad_mean"],
             oracle.overall_triad_mean)):
        if not math.isclose(got, want, rel_tol=1e-9):
            errors.append(f"oracle {what}: got {got!r}, oracle {want!r}")
    return errors


def _record(jobs, prepared, worker: dict, seed: int) -> dict:
    import numpy
    import scipy
    git_sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        lines = git.stdout.split()
        # a checkout without .git may sit inside another repository
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "triadbalance").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = [{"name": job["name"], "sha256": job["sha256"],
               "before": {"nodes": p.before[0], "edges": p.before[1]},
               "after": {"nodes": len(p.ids), "edges": len(p.src)}}
              for job, p in zip(jobs, prepared)]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "resolved_workers": worker.get("resolved_workers"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "inputs": inputs,
    }


def _summary(record: dict) -> dict:
    """The record as printed: per-input details collapse for many inputs."""
    inputs = record["inputs"]
    if len(inputs) <= 3:
        return record
    digest = hashlib.sha256("".join(i["sha256"] for i in inputs).encode())
    return dict(record, inputs={
        "count": len(inputs), "sha256_of_all": digest.hexdigest(),
        "before": {k: sum(i["before"][k] for i in inputs)
                   for k in ("nodes", "edges")},
        "after": {k: sum(i["after"][k] for i in inputs)
                  for k in ("nodes", "edges")}})


def layer_metrics(worker: dict) -> dict:
    traced = [it for it in worker["iterations"] if it["traced"]]
    untraced = [it for it in worker["iterations"] if not it["traced"]]
    runs = [str(i) for i, it in enumerate(worker["iterations"]) if it["traced"]]
    counters: dict = {}
    for run, name, value in worker["counters"]:
        counters.setdefault(str(run), {})[name] = value
    values = {}
    for metric, (span, kind) in LAYER_SPANS.items():
        per_run = [worker["layers"][run].get(span, (0.0, 0)) for run in runs]
        values[metric] = statistics.median(
            calls if kind == "calls" else self_s for self_s, calls in per_run)
    for name in LAYER_COUNTERS:
        values[name] = statistics.median(
            counters.get(run, {}).get(name, 0) for run in runs)
    for name in LAYER_RSS:
        values[name] = counters.get(runs[0], {}).get(name, 0.0)
    traced_s = statistics.median(it["seconds"] for it in traced)
    values["trace.analyze_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(
        it["seconds"] for it in untraced)
    return values


def end_to_end_metrics(worker: dict, setup_s: float, attempted: int,
                       failed: int) -> dict:
    times = [it["seconds"] for it in worker["iterations"]]
    return {
        "analyze_s": statistics.median(times),
        "analyze_s.p90": _p90(times),
        "graphs_per_s": len(times) / worker["wall_seconds"],
        "peak_rss_mb": max(worker["max_rss_self_mb"],
                           worker["max_rss_children_mb"]),
        "setup_s": setup_s,
        "ok_rate": 1.0 - failed / attempted,
    }


UNITS = {"analyze_s": "s", "analyze_s.p90": "s", "graphs_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s", "ok_rate": "ratio",
         "error_rate": "ratio", "trace.analyze_s": "s",
         "trace.overhead_s": "s"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> tuple[dict, int]:
    sys.path.insert(0, str(SRC))
    import expect

    out_base = ROOT / ".bench_work"
    work = out_base / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    try:
        setup_s = None if trace else measure_setup(env)
        jobs = workloads.make_jobs(workload, seed, small, ROOT, work)
        prepared, expected = [], []
        for job in jobs:
            job["sha256"] = _sha256(job["input"])
            p = expect.prepare(Path(job["input"]))
            prepared.append(p)
            expected.append(expect.figures(p, "metrics" in job["analyses"]))
        keep = [i for i, e in enumerate(expected) if e["transitive_triads"]]
        jobs = [jobs[i] for i in keep]
        prepared = [prepared[i] for i in keep]
        expected = [expected[i] for i in keep]

        spec = {"jobs": jobs, "seconds": seconds, "trace": trace,
                "out_root": str(work / "out"), "result": str(work / "worker.json")}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        worker_error = None
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(work / "spec.json")],
                env=env, cwd=ROOT, timeout=seconds + 60)
            if proc.returncode:
                worker_error = f"worker exited with code {proc.returncode}"
        except subprocess.TimeoutExpired:
            worker_error = "worker timed out"
        if worker_error:
            print(f"error: {worker_error}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}, 1
        worker = json.loads((work / "worker.json").read_text(encoding="utf-8"))

        # stored figures apply at the default seed; an empty list means the
        # generated inputs drifted from the stored ones
        stored = None
        if seed == DEFAULT_SEED and not small:
            reference = json.loads(
                (BENCH / "reference.json").read_text(encoding="utf-8"))[workload]
            same = [job["sha256"] for job in jobs] == reference["inputs_sha256"]
            stored = reference["figures"] if same else []
        sample = set()
        if workload == "batch":
            import numpy
            candidates = [i for i, p in enumerate(prepared)
                          if len(p.ids) <= BRUTE_FORCE_MAX_NODES
                          and jobs[i]["name"] != "highland"]
            picks = numpy.random.Generator(numpy.random.PCG64(seed)).permutation(
                len(candidates))[:BRUTE_FORCE_SAMPLE]
            sample = {candidates[i] for i in picks.tolist()}
        seen = set()
        failed = 0
        for it in worker["iterations"]:
            j = it["job"]
            out_dir = Path(it["out_dir"])
            errors = ([] if it["exit"] == 0 else [f"exit code {it['exit']}"])
            errors += expect.check_run(out_dir, prepared[j], expected[j],
                                       tuple(jobs[j]["analyses"]))
            if j not in seen and not errors:
                seen.add(j)
                if jobs[j]["name"] == "highland":
                    errors += _highland_errors(out_dir)
                if j in sample:
                    errors += _brute_force_errors(prepared[j], out_dir)
                if stored == []:
                    errors.append("inputs differ from the stored reference")
                elif stored is not None:
                    got = reference_figures(out_dir, jobs[j]["analyses"])
                    if any(not math.isclose(got[k], v, rel_tol=1e-9)
                           for k, v in stored[j].items()):
                        errors.append(f"reference figures: got {got}, "
                                      f"stored {stored[j]}")
            if errors:
                failed += 1
                print(f"check failed, {jobs[j]['name']} run {out_dir.name}: "
                      + "; ".join(errors[:5]), file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
        attempted = len(worker["iterations"])

        if trace:
            metrics = layer_metrics(worker)
        else:
            metrics = end_to_end_metrics(worker, setup_s, attempted, failed)
        record = _record(jobs, prepared, worker, seed)
        details = {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "record": record, "metrics": metrics,
                   "error_rate": failed / attempted,
                   "iterations": [{k: it[k] for k in ("job", "traced",
                                                      "seconds", "exit")}
                                  for it in worker["iterations"]],
                   "spans": worker.get("spans", [])}
        (out_base / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(details), encoding="utf-8")
        print("# record " + json.dumps(_summary(record), sort_keys=True))
        for name, value in list(metrics.items()) + [
                ("error_rate", failed / attempted)]:
            print(f"{workload} {name} = {value:.6g} {_unit(name)}")
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": _unit(name)}
                              for name, value in metrics.items()}}
        return result, 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "triadbalance" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    result, code = run_benchmark(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.small)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
