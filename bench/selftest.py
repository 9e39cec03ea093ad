"""Self-test of the benchmark.

Run from the repository root:  python3 bench/selftest.py

1. Each workload, shrunken, runs end to end with tracing off and on; the
   result must be correct and name exactly the metrics in BENCHMARK.json.
   This includes batch, which BENCHMARK.json leaves out.
2. Corrupted copies of a real report directory must fail the output check,
   and the clean copy must pass it.
3. Without the program's source the benchmark exits non-zero and prints
   no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_work" / "selftest"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def shrunken_runs() -> None:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", workload, "--seed", "5", "--seconds",
                         "1", "--trace", str(trace), "--small"], ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if proc.returncode or not result["correct"] or got != want:
                raise SystemExit(f"{workload} trace={trace} failed:\n"
                                 f"{proc.stdout}\n{proc.stderr}")
            print(f"ok  {workload} trace={trace}: {result['attempted']} runs")


def _corruptions():
    def edit_json(name, change):
        def apply(out: Path) -> None:
            doc = json.loads((out / name).read_text(encoding="utf-8"))
            change(doc)
            (out / name).write_text(json.dumps(doc), encoding="utf-8")
        return apply

    def drop_last_edge(out: Path) -> None:
        lines = (out / "graph.tsv").read_text(encoding="utf-8").splitlines(True)
        (out / "graph.tsv").write_text("".join(lines[:-1]), encoding="utf-8")

    def bump(doc: dict, *path, by=1) -> None:
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] += by

    return {
        "type-mean ratio": edit_json(
            "balance.json", lambda d: bump(d, "overall_type_mean", by=1e-6)),
        "per-type ratio": edit_json(
            "balance.json", lambda d: bump(d, "per_type", 3, "ratio", by=1e-6)),
        "census class": edit_json(
            "census.json", lambda d: bump(d, "counts", "021C")),
        "composition": edit_json(
            "composition.json", lambda d: bump(d, "directed", "counts", "+--")),
        "path length": edit_json(
            "metrics.json", lambda d: bump(d, "avg_path_length", by=1e-6)),
        "cancelled pair": edit_json(
            "compare.json", lambda d: d["cancelled_edges"].pop()),
        "canonical dump": drop_last_edge,
    }


def corrupted_reports() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import expect
    import workloads
    from triadbalance import cli

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    try:
        job = workloads.make_jobs("hubs", 5, True, ROOT, WORK_DIR)[0]
        analyses = workloads.ALL_ANALYSES
        clean = WORK_DIR / "clean"
        code = cli.run(cli.RunConfig(input_path=job["input"], analyses=analyses,
                                     out_dir=str(clean), workers=1))
        prepared = expect.prepare(Path(job["input"]))
        figures = expect.figures(prepared, True)
        if not figures["cancelled"]:
            raise SystemExit("shrunken hubs input has no cancelled pair")
        errors = expect.check_run(clean, prepared, figures, analyses)
        if code or errors:
            raise SystemExit(f"clean report rejected: exit {code}, {errors}")
        for name, corrupt in _corruptions().items():
            broken = WORK_DIR / "broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(clean, broken)
            corrupt(broken)
            if not expect.check_run(broken, prepared, figures, analyses):
                raise SystemExit(f"corrupted {name} passed the check")
            print(f"ok  corrupted {name} is rejected")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def without_program() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    try:
        shutil.copytree(BENCH, WORK_DIR / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", WORK_DIR)
        proc = _run(["--workload", "gate", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], WORK_DIR)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit(f"ran without the program: {proc.stdout}")
        print("ok  without the program: exit", proc.returncode)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    shrunken_runs()
    corrupted_reports()
    without_program()
    print("selftest passed")
