"""Timed loop of `cli.run` calls, in a fresh process per benchmark run.

Usage: python3 worker.py SPEC.json

SPEC names the jobs (input, analyses, workers), the seconds to measure,
whether to trace, where to put report directories and where to write the
result.  Iterations cycle through the jobs.  The loop stops once another
iteration would most likely end more than half an iteration past the
requested seconds.  With tracing on, each job runs twice in a row, traced
then untraced, so the difference of the two is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, peak_rss_mb


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from triadbalance import cli
    from triadbalance.census import resolve_workers

    tracer = Tracer() if spec["trace"] else None
    jobs = spec["jobs"]
    out_root = Path(spec["out_root"])
    min_iters = 2 if tracer else 1
    iterations = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 0
        job_index = (k // 2 if tracer else k) % len(jobs)
        job = jobs[job_index]
        out_dir = out_root / str(k)
        config = cli.RunConfig(input_path=job["input"],
                               analyses=tuple(job["analyses"]),
                               out_dir=str(out_dir), workers=job["workers"])
        if traced:
            tracer.run_id = k
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = cli.run(config)
            t1 = time.perf_counter()
        iterations.append({"job": job_index, "traced": traced,
                           "seconds": t1 - t0, "exit": code,
                           "out_dir": str(out_dir)})
        if traced and out_dir.is_dir():
            tracer.count("cli.bytes_written", _bytes_written(out_dir))
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_iters and elapsed + elapsed / k / 2 >= spec["seconds"]:
            break

    result = {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "max_rss_self_mb": peak_rss_mb(),
        "max_rss_children_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "resolved_workers": sorted({resolve_workers(j["workers"])
                                    for j in jobs}),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["layers"] = {
            str(it): {name: list(v) for name, v in tracer.self_times(it).items()}
            for it, row in enumerate(iterations) if row["traced"]}
        result["counters"] = [[run, name, value] for (run, name), value
                              in tracer.counters.items()]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
