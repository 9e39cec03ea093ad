"""Spans around the program's public functions, recorded from outside.

`Tracer.installed()` swaps each wrapped function into every triadbalance
module that refers to it, so calls made through `from .x import f` names
are seen too, and restores the originals on exit.  Spans (id, parent id,
name, start, end, run id) stay in memory until the caller writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import multiprocessing.pool
import resource
import time

#: span name -> (module, function); names double as layer.function
WRAPPED = {
    "graphs.parse": ("graphs", "load_edge_records"),
    "graphs.build": ("graphs", "build_graph"),
    "graphs.preprocess": ("graphs", "preprocess"),
    "graphs.project": ("graphs", "project_undirected"),
    "graphs.dump": ("graphs", "dump_tsv"),
    "census.scan": ("census", "scan_triads"),
    "census.census": ("census", "census"),
    "balance.report": ("balance", "build_report"),
    "balance.undirected": ("balance", "undirected_balance"),
    "signstats.composition": ("signstats", "composition_undirected"),
    "signstats.metrics": ("signstats", "metrics"),
    "cli.compare": ("cli", "compare_report"),
    "cli.run": ("cli", "run"),
}
MODULES = ("triadbalance", "triadbalance.graphs", "triadbalance.census",
           "triadbalance.balance", "triadbalance.signstats",
           "triadbalance.cli", "triadbalance.oracle", "triadbalance.crosscheck")
#: spans whose rise of the RSS high-water mark is recorded
RSS_SPANS = ("graphs.build", "signstats.metrics")


def peak_rss_mb() -> float:
    """This process's RSS high-water mark.

    VmHWM belongs to the address space made at exec, whereas ru_maxrss also
    keeps the peak of the parent that spawned the process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def count(self, name: str, amount: float) -> None:
        key = (self.run_id, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [sid, parent, name, 0.0, 0.0, self.run_id]
            self.spans.append(span)
            self._stack.append(sid)
            rss = peak_rss_mb() if name in RSS_SPANS else None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if rss is not None:
                self.count(name + "_rss_rise_mb", peak_rss_mb() - rss)
            if name == "census.scan":
                self.count("census.triads_visited", sum(result.census.values()))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED, plus process-pool construction."""
        modules = [importlib.import_module(m) for m in MODULES]
        swapped = []
        for name, (module, attr) in WRAPPED.items():
            original = getattr(importlib.import_module(f"triadbalance.{module}"),
                               attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        swapped.append((mod, key, original))
                        setattr(mod, key, wrapper)
        tracer = self
        base_pool = multiprocessing.pool.Pool

        class CountingPool(base_pool):
            def __init__(self, *args, **kwargs):
                tracer.count("census.pool_starts", 1)
                super().__init__(*args, **kwargs)

        multiprocessing.pool.Pool = CountingPool
        try:
            yield self
        finally:
            multiprocessing.pool.Pool = base_pool
            for mod, key, original in reversed(swapped):
                setattr(mod, key, original)

    def self_times(self, run_id: int) -> dict[str, tuple[float, int]]:
        """Per span name: (self time summed over calls, calls) in one run.
        Self time is a span's duration minus that of its direct children."""
        spans = [s for s in self.spans if s[5] == run_id]
        child = {s[0]: 0.0 for s in spans}
        for sid, parent, _, start, end, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for sid, _, name, start, end, _ in spans:
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + end - start - child[sid], calls + 1)
        return out
