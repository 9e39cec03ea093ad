#!/usr/bin/env python3
"""Run tier-1 in this process under a line trace of the package and list
what never ran: executable lines, and `if`/`elif`/`while`/`for` headers that
ran with only one of their two outcomes.

The trace (`sys.settrace` and `threading.settrace`) is installed before the
package is imported, so import-time lines count.  Only the standard library
is used for the trace itself; tier-1 runs through `pytest.main`.

Executable lines are those `co_lines()` gives for the code objects compiled
from each `src/triadbalance/*.py`, without line 0.  A nested code object's
own first line is left to the code that encloses it: that line is a `def`,
`class` or first decorator line, which counts as run when the enclosing code
defines the function or class.  So `def` and decorator lines count, module
and class docstrings (assignments run at import) count, and function
docstrings, which compile to nothing, do not.

A header's outcome is read from the next line its frame runs once the
header's own lines are done: inside the body is one outcome (`if` true, a
loop entered), anywhere else, or the frame returning, the other.  A header
whose expression raised gives neither.  `while True:` has one outcome by
construction and is left out.  Branches inside one line (conditional
expressions, comprehensions, `and`/`or`) are not seen.

The body of the `if __name__ == "__main__":` guard runs only when a test
starts the module in a subprocess, which this trace does not follow; its
lines are listed, marked as such.  `oracle.py`, the brute-force reference,
is listed apart.

Hypothesis draws from a fixed seed, so two runs on one tree print the same
listing.  pytest's own output and the run time go to stderr.

Usage (from the repository root):
    python3 scripts/trace_lines.py
"""
import ast
import contextlib
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triadbalance"
APART = "oracle.py"
OUTCOMES = {"if": ("always true", "always false"),
            "elif": ("always true", "always false"),
            "while": ("never left by its test", "never entered"),
            "for": ("never exhausted", "never entered")}


class Header:
    """One branch header: the lines of its own expression and of its body."""

    def __init__(self, kind: str, node: ast.AST, test: ast.AST):
        self.kind = kind
        self.line = node.lineno
        self.own = range(node.lineno, test.end_lineno + 1)
        self.body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)


class Source:
    """One traced file: its executable lines, headers and `__main__` guard,
    and what the trace saw of them."""

    def __init__(self, path: Path):
        self.name = path.name
        text = path.read_text(encoding="utf-8")
        self.lines = set()
        codes = [(compile(text, str(path), "exec"), False)]
        while codes:
            code, nested = codes.pop()
            table = {line for _, _, line in code.co_lines() if line}
            if nested:
                # only the code's prologue; the enclosing code holds the line
                table.discard(code.co_firstlineno)
            self.lines |= table
            codes += [(c, True) for c in code.co_consts
                      if hasattr(c, "co_lines")]
        self.headers: dict[int, Header] = {}
        source_lines = text.splitlines()
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.If):
                kind = ("elif" if source_lines[node.lineno - 1].lstrip()
                        .startswith("elif") else "if")
                header = Header(kind, node, node.test)
            elif isinstance(node, ast.While):
                if isinstance(node.test, ast.Constant) and node.test.value:
                    continue
                header = Header("while", node, node.test)
            elif isinstance(node, ast.For):
                header = Header("for", node, node.iter)
            else:
                continue
            if header.body.start in header.own:
                continue  # a body on the header's line: no outcome to read
            for line in header.own:
                self.headers[line] = header
        self.subprocess_only = set()
        for node in tree.body:
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                    and ast.unparse(node.test) == "__name__ == '__main__'"):
                self.subprocess_only |= set(range(node.body[0].lineno,
                                                  node.end_lineno + 1))
                self.subprocess_only.add(node.lineno)
        self.run: set[int] = set()
        self.outcomes: set[tuple[int, bool]] = set()


class FrameTrace:
    """The local trace of one frame: lines run, and the header waiting for
    its outcome."""

    __slots__ = ("source", "pending")

    def __init__(self, source: Source):
        self.source = source
        self.pending = None

    def __call__(self, frame, event, arg):
        pending = self.pending
        if event == "line":
            line = frame.f_lineno
            self.source.run.add(line)
            if pending is not None:
                if line in pending.own:
                    return self
                self.source.outcomes.add((pending.line, line in pending.body))
            self.pending = self.source.headers.get(line)
        elif pending is not None:
            if event == "return":
                self.source.outcomes.add((pending.line, False))
            if event in ("return", "exception"):
                self.pending = None
        return self


def _ranges(lines) -> list[str]:
    """Sorted line numbers as `a` or `a-b` runs of consecutive numbers."""
    out: list[list[int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def _report(sources: list[Source]) -> list[str]:
    headers = sum(len({h.line for h in s.headers.values()}) for s in sources)
    out = [f"executable lines: {sum(len(s.lines) for s in sources)}",
           f"branch headers: {headers}, "
           f"{sum(len(s.outcomes) for s in sources)} outcomes seen of "
           f"{2 * headers}"]
    for source in sources:
        never = sorted(source.lines - source.run)
        for span in _ranges(l for l in never
                            if l not in source.subprocess_only):
            out.append(f"never run: {source.name}:{span}")
        for span in _ranges(l for l in never if l in source.subprocess_only):
            out.append(f"run only in subprocesses: {source.name}:{span}")
    for source in sources:
        seen = {}
        for line, taken in source.outcomes:
            seen.setdefault(line, set()).add(taken)
        for line in sorted(seen):
            if len(seen[line]) == 1:
                header = source.headers[line]
                note = OUTCOMES[header.kind][0 if True in seen[line] else 1]
                where = (" (run only in subprocesses otherwise)"
                         if line in source.subprocess_only else "")
                out.append(f"one outcome: {source.name}:{line} "
                           f"{header.kind} {note}{where}")
    return out


def main() -> int:
    sources = {str(path): Source(path)
               for path in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        # the 'call' event: trace the frame's lines only in the package
        source = sources.get(frame.f_code.co_filename)
        return None if source is None else FrameTrace(source)

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    import pytest  # imports no part of the package

    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    elapsed = time.perf_counter() - start
    intact = sys.gettrace() is trace
    sys.settrace(None)
    threading.settrace(None)
    loaded = sys.modules.get("triadbalance")
    if loaded is None or Path(loaded.__file__).parent != PACKAGE:
        print(f"error: tier-1 did not import the package from {PACKAGE}",
              file=sys.stderr)
        return 1
    if not intact:
        print("error: something replaced the trace during the run",
              file=sys.stderr)
        return 1
    print(f"tier-1 under the trace: {elapsed:.1f} s, pytest exit status "
          f"{int(status)}", file=sys.stderr)
    main_sources = [s for s in sources.values() if s.name != APART]
    apart = [s for s in sources.values() if s.name == APART]
    print("\n".join(_report(main_sources)))
    print(f"\n{APART}, the brute-force reference:")
    print("\n".join(_report(apart)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
