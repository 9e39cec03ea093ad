#!/usr/bin/env python3
"""Run the full analysis over every dataset found under data/ and print the
headline tables: per-type balance, sign composition (directed vs undirected),
the partial / non-partial / undirected comparison and the network metrics.

Report files land in reports/<dataset>/; the console output is the CSV
tables of that run, printed as written.  Datasets are discovered by
extension: *.tsv (tsv-sign), *.csv (csv-rating), *_matrix.txt
(signed-matrix).

Usage:
    python3 scripts/run_tables.py [--data data] [--out reports]
"""
import argparse
import sys
from pathlib import Path

from triadbalance.cli import RunConfig, run

TABLES = ("balance.csv", "composition.csv", "compare.csv", "metrics.csv")


def _discover(data_dir: Path):
    for path in sorted(data_dir.rglob("*")):
        if path.name.endswith("_matrix.txt"):
            yield path, "signed-matrix"
        elif path.suffix == ".tsv":
            yield path, "tsv-sign"
        elif path.suffix == ".csv":
            yield path, "csv-rating"


def summarize(path: Path, fmt: str, out_root: Path) -> None:
    name = path.stem
    print(f"\n=== {name} ({fmt}) ===")
    out_dir = out_root / name
    status = run(RunConfig(input_path=str(path), input_format=fmt,
                           out_dir=str(out_dir)))
    if status != 0:
        print(f"  run exited with status {status}; skipping tables")
        return
    for table in TABLES:
        print(f"\n{table}")
        print((out_dir / table).read_text(encoding="utf-8"), end="")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data")
    parser.add_argument("--out", default="reports")
    args = parser.parse_args()
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        print(f"no data directory at {data_dir}", file=sys.stderr)
        return 1
    found = False
    for path, fmt in _discover(data_dir):
        found = True
        summarize(path, fmt, Path(args.out))
    if not found:
        print("no datasets found; see scripts/fetch_datasets.py", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
