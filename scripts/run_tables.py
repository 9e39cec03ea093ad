#!/usr/bin/env python3
"""Run the full analysis over every dataset found under data/ and print the
headline tables: per-type balance, sign composition (directed vs undirected)
and the partial / non-partial / undirected comparison.

Report files land in reports/<dataset>/; the console output is a compact
summary read back from those files.  Datasets are discovered by extension: *.tsv (tsv-sign),
*.csv (csv-rating), *_matrix.txt (signed-matrix).

Usage:
    python3 scripts/run_tables.py [--data data] [--out reports]
"""
import argparse
import json
import sys
from pathlib import Path

from triadbalance.cli import RunConfig, run
from triadbalance.signstats import COMPOSITION_KEYS


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
        print(f"  run exited with status {status}; skipping summary")
        return

    def load(report: str) -> dict:
        return json.loads((out_dir / report).read_text(encoding="utf-8"))

    balance = load("balance.json")
    print("  type    ratio   triads")
    for entry in balance["per_type"]:
        shown = "  --" if entry["ratio"] is None else f"{entry['ratio']:.2f}"
        print(f"  {entry['type']:<6}  {shown:>5}   {entry['count']}")
    total = sum(e["count"] for e in balance["per_type"])
    print(f"  average {balance['overall_type_mean']:.2f}   {total}")

    composition = load("composition.json")
    for basis in ("directed", "undirected"):
        shares = composition[basis]["proportions"]
        keys = " ".join(f"{k}={shares[k]:.2f}" for k in COMPOSITION_KEYS)
        print(f"  composition {basis + ':':<12}{keys}")

    compare = load("compare.json")
    partial = compare["directed_partial"]["ratio"]
    nonpartial = compare["directed_nonpartial"]
    und = compare["undirected"]
    r = und["ratio"]
    print(f"  partial={partial:.2f}  "
          f"non-partial={nonpartial['ratio']:.2f} "
          f"({nonpartial['balanced']}/{nonpartial['imbalanced']})  "
          f"undirected={'--' if r is None else f'{r:.2f}'} "
          f"({und['balanced']}/{und['imbalanced']})")

    m = load("metrics.json")
    print(f"  density={m['density']:.2f} transitivity={m['transitivity']:.2f} "
          f"apl={m['avg_path_length']:.2f} "
          f"clustering={m['clustering_coefficient']:.2f}")


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
