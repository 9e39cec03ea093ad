"""Command-line front end: reproducible analysis runs with report files.

Subcommands: analyze, census, compare, oracle-check, gen-random.  Every
analysis run writes a manifest recording the configuration, an input
checksum and the node/edge counts before and after preprocessing, plus the
preprocessed graph in the canonical TSV dump, so any run can be replayed
and audited.  Reports are deterministic; only the manifest carries a
timestamp.  The figure modules return figures; this module lays out every
report from them.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, balance, oracle, signstats
from .census import TRIAD_TYPES, census, tallies_of
from .errors import FormatError, ParseError, UndefinedResultError
from .graphs import (INPUT_FORMATS, PreprocessConfig, SignedDigraph,
                     build_graph, dump_tsv, load_edge_records, preprocess)

ANALYSES = ("census", "balance", "composition", "metrics", "undirected-compare")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_TRIADS = 3

_AGGREGATE_FLAG = {"sum": "sum-then-sign", "last": "last-record",
                   "mean": "mean-then-sign"}


@dataclass
class RunConfig:
    input_path: str
    input_format: str = "tsv-sign"
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    analyses: tuple[str, ...] = ANALYSES
    balance_mode: str = "type-mean"
    out_dir: str = "reports"
    emit: tuple[str, ...] = ("json", "csv")
    #: read by nothing here; kept because the benchmark under `bench/`
    #: sets it
    workers: int | None = None

    def validate(self) -> None:
        if not self.analyses:
            raise ValueError("at least one analysis must be selected")
        if not self.emit:
            raise ValueError("at least one emit format must be selected")
        unknown = set(self.analyses) - set(ANALYSES)
        if unknown:
            raise ValueError(f"unknown analyses: {sorted(unknown)}")
        if self.balance_mode not in balance.BALANCE_MODES:
            raise ValueError(f"unknown balance mode {self.balance_mode!r}")
        if not set(self.emit) <= {"json", "csv"}:
            raise ValueError("emit formats must be a subset of {json, csv}")


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _load_preprocessed(
        config: RunConfig) -> tuple[SignedDigraph, SignedDigraph, int, str]:
    """The built and the preprocessed graph, the number of records read and
    the input's sha256, from one read of the input file."""
    data = Path(config.input_path).read_bytes()
    input_sha256 = hashlib.sha256(data).hexdigest()
    records = load_edge_records(data, config.input_format)
    del data
    built = build_graph(records, config.preprocess)
    pre = preprocess(built, config.preprocess)
    return built, pre, len(records.weights), input_sha256


def _two_places(ratio: float | None) -> str:
    """A ratio as a table cell: two decimals, empty when it is undefined."""
    return "" if ratio is None else f"{ratio:.2f}"


def _balance_doc(report: balance.BalanceReport) -> dict:
    """`balance.json` without its mode and undirected blocks."""
    return {
        "per_type": [{"type": tb.type, "count": tb.triad_count,
                      "ratio": tb.ratio} for tb in report.per_type],
        "overall_type_mean": report.overall_type_mean,
        "overall_triad_mean": report.overall_triad_mean,
        "nonpartial": dict(zip(("ratio", "balanced", "imbalanced"),
                               report.nonpartial)),
        "classification_counts": dict(report.classification_counts),
    }


def _undirected_doc(graph: SignedDigraph) -> dict:
    return dict(zip(("triangles", "balanced", "imbalanced", "ratio"),
                    balance.undirected_balance(graph)))


def compare_report(graph: SignedDigraph) -> dict:
    """Side-by-side directed-partial / directed-non-partial / undirected
    figures, plus the projection's cancellation and inflation artefacts."""
    tallies = tallies_of(graph)
    doc = _balance_doc(balance.build_report(graph))
    # projected triangles are the digraph's triangles without a cancelled
    # pair; those of a non-transitive class are inflation by the projection
    undirected_only = [list(tri) for tri in tallies.undirected_only]
    cancelled = [list(p) for p in tallies.cancelled]
    return {
        "directed_partial": {
            "ratio": doc["overall_type_mean"],
            "classification_counts": doc["classification_counts"],
        },
        "directed_nonpartial": doc["nonpartial"],
        "undirected": _undirected_doc(graph),
        "cancelled_edges": cancelled,
        "undirected_only_triangles": undirected_only,
        "identical_realizations": not cancelled and not undirected_only,
    }


def _balance_csv_rows(report: balance.BalanceReport) -> list:
    """The paper's per-type table: type, ratio and triad count, then the
    type-mean over all triads."""
    rows = [["type", "ratio", "triads"]]
    rows += [[tb.type, _two_places(tb.ratio), tb.triad_count]
             for tb in report.per_type]
    rows.append(["average", _two_places(report.overall_type_mean),
                 sum(tb.triad_count for tb in report.per_type)])
    return rows


def _metrics_csv_rows(measured: signstats.GraphMetrics) -> list:
    return [["measure", "value"], ["nodes", measured.node_count],
            ["edges", measured.edge_count],
            ["components", measured.component_count],
            ["transitivity", _two_places(measured.transitivity)],
            ["density", _two_places(measured.density)],
            ["avg_path_length", _two_places(measured.avg_path_length)],
            ["clustering_coefficient",
             _two_places(measured.clustering_coefficient)]]


def _compare_csv_rows(doc: dict) -> list:
    header = ["partial_br", "completely_balanced", "partially_balanced",
              "completely_imbalanced", "nonpartial_br", "nonpartial_bt",
              "nonpartial_it", "undirected_br", "undirected_bt",
              "undirected_it"]
    cc = doc["directed_partial"]["classification_counts"]
    nonpartial, und = doc["directed_nonpartial"], doc["undirected"]
    row = [_two_places(doc["directed_partial"]["ratio"]),
           cc["completely_balanced"], cc["partially_balanced"],
           cc["completely_imbalanced"], _two_places(nonpartial["ratio"]),
           nonpartial["balanced"], nonpartial["imbalanced"],
           _two_places(und["ratio"]), und["balanced"], und["imbalanced"]]
    return [header, row]


def _reports(config: RunConfig, graph: SignedDigraph) -> dict[str, object]:
    """Report file name -> JSON document or CSV rows, for every selected
    analysis and emit format.  Raises UndefinedResultError when a selected
    figure is undefined, such as balance without transitive triads."""
    analyses = set(config.analyses)
    docs: dict[str, tuple[dict, list]] = {}

    if "census" in analyses:
        table = census(graph)
        docs["census"] = (asdict(table), [["triad_type", "count"]] + [
            [cls, table.counts[cls]] for cls in TRIAD_TYPES])

    if "balance" in analyses:
        report = balance.build_report(graph)
        doc = _balance_doc(report)
        if "undirected-compare" in analyses:
            doc["undirected"] = _undirected_doc(graph)
        doc["mode"] = config.balance_mode
        doc["overall_balance"] = (report.overall_type_mean
                                  if config.balance_mode == "type-mean"
                                  else report.overall_triad_mean)
        docs["balance"] = (doc, _balance_csv_rows(report))

    if "composition" in analyses:
        table = signstats.composition_directed(graph)
        und_table = signstats.composition_undirected(graph)
        name = Path(config.input_path).stem
        docs["composition"] = (
            {"network": name, "directed": asdict(table),
             "undirected": asdict(und_table)},
            [["network", "basis", "ppp", "pnn", "ppn", "nnn", "total"]] + [
                [name, t.basis, *(_two_places(t.proportions[k])
                                  for k in signstats.COMPOSITION_KEYS),
                 t.total] for t in (table, und_table)])

    if "metrics" in analyses:
        measured = signstats.metrics(graph)
        docs["metrics"] = (asdict(measured) | {"basis": signstats.METRIC_BASIS},
                           _metrics_csv_rows(measured))

    if "undirected-compare" in analyses:
        doc = compare_report(graph)
        docs["compare"] = (doc, _compare_csv_rows(doc))

    reports: dict[str, object] = {}
    for stem, (doc, rows) in docs.items():
        if "json" in config.emit:
            reports[f"{stem}.json"] = doc
        if "csv" in config.emit:
            reports[f"{stem}.csv"] = rows
    return reports


def run(config: RunConfig) -> int:
    """Execute the selected analyses and write one report file per analysis.

    Every report is computed before the first file is written, so a run
    that fails on its input or its figures leaves no report directory
    behind it.  A failed write, such as a directory in a report's place,
    exits 2 and keeps the files written before it.
    """
    try:
        config.validate()
    except ValueError as exc:
        return _input_error(exc)
    if not os.path.exists(config.input_path):
        return _input_error(f"input file not found: {config.input_path}")
    # checked before the input is read, but created only once every report
    # is computed, so a run that fails leaves no directory behind
    out_dir = Path(config.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        return _input_error(f"cannot create output directory {out_dir}: "
                            f"{existing} is not a writable directory")
    try:
        built, pre, n_records, input_sha256 = _load_preprocessed(config)
    except (ParseError, FormatError) as exc:
        return _input_error(exc)
    except (UnicodeDecodeError, OSError) as exc:
        return _input_error(f"cannot read input {config.input_path}: {exc}")

    try:
        reports = _reports(config, pre)
    except UndefinedResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TRIADS

    manifest = {
        "tool": "triadbalance",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "input": {
            "path": os.path.abspath(config.input_path),
            "sha256": input_sha256,
            "format": config.input_format,
            "records": n_records,
        },
        "config": {
            **asdict(config.preprocess),
            "balance_mode": config.balance_mode,
            "analyses": sorted(set(config.analyses)),
            "emit": sorted(set(config.emit)),
        },
        "counts": {
            "before": {"nodes": built.n_nodes, "edges": built.n_edges},
            "after": {"nodes": pre.n_nodes, "edges": pre.n_edges},
        },
        "reports": sorted(["graph.tsv", *reports]),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_tsv(pre, out_dir / "graph.tsv")
        for name, payload in reports.items():
            if name.endswith(".json"):
                _write_json(out_dir / name, payload)
            else:
                _write_csv(out_dir / name, payload)
        _write_json(out_dir / "manifest.json", manifest)
    except OSError as exc:
        return _input_error(f"cannot write reports to {out_dir}: {exc}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input dataset path")
    parser.add_argument("--format", default="tsv-sign", choices=INPUT_FORMATS,
                        help="input format (default tsv-sign)")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="sign threshold (default 0)")
    parser.add_argument("--aggregate", default="sum",
                        choices=sorted(_AGGREGATE_FLAG),
                        help="aggregation for parallel records (default sum)")
    parser.add_argument("--no-prune-pendants", action="store_true",
                        help="keep degree-1 nodes")
    parser.add_argument("--component", default="giant",
                        choices=("giant", "all"),
                        help="component selection (default giant)")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--emit", default="json,csv",
                        help="comma list of output formats (json,csv)")


def _config_from_args(args: argparse.Namespace,
                      analyses: tuple[str, ...]) -> RunConfig:
    return RunConfig(
        input_path=args.input,
        input_format=args.format,
        preprocess=PreprocessConfig(
            sign_threshold=args.threshold,
            aggregate_rule=_AGGREGATE_FLAG[args.aggregate],
            prune_pendants=not args.no_prune_pendants,
            keep_component=args.component,
        ),
        analyses=analyses,
        balance_mode=getattr(args, "balance_mode", "type-mean"),
        out_dir=args.out,
        emit=tuple(s.strip() for s in args.emit.split(",") if s.strip()),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadbalance",
        description="Partial structural balance for signed directed networks")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run selected analyses")
    _add_common(analyze)
    analyze.add_argument("--analyses",
                         default=",".join(ANALYSES),
                         help="comma list from: " + ", ".join(ANALYSES))
    analyze.add_argument("--balance-mode", default="type-mean",
                         choices=balance.BALANCE_MODES, dest="balance_mode")

    census_p = sub.add_parser("census", help="triad census only")
    _add_common(census_p)

    compare_p = sub.add_parser("compare",
                               help="directed vs undirected comparison")
    _add_common(compare_p)

    oracle_p = sub.add_parser("oracle-check",
                              help="compare the fast path against the "
                                   "brute-force reference (debugging)")
    oracle_p.add_argument("--input", help="optional input dataset")
    oracle_p.add_argument("--format", default="tsv-sign",
                          choices=INPUT_FORMATS)
    oracle_p.add_argument("--n", type=int, default=20)
    oracle_p.add_argument("--edge-prob", type=float, default=0.3)
    oracle_p.add_argument("--neg-prob", type=float, default=0.3)
    oracle_p.add_argument("--seed", type=int, default=7)

    gen = sub.add_parser("gen-random", help="write a random signed digraph")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--edge-prob", type=float, required=True)
    gen.add_argument("--neg-prob", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output TSV path")
    return parser


def _oracle_check(args: argparse.Namespace) -> int:
    from .oracle import ORACLE_MAX_NODES, random_signed_digraph

    n = args.n
    try:
        if args.input:
            records = load_edge_records(args.input, args.format)
            graph = preprocess(build_graph(records))
            n = graph.n_nodes
        # checked before a random graph is drawn, in O(n^2) time and memory
        if n > ORACLE_MAX_NODES:
            raise ValueError(
                f"oracle supports at most {ORACLE_MAX_NODES} nodes")
        if not args.input:
            graph = random_signed_digraph(n, args.edge_prob, args.neg_prob,
                                          args.seed)
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    from .crosscheck import compare_with_oracle
    mismatches = compare_with_oracle(graph)
    if mismatches:
        for field_name, fast, slow in mismatches:
            print(f"MISMATCH {field_name}: fast={fast!r} oracle={slow!r}")
        return 1
    print(f"oracle-check OK: n={graph.n_nodes} m={graph.n_edges}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "oracle-check":
        return _oracle_check(args)
    if args.command == "gen-random":
        try:
            graph = oracle.random_signed_digraph(args.n, args.edge_prob,
                                                 args.neg_prob, args.seed)
            dump_tsv(graph, args.out)
        except (ValueError, OSError) as exc:
            return _input_error(exc)
        print(f"wrote {graph.n_edges} edges over {graph.n_nodes} nodes "
              f"to {args.out}")
        return EXIT_OK
    if args.command == "analyze":
        analyses = tuple(s.strip() for s in args.analyses.split(",") if s.strip())
    else:
        analyses = {"census": ("census",),
                    "compare": ("undirected-compare",)}[args.command]
    try:
        config = _config_from_args(args, analyses)
    except ValueError as exc:  # e.g. a non-finite --threshold
        return _input_error(exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
