import csv
import json
import os
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import triadbalance
import triadbalance.crosscheck
import triadbalance.oracle
from triadbalance import load_tsv
from triadbalance.census import (CLASSIFICATIONS, TRIAD_TYPES,
                                 resolve_workers)
from triadbalance.cli import RunConfig, main, run
from triadbalance.signstats import COMPOSITION_KEYS, METRIC_BASIS

REPO_ROOT = Path(__file__).resolve().parent.parent
HIGHLAND = REPO_ROOT / "data" / "highland"

TRIANGLE_TSV = """\
a\tb\t+1
b\tc\t+1
a\tc\t-1
b\ta\t+1
c\tb\t+1
c\ta\t-1
"""

CYCLE_ONLY_TSV = """\
a\tb\t+1
b\tc\t+1
c\ta\t+1
"""

# directed 3-cycle {a,b,c} plus a transitive triad {c,d,e}
CYCLE_PLUS_030T_TSV = """\
a\tb\t+1
b\tc\t+1
c\ta\t+1
c\td\t+1
d\te\t+1
c\te\t+1
"""

# mismatched reciprocal pair {u,v} attached to a transitive triad {v,x,y}
MISMATCH_TSV = """\
u\tv\t+1
v\tu\t-1
v\tx\t+1
x\ty\t+1
v\ty\t+1
"""


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_analyze_end_to_end(tmp_path):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--out", str(out)])
    assert rc == 0
    for name in ("manifest.json", "graph.tsv", "balance.json", "balance.csv",
                 "census.csv", "composition.csv", "metrics.json",
                 "compare.json"):
        assert (out / name).exists(), name
    doc = json.loads((out / "balance.json").read_text())
    assert doc["overall_type_mean"] == 0.0  # lone 300 triad, one neg pair
    assert doc["undirected"]["triangles"] == 1


def test_census_subcommand(tmp_path):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out = tmp_path / "out"
    rc = main(["census", "--input", str(data), "--out", str(out)])
    assert rc == 0
    with open(out / "census.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["triad_type", "count"]
    assert len(rows) == 17
    assert sum(int(r[1]) for r in rows[1:]) == comb(3, 3)


def test_missing_input_exits_2(tmp_path):
    rc = main(["analyze", "--input", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_malformed_input_exits_2(tmp_path):
    data = _write(tmp_path, "bad.tsv", "a\tb\n")
    rc = main(["analyze", "--input", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.tsv"
    data.write_bytes(b"a\tb\t+1\n\xff\tc\t+1\n")
    rc = main(["analyze", "--input", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: cannot read input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _bad_byte_input(fmt: str, bad_line_2: bool) -> tuple[bytes, int]:
    """An input of the format with one byte that is not UTF-8 more than
    32 KiB in, after several whole decoder chunks, and that byte's
    position; line 2's weight is malformed too if `bad_line_2`."""
    line = "n{0},n{1},{2},17\n" if fmt == "csv-rating" else "n{0}\tn{1}\t{2}\n"
    lines = [line.format(i, i + 1, "-1" if i % 3 else "1")
             for i in range(3000)]
    if bad_line_2:
        lines[1] = "a,b,much\n"
    head = "".join(lines).encode()[:32781]
    head = head[:head.rindex(b"\n") + 1]
    return head + b"\xff" + line.format(1, 2, 1).encode() * 50, len(head)


@pytest.mark.parametrize("fmt,bad_line_2", [
    ("csv-rating", False), ("tsv-sign", False), ("csv-rating", True),
], ids=["csv-rating", "regular-tsv-sign", "csv-rating-bad-weight-on-line-2"])
def test_bad_byte_exits_2_naming_its_position_in_the_input(
        tmp_path, capsys, fmt, bad_line_2):
    # the whole input is decoded before any line is parsed, so the error
    # names the byte's position in the file and wins over a parse error on
    # an earlier line
    data, position = _bad_byte_input(fmt, bad_line_2)
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    rc = main(["analyze", "--input", str(path), "--format", fmt,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot read input {path}: 'utf-8' codec can't "
                   f"decode byte 0xff in position {position}: invalid start "
                   f"byte\n")
    assert not (tmp_path / "out").exists()


def test_tsv_weight_other_than_sign_exits_2(tmp_path, capsys):
    data = _write(tmp_path, "weights.tsv", "a\tb\t+1\nb\tc\t5\n")
    rc = main(["analyze", "--input", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt,text", [
    ("csv-rating", "a,b,1,5\nb,c,1,inf\n"),
    ("signed-matrix", "0 1\nnan 0\n"),
    ("signed-matrix", "0 1\n-inf 0\n"),
], ids=["timestamp-inf", "matrix-nan", "matrix-minus-inf"])
def test_non_finite_input_exits_2_naming_line(tmp_path, capsys, fmt, text):
    data = _write(tmp_path, "input.txt", text)
    rc = main(["analyze", "--input", str(data), "--format", fmt,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt,text,message", [
    ("csv-rating", "a,b\n", "line 1: expected 3 or 4 comma fields, got 2"),
    # regular but for the empty id, so the bulk split hands it to the loop
    ("tsv-sign", "\tb\t1\nb\tc\t1\n", "line 1: empty node id"),
], ids=["csv-two-fields", "tsv-empty-id"])
def test_malformed_line_exits_2_with_its_message(tmp_path, capsys, fmt, text,
                                                 message):
    data = _write(tmp_path, "input.txt", text)
    rc = main(["analyze", "--input", str(data), "--format", fmt,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_scipy_out():
    src = Path(triadbalance.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, triadbalance.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_workers_flag_is_rejected(tmp_path, capsys):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(data), "--workers", "2",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_directory_input_exits_2(tmp_path, capsys):
    rc = main(["analyze", "--input", str(tmp_path), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert "error: cannot read input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{tsv}", "--threshold", "nan", "--out", "{out}"],
    ["analyze", "--input", "{tsv}", "--threshold", "inf", "--out", "{out}"],
    ["analyze", "--input", "{tsv}", "--emit", ",", "--out", "{out}"],
    ["analyze", "--input", "{tsv}", "--analyses", ",", "--out", "{out}"],
    ["analyze", "--input", "{tsv}", "--analyses", "bogus", "--out", "{out}"],
    ["oracle-check", "--input", "{tmp}/missing.tsv"],
    ["oracle-check", "--input", "{matrix}"],
    ["oracle-check", "--n", "-1"],
    ["gen-random", "--n", "5", "--edge-prob", "2", "--out", "{out}"],
    ["gen-random", "--n", "5", "--edge-prob", "0.2",
     "--out", "{tmp}/missing/r.tsv"],
    ["gen-random", "--n", "-1", "--edge-prob", "0.2", "--out", "{out}"],
    ["analyze", "--input", "{csv}", "--format", "csv-rating",
     "--out", "{out}"],
], ids=["threshold-nan", "threshold-inf", "empty-emit", "empty-analyses",
        "unknown-analysis", "oracle-missing-input", "oracle-matrix-as-tsv",
        "oracle-negative-n", "gen-edge-prob", "gen-missing-out-dir",
        "gen-negative-n", "csv-tab-in-id"])
def test_bad_arguments_exit_2_without_traceback(tmp_path, capsys, argv):
    paths = {"tmp": tmp_path, "out": tmp_path / "out",
             "tsv": _write(tmp_path, "g.tsv", TRIANGLE_TSV),
             "matrix": _write(tmp_path, "m.txt", "0 1 1\n1 0 1\n1 1 0\n"),
             "csv": _write(tmp_path, "tab.csv", "a\tx,b,1\nb,c,1\na\tx,c,1\n")}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change", [{"balance_mode": "x"},
                                    {"emit": ("xml",)}],
                         ids=["balance-mode", "emit"])
def test_bad_run_config_exits_2(tmp_path, capsys, change):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out = tmp_path / "out"
    assert run(RunConfig(str(data), out_dir=str(out), **change)) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--n", "5", "--seed", "-1"],
    ["gen-random", "--n", "5", "--edge-prob", "0.2", "--seed", "-1",
     "--out", "{out}"],
], ids=["oracle-check", "gen-random"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, argv):
    out = tmp_path / "r.tsv"
    assert main([arg.format(out=out) for arg in argv]) == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_zero_transitive_triads_exits_3(tmp_path):
    data = _write(tmp_path, "cycle.tsv", CYCLE_ONLY_TSV)
    out = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--analyses", "balance",
               "--out", str(out)])
    assert rc == 3
    assert not out.exists() or not any(out.iterdir())


def test_census_of_cycle_still_works(tmp_path):
    data = _write(tmp_path, "cycle.tsv", CYCLE_ONLY_TSV)
    rc = main(["census", "--input", str(data), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_compare_cancellation_list(tmp_path):
    data = _write(tmp_path, "mismatch.tsv", MISMATCH_TSV)
    out = tmp_path / "out"
    rc = main(["compare", "--input", str(data), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "compare.json").read_text())
    assert ["u", "v"] in doc["cancelled_edges"]
    assert doc["identical_realizations"] is False


def test_compare_reports_undirected_only_triangle(tmp_path):
    data = _write(tmp_path, "cycle_plus.tsv", CYCLE_PLUS_030T_TSV)
    out = tmp_path / "out"
    rc = main(["compare", "--input", str(data), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "compare.json").read_text())
    # the transitive triangle {c, d, e} is projected too, but not listed
    assert doc["undirected_only_triangles"] == [["a", "b", "c"]]
    assert doc["undirected"]["triangles"] == 2
    assert doc["directed_nonpartial"]["balanced"] == 1
    with open(out / "compare.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "partial_br"
    assert len(rows) == 2


def test_reports_are_deterministic(tmp_path):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["analyze", "--input", str(data), "--out", str(out1)]) == 0
    assert main(["analyze", "--input", str(data), "--out", str(out2)]) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        if path1.name == "manifest.json":
            m1 = json.loads(path1.read_text())
            m2 = json.loads(path2.read_text())
            m1.pop("created")
            m2.pop("created")
            assert m1 == m2
        else:
            assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_manifest_counts_match_dump(tmp_path):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(data), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    reloaded = load_tsv(out / "graph.tsv")
    assert manifest["input"]["records"] == len(TRIANGLE_TSV.splitlines())
    assert manifest["counts"]["after"]["nodes"] == reloaded.n_nodes
    assert manifest["counts"]["after"]["edges"] == reloaded.n_edges


def test_duplicated_flags_leave_the_manifest_unchanged(tmp_path):
    # the same work, asked for twice over, is recorded once
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    manifests = []
    for name, analyses, emit in (("plain", "balance,census", "json"),
                                 ("twice", "census,census,balance",
                                  "json,json")):
        out = tmp_path / name
        assert main(["analyze", "--input", str(data), "--analyses", analyses,
                     "--emit", emit, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("created")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert manifests[0]["config"]["analyses"] == ["balance", "census"]
    assert manifests[0]["config"]["emit"] == ["json"]


def test_gen_random_then_analyze(tmp_path):
    data = tmp_path / "rand.tsv"
    rc = main(["gen-random", "--n", "40", "--edge-prob", "0.2",
               "--neg-prob", "0.3", "--seed", "11", "--out", str(data)])
    assert rc == 0
    rc = main(["analyze", "--input", str(data),
               "--analyses", "balance,census",
               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_oracle_check_subcommand(capsys):
    rc = main(["oracle-check", "--n", "12", "--edge-prob", "0.3",
               "--neg-prob", "0.4", "--seed", "3"])
    assert rc == 0
    assert "oracle-check OK" in capsys.readouterr().out


def test_oracle_check_refuses_over_cap_n_before_drawing(monkeypatch, capsys):
    # the random graph takes O(n^2) to draw, so the cap is checked first
    def no_draw(*args, **kwargs):
        raise AssertionError("random graph drawn for an over-cap --n")

    monkeypatch.setattr(triadbalance.oracle, "random_signed_digraph", no_draw)
    cap = triadbalance.oracle.ORACLE_MAX_NODES
    for n in (cap + 1, 2000):
        assert main(["oracle-check", "--n", str(n)]) == 2
        assert f"at most {cap} nodes" in capsys.readouterr().err


@pytest.mark.parametrize("name,fmt", [
    ("highland_tribes.tsv", "tsv-sign"),
    ("highland_tribes_matrix.txt", "signed-matrix"),
])
def test_oracle_check_of_an_input_file(capsys, name, fmt):
    assert main(["oracle-check", "--input", str(HIGHLAND / name),
                 "--format", fmt]) == 0
    assert capsys.readouterr().out == "oracle-check OK: n=16 m=116\n"


def test_oracle_check_refuses_an_over_cap_input_file(tmp_path, capsys):
    data = tmp_path / "big.tsv"
    assert main(["gen-random", "--n", "260", "--edge-prob", "0.05",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["oracle-check", "--input", str(data)]) == 2
    assert "error: oracle supports at most 200 nodes" in capsys.readouterr().err


def test_oracle_check_mismatch_exits_1_naming_the_field(monkeypatch, capsys):
    monkeypatch.setattr(triadbalance.crosscheck, "undirected_balance",
                        lambda graph: (0, 0, 0, None))
    rc = main(["oracle-check", "--n", "12", "--edge-prob", "0.3",
               "--neg-prob", "0.4", "--seed", "3"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("MISMATCH undirected: fast=")


def test_matrix_format_via_cli(tmp_path):
    data = _write(tmp_path, "m.txt", "0 1 1\n1 0 1\n1 1 0\n")
    out = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--format", "signed-matrix",
               "--analyses", "balance", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "balance.json").read_text())
    assert doc["overall_type_mean"] == 1.0


def test_byte_order_mark_changes_nothing(tmp_path):
    # the six edges of one all-mutual triangle on a, b, c
    text = "a,b,1\nb,a,1\nb,c,1\nc,b,1\na,c,1\nc,a,1\n"
    graphs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        data = tmp_path / f"{name}.csv"
        data.write_bytes(prefix + text.encode("utf-8"))
        out = tmp_path / name
        rc = main(["analyze", "--input", str(data), "--format", "csv-rating",
                   "--out", str(out)])
        assert rc == 0, name
        graphs.append((out / "graph.tsv").read_bytes())
    assert graphs[0] == graphs[1]
    assert graphs[0].startswith(b"a\tb\t+1\n")


def _script_env() -> dict:
    """This process's environment with the package's source root first on
    PYTHONPATH, so a child imports the same package, installed or not."""
    package_root = str(Path(triadbalance.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    proc = subprocess.run(
        [sys.executable, "-m", "triadbalance.cli", "analyze",
         "--input", str(data), "--analyses", "census",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_script_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "census.csv").is_file()


def test_run_tables_script_prints_the_highland_rows(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(HIGHLAND, data / "highland")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_tables.py"),
         "--data", str(data), "--out", str(tmp_path / "reports")],
        capture_output=True, text=True, env=_script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the tables as analyze wrote them: once for the TSV, once for the matrix
    assert proc.stdout.count("\n300,0.87,68\n") == 2
    assert proc.stdout.count("\n0.87,59,0,9,0.87,59,9,0.87,59,9\n") == 2


def test_module_runs_as_a_script():
    # `python -m triadbalance.cli` reaches `main` through the __main__ guard
    proc = subprocess.run(
        [sys.executable, "-m", "triadbalance.cli", "--version"],
        capture_output=True, text=True, env=_script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"triadbalance {triadbalance.__version__}\n"


def test_unwritable_out_dir_exits_2(tmp_path, monkeypatch, capsys):
    # the output directory is checked before any report is computed
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_triads called before --out was checked")

    # `triadbalance.census` is the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["triadbalance.census"], "scan_triads",
                        no_scan)
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    blocker = _write(tmp_path, "not-a-dir", "")
    for out in (blocker, blocker / "sub"):
        rc = main(["analyze", "--input", str(data), "--out", str(out)])
        assert rc == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "not-a-dir"]


@pytest.mark.parametrize("blocked", ["graph.tsv", "balance.json"])
def test_failed_report_write_exits_2(tmp_path, capsys, blocked):
    data = _write(tmp_path, "g.tsv", TRIANGLE_TSV)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    rc = main(["analyze", "--input", str(data), "--out", str(out)])
    assert rc == 2
    assert f"error: cannot write reports to {out}: " in capsys.readouterr().err


def _schema(value):
    """A JSON document's keys, nested: a dict maps each key to its value's
    schema, a list gives its elements' distinct schemas, anything else None."""
    if isinstance(value, dict):
        return {k: _schema(v) for k, v in value.items()}
    if isinstance(value, list):
        distinct = []
        for item in map(_schema, value):
            if item not in distinct:
                distinct.append(item)
        return distinct
    return None


def test_report_json_schema(tmp_path):
    # the JSON keys are the field names of the figure dataclasses, so a
    # field added to one changes a report; this pins every layout
    data = _write(tmp_path, "mismatch.tsv", MISMATCH_TSV)
    out = tmp_path / "out"
    assert run(RunConfig(input_path=str(data), out_dir=str(out))) == 0
    docs = {path.stem: _schema(json.loads(path.read_text()))
            for path in out.glob("*.json")}
    ratio_counts = dict.fromkeys(("ratio", "balanced", "imbalanced"))
    undirected = {"triangles": None, **ratio_counts}
    classes = dict.fromkeys(CLASSIFICATIONS)
    composition = {"basis": None, "total": None,
                   "counts": dict.fromkeys(COMPOSITION_KEYS),
                   "proportions": dict.fromkeys(COMPOSITION_KEYS)}
    assert docs == {
        "census": {"n_nodes": None, "include_disconnected": None,
                   "counts": dict.fromkeys(TRIAD_TYPES)},
        "balance": {"per_type": [dict.fromkeys(("type", "count", "ratio"))],
                    "overall_type_mean": None, "overall_triad_mean": None,
                    "nonpartial": ratio_counts,
                    "classification_counts": classes,
                    "undirected": undirected,
                    "mode": None, "overall_balance": None},
        "composition": {"network": None, "directed": composition,
                        "undirected": composition},
        "metrics": {"node_count": None, "edge_count": None,
                    "component_count": None, "transitivity": None,
                    "density": None, "avg_path_length": None,
                    "clustering_coefficient": None,
                    "basis": dict.fromkeys(METRIC_BASIS)},
        "compare": {"directed_partial": {"ratio": None,
                                         "classification_counts": classes},
                    "directed_nonpartial": ratio_counts,
                    "undirected": undirected,
                    "cancelled_edges": [[None]],
                    "undirected_only_triangles": [],
                    "identical_realizations": None},
        "manifest": {"tool": None, "version": None, "created": None,
                     "input": dict.fromkeys(("path", "sha256", "format",
                                             "records")),
                     "config": {"sign_threshold": None,
                                "aggregate_rule": None,
                                "prune_pendants": None,
                                "keep_component": None,
                                "balance_mode": None, "analyses": [None],
                                "emit": [None]},
                     "counts": {"before": {"nodes": None, "edges": None},
                                "after": {"nodes": None, "edges": None}},
                     "reports": [None]},
    }


def test_worker_budget_capped_by_cpus():
    # the request is capped by the CPUs this process may run on
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert resolve_workers(8) == min(8, cpus)
    assert resolve_workers(10**6) == cpus
