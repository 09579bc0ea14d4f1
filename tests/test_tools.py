import ast
import importlib.util
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from overlap import cli
from overlap.generate import gen_blocks
from overlap.pipeline import LAYERS

from conftest import FAM_A_TEXT

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")
code_lines = load_tool("code_lines")
layer_times = load_tool("layer_times")
output_digests = load_tool("output_digests")
phase_memory = load_tool("phase_memory")
bench_check = load_tool("check", ROOT / "benchmark")

SOURCE = '''"""Module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f():
    """Function docstring."""

    x = """a string
that is not
a docstring"""
    return x


class C:
    """Class docstring
    over two lines."""

    y = 1
'''


@pytest.mark.parametrize("source, count", [
    ('"""Docstring only."""\n\n# a comment\n\n', 0),
    ('def f():\n    """Docstring."""\n    # comment\n\n    return 1\n', 2),
    ('x = """a\nb\n\nc"""\n', 4),
    (SOURCE, 8),
], ids=["docstring_and_comments", "function", "string", "module"])
def test_code_lines_counts(tmp_path, source, count):
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert code_lines.code_lines(path) == count


def test_code_lines_totals_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"


def test_code_lines_usage():
    assert code_lines.main([]) == 2


def digest_lines(capsys, *paths):
    assert output_digests.main([str(p) for p in paths]) == 0
    return capsys.readouterr().out.splitlines()


def test_output_digests_ten_modes_per_file(tmp_path, capsys):
    first = tmp_path / "fam_a.txt"
    first.write_text(FAM_A_TEXT)
    second = tmp_path / "pair.txt"
    second.write_text("a b\nb c\n")
    lines = digest_lines(capsys, first, second)
    assert len(lines) == 20
    for k, line in enumerate(lines):
        m = re.fullmatch(r"([0-9a-f]{64})  (.+?) +(\S+)", line)
        assert m, line
        assert m.group(2) == output_digests.MODES[k % 10]
        assert m.group(3) == str(first if k < 10 else second)
    # different outputs give different digests
    assert len({line.split()[0] for line in lines}) > 10
    assert digest_lines(capsys, first, second) == lines


def test_output_digests_errors(tmp_path, capsys):
    assert output_digests.main([]) == 2
    bad = tmp_path / "empty_line.txt"
    bad.write_text("a b\n\nc\n")
    assert output_digests.main([str(bad)]) == 1
    assert "exited" in capsys.readouterr().err


def test_layer_times_prints_one_table_row(tmp_path, capsys):
    path = tmp_path / "fam_a.txt"
    path.write_text(FAM_A_TEXT)
    assert layer_times.main([str(path), "--repeats", "2"]) == 0
    header, row = [[cell.strip() for cell in line.split("|")[1:-1]]
                   for line in capsys.readouterr().out.splitlines()]
    assert header == ["parse", *LAYERS, "JSON out"]
    values = [float(cell) for cell in row]
    assert len(values) == len(header) and min(values) >= 0
    with pytest.raises(SystemExit):
        layer_times.main([str(path), "--repeats", "0"])


def test_layer_times_reads_the_pipeline_record():
    # the layers come from run_pipeline's times, not from a copy of its
    # calls into the modules that implement them
    tree = ast.parse((TOOLS / "layer_times.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "overlap.pipeline" in modules
    assert not modules & {"overlap.subgraph", "overlap.dgraph",
                          "overlap.maxcomp"}


def test_phase_memory_prints_one_table_row(tmp_path, capsys):
    path = tmp_path / "blocks.txt"
    path.write_text(gen_blocks(400, 600, 40, 7))
    assert phase_memory.main([str(path)]) == 0
    header, row = [[cell.strip() for cell in line.split("|")[1:-1]]
                   for line in capsys.readouterr().out.splitlines()]
    assert header == ["load peak", "load live", "pipeline peak",
                      "pipeline live", "JSON out peak", "JSON out live"]
    assert len(row) == len(header)
    figures = phase_memory.phase_memory(str(path))
    assert not tracemalloc.is_tracing()
    # each phase peaks at or above what it leaves live, and the family
    # and then the result stay live into the next phase
    for peak, live in zip(figures[::2], figures[1::2]):
        assert peak >= live > 0
    assert figures[1] <= figures[3] <= figures[5]
    with pytest.raises(SystemExit):
        phase_memory.main([])


def test_benchmark_exact_check_passes_on_forest_json(tmp_path):
    # the benchmark's small exact check, which its ok_frac counts: the
    # oracle's classes and Max, and a self-test that corruptions fail
    text = gen_blocks(64, 120, 8, 7)
    path = tmp_path / "blocks.txt"
    path.write_text(text)
    out = io.StringIO()
    assert cli.main(["forest", "--json", str(path)], out=out) == 0
    payload = json.loads(out.getvalue())
    sets = bench_check.read_sets(text)
    assert bench_check.check_payload(sets, payload, block_width=8) == []
    assert bench_check.oracle_problems(text, payload) == []
    assert bench_check.self_test(sets, text, payload) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_bench_pairs_medians_and_wins_match_the_summary(path):
    doc = json.loads(path.read_text())
    sets = bench_pairs.run_sets(doc)
    summaries = [doc["summary"]] + [doc[name]["summary"]
                                    for name, _ in sets[1:]]
    for (_, runs), summary in zip(sets, summaries):
        rows = {(r["workload"], r["metric"]): r
                for r in bench_pairs.verdicts(runs)}
        workloads = {w for w, _ in rows}
        if set(summary) <= {e["name"] for e in bench_pairs.end_to_end()}:
            # a set of one workload's runs keeps its summary by metric
            summary = {w: summary for w in workloads}
        assert workloads == set(summary)
        for workload, metrics in summary.items():
            for metric, s in metrics.items():
                row = rows[workload, metric]
                assert row["pairs"] == s["pairs"]
                assert row["parent_median"] == s["parent_median"]
                assert row["change_median"] == s["change_median"]
                assert row["raw"][0] == s["change_wins"]


def synthetic_runs(shift, noise, host):
    """Ten pairs of one workload: the parent's e2e_s is 1 + noise[i], the
    change's that times shift and times host[i], the host's slowdown in
    the change's run, which its host.calib_s shows."""
    runs = []
    for seed, (d, h) in enumerate(zip(noise, host)):
        for side, value, calib in (("parent", 1 + d, 0.1),
                                   ("change", (1 + d) * shift * h, 0.1 * h)):
            metrics = {e["name"]: {"value": 1.0}
                       for e in bench_pairs.end_to_end()}
            metrics["e2e_s"] = {"value": value}
            runs.append({"workload": "w", "seed": seed, "side": side,
                         "trace": 0, "host.calib_s": calib,
                         "result": {"metrics": metrics}})
    return runs


def test_bench_pairs_interval_holds_a_known_shift(tmp_path, capsys):
    noise = [0.03, -0.02, 0.01, 0.0, -0.04, 0.02, 0.05, -0.01, 0.04, -0.03]
    host = [1.06, 0.94, 1.02, 0.97, 1.08, 0.99, 0.93, 1.04, 1.01, 0.96]
    doc = {"runs": synthetic_runs(1.05, noise, host)}
    row = next(r for r in bench_pairs.verdicts(doc["runs"])
               if r["metric"] == "e2e_s")
    shift = math.log(1.05)
    wins, median, (lo, hi, coverage) = row["raw"]
    assert lo < shift < hi and coverage > 0.97
    # the host's swings widen the raw interval; the adjusted one is the
    # shift alone, and every pair lost it once the host is taken out
    assert wins == 2 and hi - lo > 0.1
    wins, median, (lo, hi, _) = row["adjusted"]
    assert wins == 0
    assert median == pytest.approx(shift) and hi - lo < 1e-9
    assert row["parent_median"] == pytest.approx(1.005)
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(doc))
    assert bench_pairs.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == bench_pairs.HEADER
    assert "| main | w | e2e_s | adjusted |  |  | 0 of 10 | +0.0488 |" in (
        "\n".join(lines))
    assert bench_pairs.main([]) == 2


@pytest.mark.parametrize("n, k, coverage", [(5, 0, None), (6, 1, 0.96875),
                                            (10, 2, 0.978515625)])
def test_bench_pairs_interval_order_statistics(n, k, coverage):
    got = bench_pairs.interval(list(range(n, 0, -1)))
    if k == 0:
        assert got is None
    else:
        assert got == (k, n + 1 - k, coverage)
