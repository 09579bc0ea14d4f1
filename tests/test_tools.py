import ast
import importlib.util
import re
import tracemalloc
from pathlib import Path

import pytest

from overlap.generate import gen_blocks
from overlap.pipeline import LAYERS

from conftest import FAM_A_TEXT

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
layer_times = load_tool("layer_times")
output_digests = load_tool("output_digests")
phase_memory = load_tool("phase_memory")

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
