import hashlib
import io
import json
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import overlap.cli as cli
import overlap.family
from overlap.family import parse_family
from overlap.generate import (gen_blocks, gen_nested, gen_random,
                              gen_random_sets, gen_star)
from overlap.pipeline import LAYERS, run_pipeline

from conftest import FAM_A_TEXT, random_family, seeded_rng


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def fam_a_file(tmp_path):
    path = tmp_path / "fam_a.txt"
    path.write_text(FAM_A_TEXT)
    return str(path)


class TestClasses:

    def test_text(self, fam_a_file):
        code, out = run_cli("classes", fam_a_file)
        assert code == 0
        assert out == "X1 0\nX2 0\nX3 0\nX4 1\n"

    def test_json(self, fam_a_file):
        code, out = run_cli("classes", "--json", fam_a_file)
        assert code == 0
        # the exact line the README shows
        assert out == ('{"classes": [[1, 2, 3], [4]], "max": [2, 1, 2, null],'
                       ' "edges": [[1, 2], [2, 3]]}\n')

    def test_single_set(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("a b\n")
        code, out = run_cli("classes", str(path))
        assert code == 0
        assert out == "X1 0\n"

    def test_comments_only_is_error(self, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("# nothing\n")
        code, _ = run_cli("classes", str(path))
        assert code == 2

    def test_empty_line_is_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n\n")
        code, _ = run_cli("classes", str(path))
        assert code == 2

    def test_missing_file_is_error(self):
        code, _ = run_cli("classes", "/nonexistent/family.txt")
        assert code == 2


class TestMaxCommand:

    def test_text(self, fam_a_file):
        code, out = run_cli("max", fam_a_file)
        assert code == 0
        assert out == "X1 -> X2\nX2 -> X1\nX3 -> X2\nX4 -> none\n"


class TestSubgraphForest:

    def test_subgraph_text(self, fam_a_file):
        code, out = run_cli("subgraph", fam_a_file)
        assert code == 0
        assert out == "X1 X2\nX2 X3\n"

    def test_subgraph_dot(self, fam_a_file):
        code, out = run_cli("subgraph", "--dot", fam_a_file)
        assert code == 0
        assert out.startswith("graph overlap_subgraph {")
        assert out.rstrip().endswith("}")
        for i in range(1, 5):
            assert "X%d;" % i in out
        assert "X1 -- X2;" in out

    def test_forest_text(self, fam_a_file):
        code, out = run_cli("forest", fam_a_file)
        assert code == 0
        assert out == "tree X1: X1-X2 X2-X3\ntree X4: \n"

    def test_forest_dot(self, fam_a_file):
        code, out = run_cli("forest", "--dot", fam_a_file)
        assert code == 0
        assert "X1 -- X2;" in out and "X2 -- X3;" in out

    def test_forest_json(self, fam_a_file):
        code, out = run_cli("forest", "--json", fam_a_file)
        payload = json.loads(out)
        assert payload["forest"] == [
            {"root": 1, "edges": [[1, 2], [2, 3]]},
            {"root": 4, "edges": []},
        ]


class TestVerify:

    def test_pass(self, fam_a_file):
        code, out = run_cli("verify", fam_a_file)
        assert code == 0
        assert "forest: ok (2 trees)" in out
        assert out.endswith("PASS\n")

    def test_star_pass(self, tmp_path):
        path = tmp_path / "star.txt"
        run_cli("gen", "star", "--m", "100", "--out", str(path))
        code, out = run_cli("verify", str(path))
        assert code == 0
        assert "classes: ok (1 classes)" in out

    def test_cap_exceeded_exit_3(self, fam_a_file, monkeypatch):
        monkeypatch.setenv("OVERLAP_ORACLE_CAP", "2")
        code, _ = run_cli("verify", fam_a_file)
        assert code == 3

    def test_corrupted_edge_fails_with_diff(self, fam_a_file, monkeypatch):
        real = cli.run_pipeline

        def corrupt(f):
            res = real(f)
            res.subgraph.edges.append((0, 2))  # X1 and X3 are disjoint
            return res

        monkeypatch.setattr(cli, "run_pipeline", corrupt)
        code, out = run_cli("verify", fam_a_file)
        assert code == 1
        assert "subgraph: MISMATCH" in out
        assert "non-overlap edge X1 X3" in out
        assert out.endswith("FAIL\n")

    @pytest.mark.parametrize("edge", [(0, 2), (0, 1)])
    def test_corrupted_tree_edge_fails(self, fam_a_file, monkeypatch, edge):
        """A tree edge that is no subgraph edge, or that closes a cycle,
        fails the forest check and names the tree's root."""
        real = cli.run_pipeline

        def corrupt(f):
            res = real(f)
            res.forest.tree_edges[0][1] = edge  # was (1, 2)
            return res

        monkeypatch.setattr(cli, "run_pipeline", corrupt)
        code, out = run_cli("verify", fam_a_file)
        assert code == 1
        assert "forest: MISMATCH\n  bad tree of X1\n" in out
        assert "subgraph: ok" in out
        assert out.endswith("FAIL\n")

    def test_report_sections_and_faults_in_order(self, fam_a_file,
                                                 monkeypatch):
        """A class, a Max and a tree fault: the sections come in the order
        classes, max, subgraph, forest, each with its faults in order."""
        real = cli.run_pipeline

        def corrupt(f):
            res = real(f)
            res.labeling.classes = [[0, 1], [2], [3]]  # was [[0, 1, 2], [3]]
            res.maxes.partners[0] = -1  # was X2
            res.maxes.partners[3] = 0  # was none
            return res

        monkeypatch.setattr(cli, "run_pipeline", corrupt)
        code, out = run_cli("verify", fam_a_file)
        assert code == 1
        assert out == ("classes: MISMATCH\n"
                       "  fast only: {X1, X2}\n"
                       "  fast only: {X3}\n"
                       "  oracle only: {X1, X2, X3}\n"
                       "max: MISMATCH\n"
                       "  X1: fast none oracle X2\n"
                       "  X4: fast X1 oracle none\n"
                       "subgraph: ok (2 edges, all overlaps)\n"
                       "forest: MISMATCH\n"
                       "  bad tree of X1\n"
                       "FAIL\n")

    def test_reads_no_list_of_every_overlapping_pair(self, fam_a_file,
                                                     monkeypatch):
        """The subgraph check asks the oracle's predicate about each edge,
        so the oracle's list of every overlapping pair is never read."""
        real = cli.overlap_graph_full

        class Unread:
            def __init__(self, full):
                self.labeling = full.labeling

            @property
            def edges(self):
                raise AssertionError("verify read every overlapping pair")

        monkeypatch.setattr(cli, "overlap_graph_full",
                            lambda f: Unread(real(f)))
        code, out = run_cli("verify", fam_a_file)
        assert code == 0
        assert out == ("classes: ok (2 classes)\n"
                       "max: ok\n"
                       "subgraph: ok (2 edges, all overlaps)\n"
                       "forest: ok (2 trees)\n"
                       "PASS\n")

    def test_max_against_the_oracles_own_order(self, tmp_path, monkeypatch):
        """The oracle orders the sets itself, so a fault in the family's
        LF order shows as a Max mismatch instead of on both sides."""
        real = overlap.family.LFOrder
        monkeypatch.setattr(overlap.family, "LFOrder",
                            lambda order: real(order[::-1]))
        path = tmp_path / "sizes2.txt"
        path.write_text("a b\nb c\na c\nc d\n")
        code, out = run_cli("verify", str(path))
        assert code == 1
        assert "max: MISMATCH\n" in out
        assert out.endswith("FAIL\n")


class TestGen:

    def test_star_shape(self):
        code, out = run_cli("gen", "star", "--m", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.split()[0] == "x1" for line in lines)

    def test_nested_chain(self):
        code, out = run_cli("gen", "nested", "--k", "3")
        assert out.splitlines() == ["x1", "x1 x2", "x1 x2 x3"]

    def test_random_reproducible(self):
        _, out1 = run_cli("gen", "random", "--n", "20", "--m", "30",
                          "--seed", "7")
        _, out2 = run_cli("gen", "random", "--n", "20", "--m", "30",
                          "--seed", "7")
        assert out1 == out2
        assert len(out1.splitlines()) == 30

    def test_random_written_set_by_set(self):
        # the text is never held whole: no write carries more than one set
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        code = cli.main(["gen", "random", "--n", "50", "--m", "400",
                         "--seed", "5"], out=Sink())
        assert code == 0
        assert max(w.count("\n") for w in writes) == 1
        assert "".join(writes) == gen_random(50, 400, 5)

    def test_blocks_parseable(self, tmp_path):
        path = tmp_path / "blocks.txt"
        code, _ = run_cli("gen", "blocks", "--n", "40", "--m", "20",
                          "--blocks", "4", "--seed", "3", "--out", str(path))
        assert code == 0
        code, out = run_cli("verify", str(path))
        assert code == 0

    def test_invalid_params_exit_2(self):
        code, _ = run_cli("gen", "star", "--m", "0")
        assert code == 2


class TestBench:

    def test_small_run(self):
        code, out = run_cli("bench", "--sizes", "1000,2000", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == cli.BENCH_HEADER
        assert lines[0].split(",") == ["total_size", *LAYERS, "total",
                                       "ratio"]
        assert len(lines) == 3
        sizes = [int(line.split(",")[0]) for line in lines[1:]]
        assert sizes == sorted(sizes)
        # total_size, each layer's time and the total, then the ratio
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(cli.BENCH_STAGES) + 2
            for field in fields[1:-1]:
                assert re.fullmatch(r"\d+\.\d{6}", field)
        # first row has no ratio, second does
        assert lines[1].endswith(",")
        assert float(lines[2].rsplit(",", 1)[1]) > 0

    @pytest.mark.parametrize("code, stderr, want_code, want_err", [
        (4, "out of memory\n", 4, "error: out of memory\n"),
        (1, "Traceback (most recent call last):\n  ...\nValueError: bad\n",
         1, "error: ValueError: bad\n"),
        (-9, "", 1, "error: exit status -9\n"),
    ], ids=["out_of_memory", "traceback", "killed"])
    def test_failed_instance_is_reported(self, monkeypatch, capsys, code,
                                         stderr, want_code, want_err):
        def run(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, code, "", stderr)

        monkeypatch.setattr(cli.subprocess, "run", run)
        assert run_cli("bench", "--sizes", "1000", "--seed", "1") == (
            want_code, "")
        assert capsys.readouterr().err == want_err

    def test_instance_out_of_memory_exits_4(self, monkeypatch):
        # the script each instance runs, with bench_one out of memory
        scripts = []
        real_run = subprocess.run

        def run(cmd, **kwargs):
            scripts.append(cmd)
            return subprocess.CompletedProcess(cmd, 4, "", "")

        monkeypatch.setattr(cli.subprocess, "run", run)
        run_cli("bench", "--sizes", "1000", "--seed", "1")
        (python, flag, script, *args), = scripts
        prelude = ("import overlap.cli\n"
                   "def bench_one(target, seed):\n"
                   "    raise MemoryError\n"
                   "overlap.cli.bench_one = bench_one\n")
        proc = real_run([python, flag, prelude + script, *args],
                        capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "out of memory\n")

    def test_family_is_the_generators(self, monkeypatch):
        families = []

        def pipeline(f):
            families.append(f)
            return run_pipeline(f)

        monkeypatch.setattr(cli, "run_pipeline", pipeline)
        monkeypatch.setattr(cli, "BENCH_SECONDS", 0.0)
        row = cli.bench_one(1000, seed=3)
        m, n = 125, 62  # target // 8 sets over half as many elements
        want = list(gen_random_sets(n, m, 3, min_size=2, max_size=14))
        assert len(families) == 2
        for f in families:
            assert f.sets == want
            assert f.tokens == ["e%d" % i for i in range(n)]
        assert row["total_size"] == sum(map(len, want))


    def test_every_timed_run_sorts_the_sl_keys(self, monkeypatch):
        # the keys the constructor sorted are taken before the timed runs,
        # so no run gets its SL lists without the sort
        sorts, per_run = [], []
        sl_keys = overlap.family._sl_keys

        def counting(*args):
            sorts.append(len(args[0]))
            return sl_keys(*args)

        def pipeline(f):
            before = len(sorts)
            res = run_pipeline(f)
            per_run.append(len(sorts) - before)
            return res

        monkeypatch.setattr(overlap.family, "_sl_keys", counting)
        monkeypatch.setattr(cli, "run_pipeline", pipeline)
        monkeypatch.setattr(cli, "BENCH_SECONDS", 0.0)
        cli.bench_one(1000, seed=3)
        assert per_run == [1, 1]

@pytest.mark.parametrize("case", ["oracle_cap", "bench_sizes",
                                  "bench_sizes_negative", "bench_sizes_zero",
                                  "bench_sizes_empty",
                                  "gen_out", "non_utf8", "non_utf8_comment",
                                  "gen_max_size_0"])
def test_bad_input_or_setting_exits_2(case, fam_a_file, tmp_path,
                                      monkeypatch, capsys):
    if case == "oracle_cap":
        monkeypatch.setenv("OVERLAP_ORACLE_CAP", "many")
        argv = ["verify", fam_a_file]
    elif case == "bench_sizes":
        argv = ["bench", "--sizes", "1,x"]
    elif case == "bench_sizes_negative":
        argv = ["bench", "--sizes", "-5"]
    elif case == "bench_sizes_zero":
        argv = ["bench", "--sizes", "1000,0"]
    elif case == "bench_sizes_empty":
        argv = ["bench", "--sizes", ","]
    elif case == "gen_out":
        argv = ["gen", "star", "--out", str(tmp_path / "missing" / "x")]
    elif case == "gen_max_size_0":
        argv = ["gen", "random", "--max-size", "0"]
    else:
        # a byte that is not UTF-8 fails the read even in a comment line,
        # whose tokens the parse never looks at
        path = tmp_path / "latin1.txt"
        path.write_bytes({"non_utf8": b"caf\xe9 1\n",
                          "non_utf8_comment": b"# caf\xe9\n1 2\n"}[case])
        argv = ["classes", str(path)]
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["classes", "max"])
def test_dot_only_on_subgraph_and_forest(command, fam_a_file, capsys):
    code, out = run_cli(command, "--dot", fam_a_file)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--json", "--dot"), ("--dot", "--json")])
@pytest.mark.parametrize("command", ["subgraph", "forest"])
def test_json_and_dot_together_are_an_input_error(command, flags, fam_a_file,
                                                  capsys):
    code, out = run_cli(command, *flags, fam_a_file)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: overlap %s" % command)
    assert "not allowed with argument" in err


def test_bad_flag_returns_2(capsys):
    code, out = run_cli("bench", "--bogus")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_help_returns_0(capsys):
    code, _ = run_cli("--help")
    assert code == 0
    assert capsys.readouterr().out.startswith("usage: overlap")


def test_json_byte_identical_across_processes(fam_a_file):
    cmd = [sys.executable, "-m", "overlap", "classes", "--json", fam_a_file]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_out_of_memory_exits_4_without_traceback(fam_a_file):
    script = ("import overlap.cli as cli\n"
              "def run_pipeline(f):\n"
              "    raise MemoryError\n"
              "cli.run_pipeline = run_pipeline\n"
              "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", script, "classes",
                           fam_a_file], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_reader_closing_early_ends_quietly(tmp_path):
    path = tmp_path / "blocks.txt"
    path.write_text(gen_blocks(20000, 30000, 2000, 1))
    proc = subprocess.Popen(
        [sys.executable, "-m", "overlap", "forest", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"tree X1: ")
    proc.stdout.close()  # as head -1 does, long before the output ends
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert b"Traceback" not in err


GOLDEN_CORPUS = [
    gen_random(12, 20, 1),
    gen_random(30, 60, 2, max_size=6),
    gen_random(60, 150, 3, min_size=2, max_size=10),
    gen_blocks(40, 60, 5, 1),
    gen_blocks(64, 200, 8, 2),
    gen_star(5),
    gen_star(40),
    gen_nested(1),
    gen_nested(12),
    FAM_A_TEXT,
    "# duplicate sets and declared elements\n!universe z q\n"
    "a b c\nb c\na b c\nc d\nq b\nb c\n",
]

# sha256 of each mode's stdout over GOLDEN_CORPUS, concatenated in order.
# Any change to these bytes is a change of the CLI's output format.
GOLDEN_SHA256 = {
    "classes":
        "467557d08d5ebbf4f4f9bb1ca20fff976b04a1af8fae0a054eca3a3a70a25f35",
    "classes --json":
        "e4c73168645aac64881b45685f101fd79f0a89d2c31ad16a6a470d959f5f2256",
    "max":
        "b30ebfb4097c31e2315bd1190753453d02889a0de7669fb03f74282c983f11bc",
    "max --json":
        "e4c73168645aac64881b45685f101fd79f0a89d2c31ad16a6a470d959f5f2256",
    "subgraph":
        "27e17990c5fd56b814298344d0de8fe259fa623f3dc3458edc3985ddccb706f4",
    "subgraph --json":
        "e4c73168645aac64881b45685f101fd79f0a89d2c31ad16a6a470d959f5f2256",
    "subgraph --dot":
        "c5532a1fb13321f6b37e2a3b15d2de84793bd1faea51f21d4d36ea99376dde2b",
    "forest":
        "05ef017b37eccb2363250fa297bb5f0d89315dc4441df2e7a8734e4228c391d2",
    "forest --json":
        "bb12c4120434bceae46ae5541a0b7e01f7d62d5cddf27d32c3ddf11667e5213a",
    "forest --dot":
        "a88cbcff98f681595900dc47e53379dc256afca3c66f04cc2dc94af961190c92",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_output_bytes_golden(mode, tmp_path):
    digest = hashlib.sha256()
    for i, text in enumerate(GOLDEN_CORPUS):
        path = tmp_path / ("f%d.txt" % i)
        path.write_text(text)
        code, out = run_cli(*mode.split(), str(path))
        assert code == 0
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_byte_order_mark_is_ignored(mode, tmp_path):
    # with the mark read as text, the first token would be "\ufeffa", an
    # element other than "a", and the two equal sets would overlap
    text = "a b\nb a\n"
    outs = []
    for name, data in (("plain", text.encode()),
                       ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / name
        path.write_bytes(data)
        code, out = run_cli(*mode.split(), str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def reference_json(res, with_forest):
    """The --json bytes as json.dumps wrote them from Python lists."""
    payload = {
        "classes": [[i + 1 for i in c] for c in res.labeling.classes],
        "max": [None if v < 0 else v + 1 for v in res.maxes.partners.tolist()],
        "edges": [[a + 1, b + 1] for a, b in res.subgraph.edges],
    }
    if with_forest:
        payload["forest"] = [
            {"root": r + 1, "edges": [[a + 1, b + 1] for a, b in tree]}
            for r, tree in zip(res.forest.roots, res.forest.tree_edges)
        ]
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def family_text(f):
    return "".join(" ".join(f.tokens[e] for e in s) + "\n" for s in f.sets)


def test_json_matches_json_dumps_random(tmp_path):
    rng = seeded_rng(59)
    texts = [
        "a\n",  # m = 1
        "a b\nc\nd e\n",  # no edges, every set its own class
        gen_nested(6),  # no edges, no Max
        gen_star(7),
        FAM_A_TEXT,
    ]
    texts += [family_text(random_family(rng, max_n=20, max_m=30))
              for _ in range(120)]
    path = tmp_path / "fam.txt"
    for text in texts:
        path.write_text(text)
        res = run_pipeline(parse_family(text))
        for command in ("classes", "forest"):
            code, out = run_cli(command, "--json", str(path))
            assert code == 0
            assert out == reference_json(res, command == "forest"), text


# The %-format writers the CLI used before render: one Python int per
# number and one % format per section. They are the reference that
# render and every output mode are checked against.

def ref_rows(template, *cols):
    """template once per row of the columns, each number written plus 1."""
    values = np.column_stack(cols).ravel() + 1
    return (template * len(cols[0])) % tuple(values.tolist())


def ref_groups(templates, heads, start, *cols):
    """Group k as heads[k], then rows start[k] to start[k + 1] - 1 of the
    columns, every number written plus 1; templates are those of a head
    with rows, a head without rows, a row and a group's last row."""
    rows = np.column_stack(cols)
    count = np.diff(start)
    code = np.full(len(rows), 2, dtype=np.int8)
    code[start[1:][count > 0] - 1] = 3
    code = np.insert(code, start[:-1], count == 0)
    values = np.insert(rows.ravel(), rows.shape[1] * start[:-1], heads) + 1
    return "".join(map(templates.__getitem__, code.tolist())) % tuple(
        values.tolist())


def ref_output(res, mode):
    """The stdout of one output mode as the %-format writers made it."""
    lab, fo, g = res.labeling, res.forest, res.subgraph
    m = res.family.m
    mx = res.maxes.partners
    command, _, flag = mode.partition(" ")

    def trees(templates):
        return ref_groups(templates, fo.order[fo.start[:-1]], fo.edge_start,
                          fo.a, fo.b)

    if flag == "--dot":
        name, a, b = (("overlap_subgraph", g.a, g.b) if command == "subgraph"
                      else ("spanning_forest", fo.a, fo.b))
        return ("graph %s {\n" % name
                + ("  X%d;\n" * m) % tuple(range(1, m + 1))
                + ref_rows("  X%d -- X%d;\n", a, b) + "}\n")
    if flag == "--json":
        first = lab.start[:-1]
        text = ('{"classes": ['
                + ref_groups(("[%d, ", "[%d], ", "%d, ", "%d], "),
                             lab.order[first],
                             lab.start - np.arange(len(lab.start)),
                             np.delete(lab.order, first))[:-2]
                + '], "max": ['
                + ", ".join(map(("%d", "null").__getitem__,
                                (mx < 0).tolist()))
                % tuple((mx[mx >= 0] + 1).tolist())
                + '], "edges": [' + ref_rows("[%d, %d], ", g.a, g.b)[:-2])
        if command == "forest":
            text += '], "forest": [' + trees(
                ('{"root": %d, "edges": [', '{"root": %d, "edges": []}, ',
                 "[%d, %d], ", "[%d, %d]]}, "))[:-2]
        return text + "]}\n"
    if command == "classes":
        return ref_rows("X%d %d\n", np.arange(m), lab.class_id - 1)
    if command == "max":
        values = np.column_stack((np.arange(m), mx)).ravel()
        return "".join(map(("X%d -> X%d\n", "X%d -> none\n").__getitem__,
                           (mx < 0).tolist())) % tuple(
            (values[values >= 0] + 1).tolist())
    if command == "subgraph":
        return ref_rows("X%d X%d\n", g.a, g.b)
    return trees(("tree X%d: ", "tree X%d: \n", "X%d-X%d ", "X%d-X%d\n"))


def ref_render(templates, code, *cols):
    """render's text, one % format per place."""
    code = [0] * len(cols[0]) if code is None else code
    return "".join(
        templates[c] % tuple(int(col[k]) for col in cols)[
            :templates[c].count("%d")]
        for k, c in enumerate(code))


# a value of every digit count, each at both ends, and the largest
PLACE_VALUES = ([0] + [v for k in range(1, 10) for v in (10 ** k - 1, 10 ** k)]
                + [2 ** 31 - 1])

# templates of mixed arity: a place without a number, one-number heads
# before two-number rows, and a literal that grows or shrinks by field
MIXED_TEMPLATES = [
    ("%d, ", "null, "),
    ("X%d -> X%d\n", "X%d -> none\n"),
    ('{"root": %d, "edges": [', "[%d, %d], ", "[%d, %d]]}, ", "]}, "),
    ("%d", "<%d|%d>", "", "long literal %d;"),
]


def random_places(rng, templates, places):
    """A code and two columns for places random places; a column a
    place's template does not use holds 0 there."""
    code = np.array([rng.randrange(len(templates)) for _ in range(places)],
                    dtype=np.int8)
    cols = [np.array([rng.choice(PLACE_VALUES)
                      if templates[c].count("%d") > j else 0 for c in code],
                     dtype=np.int32)
            for j in range(2)]
    return code, cols


class TestRender:

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_every_digit_count(self, dtype):
        values = np.array(PLACE_VALUES, dtype=dtype)
        assert cli.render(("%d,",), None, values) == "".join(
            "%d," % v for v in PLACE_VALUES)
        for v in PLACE_VALUES:
            one = np.array([v], dtype=dtype)
            assert cli.render(("X%d %d\n",), None, one, one) == (
                "X%d %d\n" % (v, v))

    def test_two_columns_against_reference(self):
        rng = seeded_rng(12)
        a = np.array(PLACE_VALUES * 3, dtype=np.int32)
        b = a.copy()
        rng.shuffle(b)
        assert cli.render(("[%d, %d], ",), None, a, b) == ref_render(
            ("[%d, %d], ",), None, a, b)

    @pytest.mark.parametrize("templates", MIXED_TEMPLATES,
                             ids=["null", "none", "forest", "widths"])
    def test_mixed_arity_against_reference(self, templates):
        rng = seeded_rng(13)
        for places in (1, 2, 5, 40, 300):
            code, cols = random_places(rng, templates, places)
            assert cli.render(templates, code, *cols) == ref_render(
                templates, code, *cols)

    def test_zero_places(self):
        empty = np.zeros(0, dtype=np.int32)
        assert cli.render(("%d, ",), None, empty) == ""
        assert cli.render(MIXED_TEMPLATES[2], np.zeros(0, dtype=np.int8),
                          empty, empty) == ""

    def test_slices_join_seamlessly(self, monkeypatch):
        monkeypatch.setattr(cli, "RENDER_PLACES", 3)
        rng = seeded_rng(14)
        for places in range(1, 11):
            code, cols = random_places(rng, MIXED_TEMPLATES[2], places)
            assert cli.render(MIXED_TEMPLATES[2], code, *cols) == ref_render(
                MIXED_TEMPLATES[2], code, *cols)


@pytest.fixture(scope="module")
def large_blocks(tmp_path_factory):
    """The file and pipeline result of a blocks family of 32768 sets, whose
    set numbers run past GOLDEN_CORPUS's three digits."""
    text = gen_blocks(2 ** 14, 2 ** 15, 2 ** 11, 1)
    path = tmp_path_factory.mktemp("large") / "blocks.txt"
    path.write_text(text)
    return str(path), run_pipeline(parse_family(text))


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_every_mode_matches_reference_on_large_blocks(mode, large_blocks):
    path, res = large_blocks
    code, out = run_cli(*mode.split(), path)
    assert code == 0
    assert out == ref_output(res, mode)


def test_writer_peak_memory_within_pipeline_peak(large_blocks):
    # serializing must not set a CLI call's peak memory: the traced peak
    # of forest --json into a StringIO, output included, stays under that
    # of the pipeline run it reports
    f = large_blocks[1].family
    tracemalloc.start()
    try:
        res = run_pipeline(f)
        pipeline_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cli._write_json(res, True, io.StringIO())
        writer_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert writer_peak <= pipeline_peak


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc saw fn(*args) allocate."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_frees_the_text_inside_the_parse(large_blocks):
    # _load hands the parse the open file, so the parse drops the text
    # once it has the tokens; a caller that holds the bytes keeps them
    # alive to the parse's peak
    path = Path(large_blocks[0])
    held = traced_peak(lambda: parse_family(path.read_bytes()))
    loaded = traced_peak(cli._load, str(path))
    assert loaded <= held - path.stat().st_size / 2


# comments, a !universe line, repeated tokens, non-ASCII tokens, tokens
# of 7, 8 and 9 bytes and one of 20 bytes that ends the file, CR LF
NAMES_TEXT = ("# element names\r\nabcdefg abcdefgh abcdefghi x\r\n"
              "x y x abcdefg\r\n!universe z0 h\u00e9llo w\u00f6rld7 abcdefgh\r\n"
              "h\u00e9llo abcdefghi y\r\n"
              "\u03b1\u03b2\u03b3\u03b4 w\u00f6rld7 abcdefghijklmnopqrst")
NAMES = ["abcdefg", "abcdefgh", "abcdefghi", "x", "y", "z0", "h\u00e9llo",
         "w\u00f6rld7", "\u03b1\u03b2\u03b3\u03b4", "abcdefghijklmnopqrst"]


def test_cli_decodes_no_element_name(tmp_path, monkeypatch):
    path = tmp_path / "names.txt"
    path.write_bytes(NAMES_TEXT.encode())
    want = run_cli("forest", "--json", str(path))

    def refuse(*args):
        raise AssertionError("element names decoded")

    monkeypatch.setattr(overlap.family, "_decode", refuse)
    assert run_cli("forest", "--json", str(path)) == want
    f = cli._load(str(path))
    monkeypatch.undo()
    assert f.n == len(NAMES)
    assert f.tokens == NAMES
    assert [len(t.encode()) for t in NAMES[:3]] == [7, 8, 9]
