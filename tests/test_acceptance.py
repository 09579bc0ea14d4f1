"""Acceptance suite: every release-gating property in one place.

Each criterion prints one PASS/FAIL line on the real stdout so the
verdicts survive pytest's capture. The shared corpus (seeded random
families with mixed densities plus an exhaustive sweep of tiny families)
is built once per module and reused by the equivalence criteria.
"""

import json
import subprocess
import sys
import time

import pytest

from conftest import exhaustive_families, random_family, seeded_rng
from overlap.dgraph import UnionFind
from overlap.family import parse_family
from overlap.generate import gen_star
from overlap.oracle import max_oracle, overlap_graph_full, overlaps
from overlap.partition import OrderedPartition
from overlap.pipeline import run_pipeline
from overlap.cli import bench_rows

N_RANDOM_FAMILIES = 2000
CORPUS_BUDGET_SECONDS = 60.0
STAR_BUDGET_SECONDS = 0.050
BENCH_SIZES = [2 ** k for k in range(17, 23)]
BENCH_RATIO_LIMIT = 2.6
BENCH_BUDGET_SECONDS = 120.0


@pytest.fixture
def verdict(request):
    """Reporter that bypasses pytest's capture so verdicts always print."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(number, name, ok):
        line = "ACCEPTANCE %d %s: %s" % (
            number, name, "PASS" if ok else "FAIL")
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return report


class Corpus:
    """Pipeline runs and oracle answers for every corpus family."""

    def __init__(self):
        start = time.perf_counter()
        self.runs = []
        rng = seeded_rng()
        for _ in range(N_RANDOM_FAMILIES):
            f = random_family(rng, max_n=40, max_m=60)
            self.runs.append((f, run_pipeline(f), overlap_graph_full(f)))
        for f in exhaustive_families(max_n=4, max_m=3):
            self.runs.append((f, run_pipeline(f), overlap_graph_full(f)))
        self.elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


def test_1_worked_refinement_example(verdict):
    ok = False
    try:
        a, i, j, k, l, b, c, d, e, fe, g, h = range(12)
        p = OrderedPartition.from_parts(
            [[a], [i, j, k, l], [b], [c, d], [e, fe, g, h]])
        t0 = time.perf_counter()
        p.refine([d, e])
        elapsed = time.perf_counter() - t0
        got = [set(part) for part in p.parts_in_order()]
        assert got == [{a}, {i, j, k, l}, {b}, {c}, {d}, {fe, g, h}, {e}]
        assert elapsed < 0.001
        ok = True
    finally:
        verdict(1, "worked refinement example", ok)


def test_2_class_equivalence_vs_oracle(corpus, verdict):
    ok = False
    try:
        assert len(corpus.runs) > N_RANDOM_FAMILIES
        for f, res, full in corpus.runs:
            assert (res.labeling.as_partition()
                    == full.labeling.as_partition()), f.sets
        assert corpus.elapsed < CORPUS_BUDGET_SECONDS
        ok = True
    finally:
        verdict(2, "class equivalence vs oracle", ok)


def test_3_max_equivalence_vs_oracle(corpus, verdict):
    ok = False
    try:
        for f, res, _ in corpus.runs:
            assert res.maxes == max_oracle(f, res.lf), f.sets
        ok = True
    finally:
        verdict(3, "Max equivalence vs oracle", ok)


def test_4_raw_edge_bound(corpus, verdict):
    ok = False
    try:
        for f, res, _ in corpus.runs:
            assert res.dgraph.raw_edge_count <= f.total_size, f.sets
        ok = True
    finally:
        verdict(4, "raw edge creations within |F|", ok)


def test_5_star_family_shortcut(verdict):
    ok = False
    try:
        m = 1000
        f = parse_family(gen_star(m))
        assert f.total_size == 2 * m
        # the full overlap graph here would hold m(m-1)/2 = 499500 edges
        assert m * (m - 1) // 2 == 499500
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            res = run_pipeline(f)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        assert res.n_classes == 1
        assert res.dgraph.raw_edge_count <= f.total_size
        assert len(res.dgraph.edges) <= f.total_size
        assert best < STAR_BUDGET_SECONDS
        ok = True
    finally:
        verdict(5, "star family linear shortcut", ok)


def test_6_subgraph_soundness(corpus, verdict):
    ok = False
    try:
        for f, res, full in corpus.runs:
            sets = [set(s) for s in f.sets]
            for x, y in res.subgraph.edges:
                assert overlaps(sets[x], sets[y]), (f.sets, x, y)
            assert len(res.subgraph.edges) <= f.m + f.total_size
            sub_parts = {frozenset(c)
                         for c in res.forest.members}
            assert sub_parts == full.labeling.as_partition(), f.sets
        ok = True
    finally:
        verdict(6, "subgraph soundness and components", ok)


def test_7_forest_shape(corpus, verdict):
    ok = False
    try:
        for f, res, _ in corpus.runs:
            edge_set = set(res.subgraph.edges)
            for group, tree in zip(res.forest.members, res.forest.tree_edges):
                assert len(tree) == len(group) - 1, f.sets
                uf = UnionFind(f.m)
                for a, b in tree:
                    assert (a, b) in edge_set, f.sets
                    # a tree edge must join two distinct components
                    assert uf.union(a, b), f.sets
        ok = True
    finally:
        verdict(7, "spanning forest shape", ok)


def test_8_linear_scaling(verdict):
    ok = False
    try:
        t0 = time.perf_counter()
        rows = bench_rows(BENCH_SIZES, seed=1)
        elapsed = time.perf_counter() - t0
        sizes = [r["total_size"] for r in rows]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        ratios = [float(r["ratio"]) for r in rows[1:]]
        assert all(r <= BENCH_RATIO_LIMIT for r in ratios), ratios
        assert elapsed < BENCH_BUDGET_SECONDS, elapsed
        ok = True
    finally:
        verdict(8, "linear scaling smoke test", ok)


def test_9_byte_identical_json(tmp_path, verdict):
    ok = False
    try:
        path = tmp_path / "fam.txt"
        path.write_text("1 2\n2 3\n3 4\n1 2 3 4\n")
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "overlap", "classes", "--json",
                 str(path)],
                capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed
        ok = True
    finally:
        verdict(9, "byte-identical JSON output", ok)
