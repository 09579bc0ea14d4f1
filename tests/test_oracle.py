import ast
import types

import pytest

import overlap.dgraph
import overlap.oracle
from overlap.family import parse_family
from overlap.generate import gen_star
from overlap.oracle import (DEFAULT_ORACLE_CAP, OracleCapExceeded,
                            max_oracle, oracle_cap, overlap_graph_full,
                            overlaps)
from overlap.pipeline import run_pipeline

from conftest import make_family, random_family, seeded_rng


class TestOverlapsPredicate:

    def test_textbook_overlap(self):
        assert overlaps({1, 2}, {2, 3})

    def test_containment_is_not_overlap(self):
        assert not overlaps({1, 2}, {1, 2, 3})
        assert not overlaps({1, 2, 3}, {1, 2})

    def test_disjoint_is_not_overlap(self):
        assert not overlaps({1}, {2})

    def test_equal_sets(self):
        assert not overlaps({1, 2}, {1, 2})

    def test_accepts_lists(self):
        assert overlaps([1, 2], [2, 3])


class TestFullGraph:

    def test_star_100(self):
        f = parse_family(gen_star(100))
        full = overlap_graph_full(f)
        assert len(full.edges) == 100 * 99 // 2
        assert len(full.labeling.classes) == 1

    def test_fam_a(self, fam_a):
        full = overlap_graph_full(fam_a)
        assert full.edges == [(0, 1), (1, 2)]
        assert full.labeling.as_partition() == {frozenset({0, 1, 2}),
                                                frozenset({3})}

    def test_disjoint(self):
        f = make_family([0, 1], [2, 3], [4, 5])
        full = overlap_graph_full(f)
        assert full.edges == []
        assert len(full.labeling.classes) == 3

    def test_cap_refusal(self, monkeypatch):
        # refused before any pair is tested, so the quadratic loop never runs
        monkeypatch.delenv("OVERLAP_ORACLE_CAP", raising=False)
        f = parse_family(gen_star(DEFAULT_ORACLE_CAP + 1))
        with pytest.raises(OracleCapExceeded):
            overlap_graph_full(f)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("OVERLAP_ORACLE_CAP", "7")
        assert oracle_cap() == 7
        f = parse_family(gen_star(8))
        with pytest.raises(OracleCapExceeded):
            overlap_graph_full(f)


class TestMaxOracle:

    def test_fam_a(self, fam_a):
        assert max_oracle(fam_a, fam_a.lf).values == [1, 0, 1, None]

    def test_mutual_pair(self):
        f = make_family([0, 1], [1, 2])
        assert max_oracle(f, f.lf).values == [1, 0]

    def test_nested_chain(self):
        f = make_family([0], [0, 1], [0, 1, 2])
        assert max_oracle(f, f.lf).values == [None, None, None]

    def test_order_as_plain_list(self, fam_a):
        # callers outside the package pass their own large-first order
        lf = types.SimpleNamespace(order=[3, 0, 1, 2])
        assert max_oracle(fam_a, lf).values == [1, 0, 1, None]


def test_classes_invariant_under_set_permutation():
    rng = seeded_rng(41)
    for _ in range(50):
        f = random_family(rng, max_n=12, max_m=12)
        perm = list(range(f.m))
        rng.shuffle(perm)
        g = make_family(*[[f.tokens[e] for e in f.sets[i]] for i in perm],
                        universe=f.tokens)

        def named(fam, labeling):
            return {frozenset(frozenset(fam.tokens[e] for e in fam.sets[i])
                              for i in c)
                    for c in labeling.classes}

        assert named(f, overlap_graph_full(f).labeling) == \
            named(g, overlap_graph_full(g).labeling)
        # the fast path's tie-break freedom never changes the classes either
        assert named(f, run_pipeline(f).labeling) == \
            named(g, run_pipeline(g).labeling)


def test_class_comparison_sees_a_corrupted_grouping(monkeypatch):
    # the pipeline's grouping is broken so that it merges its first two
    # classes; the oracle, grouping on its own, must still tell them apart
    f = parse_family("a b\nb c\nx y\ny z\n")
    segments = overlap.dgraph.segments

    def merged(values, offsets):
        pieces = segments(values, offsets)
        return [pieces[0] + pieces[1]] + pieces[2:]

    monkeypatch.setattr(overlap.dgraph, "segments", merged)
    res = run_pipeline(f)
    full = overlap_graph_full(f)
    assert res.labeling.as_partition() == {frozenset({0, 1, 2, 3})}
    assert full.labeling.as_partition() == {frozenset({0, 1}),
                                            frozenset({2, 3})}
    assert res.labeling.as_partition() != full.labeling.as_partition()


def test_oracle_imports_only_union_find_and_max_assignment():
    """The oracle shares no code with the pipeline it checks beyond the
    union-find the pipeline does not run and the Max container."""
    tree = ast.parse(open(overlap.oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names
                         if a.name.split(".")[0] == "overlap"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "overlap"):
            imported |= {a.name for a in node.names}
    assert imported == {"UnionFind", "MaxAssignment"}
