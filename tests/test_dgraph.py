import numpy as np

import overlap.dgraph
from overlap.dgraph import (SetGraph, build_dgraph, dedup_sorted_pairs,
                            spanning_forest)
from overlap.family import build_sl_lists, parse_family
from overlap.generate import gen_nested
from overlap.maxcomp import compute_bounds, compute_max, compute_pf
from overlap.oracle import overlap_graph_full
from overlap.pipeline import run_pipeline
from overlap.subgraph import build_overlap_subgraph

from conftest import make_family, random_family, seeded_rng


def dahlhaus(f):
    sl = build_sl_lists(f)
    pf = compute_pf(f, sl)
    bounds = compute_bounds(f, pf)
    maxes = compute_max(f, pf, bounds)
    return build_dgraph(f, sl, maxes)


def graph(m, edges):
    a, b = np.array(edges, dtype=np.int32).reshape(-1, 2).T
    return SetGraph(m, a, b, len(edges))


class TestBuild:

    def test_fam_a_edges(self, fam_a):
        g = dahlhaus(fam_a)
        assert g.edges == [(0, 1), (1, 2)]

    def test_disjoint_no_edges(self):
        f = make_family([0, 1], [2, 3], [4, 5])
        assert dahlhaus(f).edges == []

    def test_star_connected_with_few_edges(self):
        f = make_family(*[[0, i] for i in range(1, 6)])
        g = dahlhaus(f)
        assert g.raw_edge_count <= f.total_size == 10
        assert len(spanning_forest(g).classes) == 1

    def test_raw_edge_bound_random(self):
        rng = seeded_rng(5)
        for _ in range(200):
            f = random_family(rng, max_n=15, max_m=20)
            g = dahlhaus(f)
            assert g.raw_edge_count <= f.total_size


class TestComponents:

    def test_fam_a_classes(self, fam_a):
        lab = spanning_forest(dahlhaus(fam_a))
        assert lab.classes == [[0, 1, 2], [3]]
        assert lab.class_id.tolist() == [0, 0, 0, 1]

    def test_edgeless(self):
        lab = spanning_forest(graph(3, []))
        assert lab.classes == [[0], [1], [2]]

    def test_path_graph_single_class(self):
        lab = spanning_forest(graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert lab.classes == [[0, 1, 2, 3]]

    def test_ids_by_smallest_member(self):
        lab = spanning_forest(graph(4, [(2, 3)]))
        assert lab.class_id.tolist() == [0, 1, 2, 2]


def test_components_match_oracle_random():
    rng = seeded_rng(11)
    for _ in range(300):
        f = random_family(rng, max_n=18, max_m=24)
        res = run_pipeline(f)
        full = overlap_graph_full(f)
        assert spanning_forest(res.dgraph).as_partition() == \
            full.labeling.as_partition(), f.sets


def running_max_dgraph(f, sl, maxes):
    """The helper graph by a running maximum of |Max| along each SL list.

    An entry links to the one before it when some earlier entry of its
    list has a Max at least as large as the entry. Returns the sorted
    distinct edges and the number of links made.
    """
    sizes = f.sizes.tolist()
    reach = [0 if v < 0 else sizes[v] for v in maxes.partners.tolist()]
    flat = sl.flat.tolist()
    offsets = sl.offsets.tolist()
    links = []
    for lo, hi in zip(offsets, offsets[1:]):
        running = 0
        for j in range(lo, hi):
            if j > lo and sizes[flat[j]] <= running:
                links.append(tuple(sorted((flat[j - 1], flat[j]))))
            running = max(running, reach[flat[j]])
    return sorted(set(links)), len(links)


def test_dgraph_matches_running_max_scan_random():
    rng = seeded_rng(19)
    for k in range(600):
        f = random_family(rng, max_n=6 if k % 3 == 0 else 20, max_m=30)
        res = run_pipeline(f)
        edges, raw = running_max_dgraph(f, build_sl_lists(f), res.maxes)
        assert res.dgraph.edges == edges, f.sets
        assert res.dgraph.raw_edge_count == raw, f.sets


def test_maxless_family_builds_no_window_table(monkeypatch):
    # only a set with a Max covers, so with none both graphs are edgeless
    # without the cover walk's window table
    runs = []
    for f in (parse_family(gen_nested(40)), make_family([0, 1], [2, 3], [4])):
        sl = build_sl_lists(f)
        pf = compute_pf(f, sl)
        bounds = compute_bounds(f, pf)
        maxes = compute_max(f, pf, bounds)
        assert (maxes.partners < 0).all()
        runs.append((f, sl, maxes, bounds, pf, run_pipeline(f)))

    def refuse(*args):
        raise AssertionError("window table built for a family with no Max")

    monkeypatch.setattr(overlap.dgraph, "window_levels", refuse)
    for f, sl, maxes, bounds, pf, res in runs:
        assert res.dgraph.edges == [] and res.dgraph.raw_edge_count == 0
        sub = build_overlap_subgraph(f, sl, maxes, bounds, pf, lambda _: None)
        assert sub.edges == [] and sub.raw_edge_count == 0


def test_result_keeps_no_sl_lists(fam_a):
    # neither the SL lists nor their membership keys (|F| int64) are kept
    # past the run; the helper graph builds its own lists
    res = run_pipeline(fam_a)
    assert not hasattr(res, "sl")
    want = build_dgraph(fam_a, build_sl_lists(fam_a), res.maxes)
    assert (res.dgraph.edges, res.dgraph.raw_edge_count) == (
        want.edges, want.raw_edge_count)
    assert res.dgraph.edges == dahlhaus(fam_a).edges == [(0, 1), (1, 2)]


def test_dedup_sorted_pairs_matches_set_sort():
    rng = seeded_rng(13)
    cases = [([], [], 5), ([0], [0], 1)]
    for m in (1, 2, 7, 50):
        k = rng.randint(1, 300)
        ea = [rng.randrange(m) for _ in range(k)]
        eb = [rng.randrange(m) for _ in range(k)]
        # repeat a random half so duplicates are common
        dup = rng.sample(range(k), k // 2)
        cases.append((ea + [ea[i] for i in dup], eb + [eb[i] for i in dup], m))
    for ea, eb, m in cases:
        a, b = dedup_sorted_pairs(ea, eb, m)
        assert list(zip(a.tolist(), b.tolist())) == sorted(set(zip(ea, eb)))
