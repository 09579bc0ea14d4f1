import numpy as np
import pytest

import overlap.dgraph
from overlap.dgraph import (SetGraph, SpanningForest, build_dgraph,
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
    return SetGraph(m, a, b)


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


def reference_forest(root, a, b):
    """The classes of root (sets sharing a representative), each sorted,
    ordered by smallest member; per set its class; and the edges (a, b)
    grouped by class, in their given order within a class."""
    members = {}
    for i, r in enumerate(root):
        members.setdefault(r, []).append(i)
    classes = sorted(members.values())
    class_of = {i: k for k, c in enumerate(classes) for i in c}
    edges = sorted(zip(a, b), key=lambda e: class_of[e[0]])
    return classes, [class_of[i] for i in range(len(root))], edges


def random_partition(rng, m, pick):
    """root for a random partition of m sets whose representatives are
    the largest member of each class or, with pick "random", a random
    member; and sorted distinct edges within the classes."""
    label = rng.integers(0, rng.integers(1, m + 1), m)
    root = np.empty(m, dtype=np.int32)
    for c in np.unique(label):
        member = np.flatnonzero(label == c)
        root[member] = member[-1] if pick == "largest" else rng.choice(member)
    pairs = rng.integers(0, m, (3 * m, 2))
    pairs = pairs[label[pairs[:, 0]] == label[pairs[:, 1]]]
    edges = sorted({(min(x, y), max(x, y)) for x, y in pairs.tolist()
                    if x != y})
    a, b = np.array(edges, dtype=np.int32).reshape(-1, 2).T
    return root, a, b


@pytest.mark.parametrize("pick", ["largest", "random"])
def test_spanning_forest_groups_like_reference(pick):
    rng = np.random.default_rng(13)
    for m in list(range(1, 12)) + [50, 200, 1000]:
        root, a, b = random_partition(rng, m, pick)
        fo = SpanningForest(root, a, b)
        classes, class_id, edges = reference_forest(
            root.tolist(), a.tolist(), b.tolist())
        for arr in (fo.class_id, fo.order, fo.start, fo.a, fo.b,
                    fo.edge_start):
            assert arr.dtype == np.int32
        assert fo.class_id.tolist() == class_id
        assert fo.order.tolist() == [i for c in classes for i in c]
        assert fo.start.tolist() == np.cumsum(
            [0] + [len(c) for c in classes]).tolist()
        assert fo.classes == classes
        assert fo.roots == [c[0] for c in classes]
        assert list(zip(fo.a.tolist(), fo.b.tolist())) == edges
        per_class = np.bincount([class_id[x] for x, _ in edges],
                                minlength=len(classes))
        assert fo.edge_start.tolist() == np.cumsum(
            np.append(0, per_class)).tolist()


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


def test_set_graph_orients_sorts_and_dedups_raw_pairs():
    rng = seeded_rng(13)
    cases = [([], [], 5), ([0], [0], 1), ([4, 1, 3], [0, 2, 3], 5),
             ([2**31 - 2, 5, 2**31 - 2], [0, 2**31 - 3, 0], 2**31 - 1)]
    for m in (1, 2, 7, 50, 64, 65):
        k = rng.randint(1, 300)
        ea = [rng.randrange(m) for _ in range(k)]
        eb = [rng.randrange(m) for _ in range(k)]
        # repeat a random half, some of it reversed, so duplicates are common
        dup = rng.sample(range(k), k // 2)
        flip = set(dup[::2])
        cases.append((ea + [eb[i] if i in flip else ea[i] for i in dup],
                      eb + [ea[i] if i in flip else eb[i] for i in dup], m))
    for ea, eb, m in cases:
        g = SetGraph(m, np.array(ea, dtype=np.int32),
                     np.array(eb, dtype=np.int32))
        assert g.edges == sorted({(min(p), max(p)) for p in zip(ea, eb)})
        assert g.raw_edge_count == len(ea)
        assert g.a.dtype == g.b.dtype == np.int32
