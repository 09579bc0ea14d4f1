from overlap.dgraph import (DahlhausGraph, build_dgraph, components,
                            dedup_sorted_pairs)
from overlap.family import build_sl_lists, lf_order
from overlap.maxcomp import compute_bounds, compute_max, compute_pf
from overlap.oracle import overlap_graph_full
from overlap.pipeline import run_pipeline

from conftest import make_family, random_family, seeded_rng


def dahlhaus(f):
    lf = lf_order(f)
    sl = build_sl_lists(f, lf)
    pf = compute_pf(f, lf, sl)
    bounds = compute_bounds(f, pf)
    maxes = compute_max(f, lf, pf, bounds)
    return build_dgraph(f, sl, maxes)


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
        assert len(components(g, f.m).classes) == 1

    def test_raw_edge_bound_random(self):
        rng = seeded_rng(5)
        for _ in range(200):
            f = random_family(rng, max_n=15, max_m=20)
            g = dahlhaus(f)
            assert g.raw_edge_count <= f.total_size


class TestComponents:

    def test_fam_a_classes(self, fam_a):
        lab = components(dahlhaus(fam_a), fam_a.m)
        assert lab.classes == [[0, 1, 2], [3]]
        assert lab.class_id.tolist() == [0, 0, 0, 1]

    def test_edgeless(self):
        lab = components(DahlhausGraph(3, [], 0), 3)
        assert lab.classes == [[0], [1], [2]]

    def test_path_graph_single_class(self):
        lab = components(DahlhausGraph(4, [(0, 1), (1, 2), (2, 3)], 3), 4)
        assert lab.classes == [[0, 1, 2, 3]]

    def test_ids_by_smallest_member(self):
        lab = components(DahlhausGraph(4, [(2, 3)], 1), 4)
        assert lab.class_id.tolist() == [0, 1, 2, 2]


def test_components_match_oracle_random():
    rng = seeded_rng(11)
    for _ in range(300):
        f = random_family(rng, max_n=18, max_m=24)
        res = run_pipeline(f)
        full = overlap_graph_full(f)
        assert res.labeling.as_partition() == full.labeling.as_partition(), f.sets


def test_result_keeps_sl_lists_without_keys(fam_a):
    # the membership keys (|F| int64) are not kept past the run; the
    # helper graph needs only the lists
    res = run_pipeline(fam_a)
    assert res.sl.keys is None
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
