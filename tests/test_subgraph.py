import numpy as np

from overlap.dgraph import SetGraph, UnionFind, build_dgraph, covers
from overlap.family import build_sl_lists, parse_family
from overlap.maxcomp import (Bounds, MaxAssignment, compute_bounds,
                             compute_max, compute_pf)
from overlap.oracle import overlap_graph_full, overlaps
from overlap.pipeline import run_pipeline
from overlap.subgraph import _collect, _resolve, build_overlap_subgraph

from conftest import make_family, random_family, seeded_rng
from test_dgraph import running_max_dgraph


def stages(f):
    sl = build_sl_lists(f)
    pf = compute_pf(f, sl)
    bounds = compute_bounds(f, pf)
    maxes = compute_max(f, pf, bounds)
    return sl, pf, bounds, maxes


def collect(f, sl, maxes, bounds):
    """The deduplicated base edges, and each quintuple as a tuple
    (left, right, x, y, mx) with the bounds of x and its Max mx."""
    ea, eb, qx, qy = _collect(f, sl, maxes)
    base = SetGraph(f.m, ea, eb).edges
    cols = (bounds.left[qx], bounds.right[qx], qx, qy, maxes.partners[qx])
    return base, list(zip(*(c.tolist() for c in cols)))


def resolve(pf, sl, bounds, left, right, x, y, mx):
    """The edges that the one quintuple (left, right, x, y, mx) gives,
    smaller end first: x's bounds are taken as left and right, and its
    Max as mx."""
    lo, hi = bounds.left.copy(), bounds.right.copy()
    lo[x], hi[x] = left, right
    partners = np.full(len(lo), -1, dtype=np.int32)
    partners[x] = mx
    a, b = _resolve(pf, sl, Bounds(lo, hi), MaxAssignment(partners),
                    np.array([x]), np.array([y]))
    return [(min(e), max(e)) for e in zip(a.tolist(), b.tolist())]


class TestQuintuples:

    def test_fam_a_base_edges(self, fam_a):
        sl, _, bounds, maxes = stages(fam_a)
        base, lq1 = collect(fam_a, sl, maxes, bounds)
        assert base == [(0, 1), (1, 2)]
        # SL tie-break puts X3 before X2 on SL(3), so the interval head
        # there is X3 whose Max is the very next entry: no quintuple
        assert lq1 == []

    def test_shared_hub_produces_quintuple(self):
        # A={a,b}, B={b,c}, C={b,d}: on SL(b) = [C, B, A] the head C
        # covers B, and B is neither C nor Max(C)=A
        f = make_family(["a", "b"], ["b", "c"], ["b", "d"])
        sl, _, bounds, maxes = stages(f)
        base, lq1 = collect(f, sl, maxes, bounds)
        assert maxes.values == [1, 0, 0]
        assert [q[2:] for q in lq1] == [(2, 1, 0)]
        assert lq1[0][:2] == (bounds.left[2], bounds.right[2])

    def test_disjoint_empty(self):
        f = make_family([0, 1], [2, 3])
        sl, _, bounds, maxes = stages(f)
        base, lq1 = collect(f, sl, maxes, bounds)
        assert base == [] and lq1 == []

    def test_nested_chain_empty(self):
        f = make_family([0], [0, 1], [0, 1, 2])
        sl, _, bounds, maxes = stages(f)
        base, lq1 = collect(f, sl, maxes, bounds)
        assert base == [] and lq1 == []

    def test_size_bounds_random(self):
        rng = seeded_rng(17)
        for _ in range(100):
            f = random_family(rng, max_n=15, max_m=20)
            sl, _, bounds, maxes = stages(f)
            base, lq1 = collect(f, sl, maxes, bounds)
            assert len(base) <= f.m
            assert len(lq1) <= f.total_size
            for _, _, x, y, mx in lq1:
                assert y not in (x, mx)
                assert f.sizes[x] <= f.sizes[y] <= f.sizes[mx]
                assert not set(f.sets[x]).isdisjoint(f.sets[y])


class TestResolve:

    def test_fam_a_manual_quintuple(self, fam_a):
        # (l=1, r=3, X2, X3, X1): P_f position 1 holds "3" (in X3) and
        # position 3 holds "2" (not in X3), so the edge is (X2, X3)
        sl, pf, bounds, _ = stages(fam_a)
        assert resolve(pf, sl, bounds, 1, 3, 1, 2, 0) == [(1, 2)]

    def test_phase1_short_circuit(self, fam_a):
        # position 2 holds "1" which X3 misses: edge (X, Y) immediately
        sl, pf, bounds, _ = stages(fam_a)
        assert resolve(pf, sl, bounds, 2, 3, 1, 2, 0) == [(1, 2)]

    def test_both_members_fall_back_to_max(self, fam_a):
        # X4 contains every element, so its quintuple resolves to (Y, M)
        sl, pf, bounds, _ = stages(fam_a)
        assert resolve(pf, sl, bounds, 1, 3, 1, 3, 0) == [(0, 3)]


class TestSubgraph:

    def test_fam_a_edges(self, fam_a):
        sl, pf, bounds, maxes = stages(fam_a)
        g = build_overlap_subgraph(fam_a, sl, maxes, bounds, pf,
                                   lambda _: None)
        assert g.edges == [(0, 1), (1, 2)]

    def test_every_edge_overlaps_random(self):
        rng = seeded_rng(23)
        for _ in range(200):
            f = random_family(rng, max_n=15, max_m=20)
            res = run_pipeline(f)
            sets = f.as_frozensets()
            for a, b in res.subgraph.edges:
                assert overlaps(sets[a], sets[b]), (f.sets, a, b)
            assert len(res.subgraph.edges) <= f.m + f.total_size

    def test_components_match_oracle_random(self):
        rng = seeded_rng(29)
        for _ in range(200):
            f = random_family(rng, max_n=15, max_m=20)
            res = run_pipeline(f)
            uf = UnionFind(f.m)
            for a, b in res.subgraph.edges:
                uf.union(a, b)
            sub_classes = {}
            for i in range(f.m):
                sub_classes.setdefault(uf.find(i), set()).add(i)
            full = overlap_graph_full(f)
            assert {frozenset(c) for c in sub_classes.values()} == \
                full.labeling.as_partition(), f.sets


class TestForest:

    def test_fam_a(self, fam_a):
        res = run_pipeline(fam_a)
        forest = res.forest
        assert forest.roots == [0, 3]
        assert forest.members == [[0, 1, 2], [3]]
        assert forest.tree_edges == [[(0, 1), (1, 2)], []]

    def test_edgeless(self):
        f = make_family([0, 1], [2, 3])
        forest = run_pipeline(f).forest
        assert forest.roots == [0, 1]
        assert forest.tree_edges == [[], []]

    def test_triangle_two_edges(self):
        f = make_family([0, 1], [1, 2], [2, 0])
        forest = run_pipeline(f).forest
        assert len(forest.tree_edges) == 1
        assert len(forest.tree_edges[0]) == 2

    def test_shape_random(self):
        rng = seeded_rng(31)
        for _ in range(150):
            f = random_family(rng, max_n=15, max_m=20)
            res = run_pipeline(f)
            sub_edges = set(res.subgraph.edges)
            uf = UnionFind(f.m)
            for members, edges in zip(res.forest.members, res.forest.tree_edges):
                assert len(edges) == len(members) - 1
                for e in edges:
                    assert e in sub_edges
                    assert uf.union(*e)  # acyclic: every tree edge unites


def stack_covers(f, sl, maxes):
    """Per SL list, a stack scan for each entry's nearest earlier entry
    whose Max is at least as large as the entry's set; the covered
    entries and their covers as pairs of positions in sl.flat."""
    sizes = f.sizes.tolist()
    reach = [0 if v < 0 else sizes[v] for v in maxes.partners.tolist()]
    flat = sl.flat.tolist()
    offsets = sl.offsets.tolist()
    out = []
    for lo, hi in zip(offsets, offsets[1:]):
        stack = []
        for j in range(lo, hi):
            while stack and reach[flat[stack[-1]]] < sizes[flat[j]]:
                stack.pop()
            if stack:
                out.append((j, stack[-1]))
            if reach[flat[j]]:
                stack.append(j)
    return out


def stack_quintuples(f, sl, maxes):
    """The per-list stack scan the vectorized collection replaced."""
    mv = maxes.values
    out = []
    for j, i in stack_covers(f, sl, maxes):
        x, z = int(sl.flat[i]), int(sl.flat[j])
        if z not in (x, mv[x]):
            out.append((x, z))
    return out


def test_quintuples_match_stack_scan_random():
    rng = seeded_rng(37)
    for _ in range(200):
        f = random_family(rng, max_n=15, max_m=20)
        sl, _, bounds, maxes = stages(f)
        _, lq1 = collect(f, sl, maxes, bounds)
        assert [q[2:4] for q in lq1] == stack_quintuples(f, sl, maxes)


def test_forest_matches_union_find_sweep_random():
    rng = seeded_rng(41)
    for _ in range(200):
        f = random_family(rng, max_n=15, max_m=20)
        res = run_pipeline(f)
        uf = UnionFind(f.m)
        kept = [e for e in res.subgraph.edges if uf.union(*e)]
        assert sorted(e for tree in res.forest.tree_edges for e in tree) \
            == kept, f.sets


def hub_family(rng):
    """A family with long SL lists, as text with elements in no set.

    The first 16 to 26 sets each draw 1 to 12 elements from a pool of
    16, and nine in ten of them, or just one, also hold the hub h. Then
    come the nested sets {h, c1, ..., ck}, for k from 13 to a chain of 44
    to 48, all larger than the drawn sets, and the set Z of h, the whole
    chain and z. Nothing larger overlaps a chain set, so none has a Max,
    while each drawn set with h overlaps Z and reaches it: on h's list
    the last drawn set covers the chain and Z, across more than half the
    list, and across all of it when it is the only one. Nothing covers
    an entry of a chain element's list after its first.
    '!universe' lines declare elements in no set first, midway and last,
    so their empty SL lists lie at the start, middle and end of sl.flat.
    """
    lines = ["!universe u0 u1"]
    m = rng.randint(16, 26)
    holders = rng.sample(range(m), rng.choice([1, m - m // 10]))
    for i in range(m):
        tokens = ["p%d" % e for e in rng.sample(range(16), rng.randint(1, 12))]
        if i in holders:
            tokens.insert(rng.randrange(len(tokens) + 1), "h")
        lines.append(" ".join(tokens))
        if i == m // 2:
            lines.append("!universe u2")
    chain = ["c%d" % k for k in range(rng.randint(44, 48))]
    lines += [" ".join(["h"] + chain[:k]) for k in range(13, len(chain) + 1)]
    lines += [" ".join(["h"] + chain + ["z"]), "!universe u3 u4"]
    return parse_family("\n".join(lines) + "\n")


def test_covers_match_stack_scan_on_long_lists():
    rng = seeded_rng(43)
    distances = set()
    uncovered = empty_start = empty_middle = empty_end = 0
    beyond = whole = 0
    for _ in range(30):
        f = hub_family(rng)
        sl, _, bounds, maxes = stages(f)
        covered, by = covers(f, sl, maxes)
        pairs = stack_covers(f, sl, maxes)
        assert list(zip(covered.tolist(), by.tolist())) == pairs
        _, lq1 = collect(f, sl, maxes, bounds)
        assert [q[2:4] for q in lq1] == stack_quintuples(f, sl, maxes)
        edges, raw = running_max_dgraph(f, sl, maxes)
        g = build_dgraph(f, sl, maxes)
        assert (g.edges, g.raw_edge_count) == (edges, raw)
        # the cover walk's largest window spans the largest power of two
        # at most the longest list's length less 2; when that length is
        # a power of two, a cover across the whole list needs every level
        lengths = np.diff(sl.offsets)
        longest = int(lengths.max())
        window = 1 << (longest - 2).bit_length() - 1
        distance = covered - by
        distances.update(distance.tolist())
        beyond += int((distance > window).sum())
        whole += window == longest - 2 and (distance == longest - 1).any()
        heads = np.count_nonzero(lengths)
        uncovered += len(sl.flat) - heads - len(covered)
        empty = np.flatnonzero(lengths == 0)
        empty_start += int(empty[0] == 0)
        empty_end += int(empty[-1] == f.n - 1)
        empty_middle += int(((sl.offsets[empty] > 0)
                             & (sl.offsets[empty] < len(sl.flat))).any())
    assert {1, 2} <= distances
    assert beyond and whole and uncovered
    assert empty_start == empty_middle == empty_end == 30
