import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap.family import lf_order, parse_family
from overlap.generate import gen_blocks
from overlap.maxcomp import compute_bounds, compute_max, compute_pf
from overlap.oracle import max_oracle
from overlap.partition import OrderedPartition

from conftest import exhaustive_families, make_family, random_family, seeded_rng


def max_stages(f):
    lf = lf_order(f)
    pf = compute_pf(f, lf)
    bounds = compute_bounds(f, pf)
    return lf, pf, bounds


def fast_max(f):
    lf, pf, bounds = max_stages(f)
    return compute_max(f, lf, pf, bounds), lf


def replay_max(f, lf, bounds):
    """Pass 3 as a replay of pass 1's splits, the reference for the
    window-minimum read.

    The sets are indexed by right bound, each position's sets by
    increasing left bound. When a split opens the boundary after
    position l, a cursor at each position of the new suffix part walks
    past its sets with left <= l, separated for the first time: the
    refiner is a set's Max if it is at least as large; otherwise the set
    is dropped by size. Returns the Max partners as a list, -1 for none.
    """
    splits = OrderedPartition(f.n).refine_all(lf.sets())
    by_right = np.lexsort((bounds.left, bounds.right))
    start = np.zeros(f.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(bounds.right, minlength=f.n), out=start[1:])
    sets = by_right.tolist()
    left = bounds.left[by_right].tolist()
    cursor = start[:-1].tolist()
    end = start[1:].tolist()
    order = lf.order.tolist()
    sizes = f.sizes.tolist()
    maxes = [-1] * f.m
    for i in range(0, len(splits), 4):
        y = order[splits[i]]
        boundary = splits[i + 2]
        for q in range(boundary + 1, splits[i + 3] + 1):
            c = cursor[q]
            while c < end[q] and left[c] <= boundary:
                x = sets[c]
                if sizes[x] <= sizes[y]:
                    maxes[x] = y
                c += 1
            cursor[q] = c
    return maxes


def assert_matches_replay(f):
    lf, pf, bounds = max_stages(f)
    got = compute_max(f, lf, pf, bounds).partners.tolist()
    assert got == replay_max(f, lf, bounds), f.sets
    return bounds


class TestPfOrder:

    def test_fam_a(self, fam_a):
        lf = lf_order(fam_a)
        pf = compute_pf(fam_a, lf)
        assert [fam_a.tokens[e] for e in pf.elem_at] == ["4", "3", "1", "2"]

    def test_single_set_complement_then_set(self):
        f = make_family([1, 3], universe=range(5))
        pf = compute_pf(f, lf_order(f))
        assert {f.tokens[e] for e in pf.elem_at[3:]} == {"1", "3"}
        assert {f.tokens[e] for e in pf.elem_at[:3]} == {"0", "2", "4"}

    def test_inverse_maps(self, fam_a):
        pf = compute_pf(fam_a, lf_order(fam_a))
        for slot, e in enumerate(pf.elem_at):
            assert pf.pos_f[e] == slot


def columns_lex_sorted(f, lf, pf):
    sets = f.as_frozensets()
    cols = []
    for p in range(f.n):
        e = pf.elem_at[p]
        cols.append(tuple(1 if e in sets[i] else 0 for i in lf.order))
    return all(a <= b for a, b in zip(cols, cols[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_pf_is_lexicographic_column_order(seed):
    f = random_family(seeded_rng(seed), max_n=12, max_m=12)
    lf = lf_order(f)
    pf = compute_pf(f, lf)
    assert columns_lex_sorted(f, lf, pf)


class TestBounds:

    def test_fam_a(self, fam_a):
        _, pf, bounds = max_stages(fam_a)
        # X2 = {2, 3} sits at positions 1 and 3 of P_f = (4, 3, 1, 2)
        assert (bounds.left[1], bounds.right[1]) == (1, 3)
        assert (bounds.left[0], bounds.right[0]) == (2, 3)

    def test_full_set(self):
        f = make_family(range(6))
        _, _, bounds = max_stages(f)
        assert (bounds.left[0], bounds.right[0]) == (0, 5)

    def test_singleton(self):
        f = make_family([0], [0, 1])
        _, _, bounds = max_stages(f)
        assert bounds.left[0] == bounds.right[0]


class TestSplitRanks:

    def test_fam_a(self, fam_a):
        # P_f = (4, 3, 1, 2): X4 (rank 0) splits nothing, X1 = {1, 2}
        # (rank 1) opens the boundary before position 2, X2 = {2, 3}
        # (rank 2) those before positions 1 and 3, and X3 finds only
        # singletons; no boundary lies before position 0
        _, pf, _ = max_stages(fam_a)
        assert pf.row.tolist() == [4, 2, 1, 2]

    def test_no_split(self):
        f = make_family([0, 1, 2], [0, 1, 2])
        _, pf, _ = max_stages(f)
        assert pf.row.tolist() == [2, 2, 2]


class TestComputeMax:

    def test_fam_a(self, fam_a):
        maxes, _ = fast_max(fam_a)
        assert maxes.values == [1, 0, 1, None]

    def test_pairwise_disjoint_all_none(self):
        f = make_family([0, 1], [2, 3], [4])
        maxes, _ = fast_max(f)
        assert maxes.values == [None, None, None]

    def test_identical_sets_none(self):
        f = make_family([0, 1], [0, 1])
        maxes, _ = fast_max(f)
        assert maxes.values == [None, None]

    def test_equal_size_mutual_pair(self):
        f = make_family([0, 1], [1, 2])
        maxes, _ = fast_max(f)
        assert maxes.values == [1, 0]

    def test_nested_chain_none(self):
        f = make_family([0], [0, 1], [0, 1, 2])
        maxes, _ = fast_max(f)
        assert maxes.values == [None, None, None]

    def test_dropped_by_size_keeps_later_set_at_position(self):
        # all three sets end at position 2, in the order X2, X3, X1 by
        # left bound. Refiner X1 first separates X2 and X3: X2 is larger
        # and is dropped, X3 gets X1. X1, behind them, is served by the
        # next refiner X3
        f = make_family([1, 2], [0, 1, 2], [0, 2])
        maxes, _ = fast_max(f)
        assert maxes.values == [2, None, 0]


def test_max_matches_oracle_exhaustive_small():
    for f in exhaustive_families(max_n=3, max_m=3):
        maxes, lf = fast_max(f)
        assert maxes == max_oracle(f, lf), f.sets


def test_max_matches_oracle_random():
    rng = seeded_rng(99)
    for _ in range(300):
        f = random_family(rng, max_n=20, max_m=25)
        maxes, lf = fast_max(f)
        assert maxes == max_oracle(f, lf), f.sets


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_max_matches_oracle_property(seed):
    f = random_family(seeded_rng(seed), max_n=10, max_m=10)
    maxes, lf = fast_max(f)
    assert maxes == max_oracle(f, lf)


def test_max_matches_replay_random():
    rng = seeded_rng(43)
    for _ in range(300):
        assert_matches_replay(random_family(rng, max_n=30, max_m=40))


def test_max_matches_replay_window_edges():
    # A chain {0..n-1}, {0..n-2}, ..., {0} puts element e at position
    # n - 1 - e and, but for the last, the boundary before position p at
    # LF rank p, so a pair {a, b} has a window of b - a entries whose
    # minimum is mostly its first entry. Windows of 2**k and 2**k + 1
    # entries hit both ends of every level; single-element sets have
    # empty windows.
    n = 70
    chain = [list(range(j + 1)) for j in range(n - 1, -1, -1)]
    pairs = [[a, a + w] for w in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65)
             for a in (0, n - 1 - w)]
    bounds = assert_matches_replay(make_family(*chain, *pairs, [5], [n - 1]))
    widths = set((bounds.right - bounds.left).tolist())
    assert {0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65} <= widths
    assert_matches_replay(make_family([3], [0], [7]))
    assert_matches_replay(make_family([1, 2], [0, 1, 2], [0, 2]))


def test_max_matches_replay_blocks():
    # about 20k sets: far past the O(m**2) oracle's reach in test time
    f = parse_family(gen_blocks(6000, 20000, 400, 11))
    assert f.m == 20000
    assert_matches_replay(f)
