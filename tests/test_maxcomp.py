import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap.family import build_sl_lists, parse_family
from overlap.generate import gen_blocks, gen_nested, gen_star
from overlap import maxcomp
from overlap.maxcomp import compute_bounds, compute_max, compute_pf
from overlap.oracle import max_oracle
from overlap.partition import OrderedPartition

from conftest import exhaustive_families, make_family, random_family, seeded_rng


def pass1(f):
    return compute_pf(f, build_sl_lists(f))


def max_stages(f):
    pf = pass1(f)
    bounds = compute_bounds(f, pf)
    return pf, bounds


def fast_max(f):
    return compute_max(f, *max_stages(f))


def reference_pass1(f):
    """Pass 1 as the paper runs it, the reference for compute_pf.

    Refines the one-part ordered partition of the universe by each set in
    LF order (f.lf). Returns the final parts left to right as lists, the
    row (the LF rank of the split that opened the boundary before each
    position), and every split as an (r, part, boundary, hi) tuple in the
    order it happened: the set of LF rank r split the part, which kept
    [lo, boundary] while a new part took [boundary + 1, hi].
    """
    op = OrderedPartition(f.n)
    splits = []
    for r, x in enumerate(f.lf.order.tolist()):
        for ev in op.refine(f.sets[x]):
            splits.append((r, ev.part, ev.boundary, op.part_hi[ev.new_part]))
    row = [f.m] * f.n
    for r, _, boundary, _ in splits:
        row[boundary + 1] = r
    return op.parts_in_order(), row, splits


def twin_groups(pf, m):
    """elem_at cut at each boundary of row, as lists of elements."""
    cuts = np.flatnonzero(pf.row != m)
    return [sorted(g.tolist()) for g in np.split(pf.elem_at, cuts[cuts > 0])]


def assert_pass1_matches(f):
    """row equals the reference's exactly, and elem_at holds the
    reference's final parts, left to right, in any order within each."""
    pf = pass1(f)
    parts, row, _ = reference_pass1(f)
    assert pf.row.tolist() == row, f.sets
    assert twin_groups(pf, f.m) == [sorted(p) for p in parts], f.sets


def family_of_columns(columns):
    """A family whose LF ranks are the ids in the given columns.

    Set i holds the elements with i in their column, plus private
    elements that make the sets strictly smaller by id, so LF order is
    id order. A column without ids is an element in no set; the private
    elements of a set are twins.
    """
    m = 1 + max(i for col in columns for i in col)
    sets = [[e for e, col in enumerate(columns) if i in col]
            for i in range(m)]
    top = max(map(len, sets)) + m
    for i, s in enumerate(sets):
        s += ["p%d.%d" % (i, j) for j in range(top - i - len(s))]
    f = make_family(*sets, universe=range(len(columns)))
    assert f.lf.order.tolist() == list(range(m))
    return f


def replay_max(f, bounds):
    """Pass 3 as a replay of pass 1's splits, the reference for the
    window-minimum read.

    The sets are indexed by right bound, each position's sets by
    increasing left bound. When a split opens the boundary after
    position l, a cursor at each position of the new suffix part walks
    past its sets with left <= l, separated for the first time: the
    refiner is a set's Max if it is at least as large; otherwise the set
    is dropped by size. Returns the Max partners as a list, -1 for none.
    """
    _, _, splits = reference_pass1(f)
    by_right = np.lexsort((bounds.left, bounds.right))
    start = np.zeros(f.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(bounds.right, minlength=f.n), out=start[1:])
    sets = by_right.tolist()
    left = bounds.left[by_right].tolist()
    cursor = start[:-1].tolist()
    end = start[1:].tolist()
    order = f.lf.order.tolist()
    sizes = f.sizes.tolist()
    maxes = [-1] * f.m
    for r, _, boundary, hi in splits:
        y = order[r]
        for q in range(boundary + 1, hi + 1):
            c = cursor[q]
            while c < end[q] and left[c] <= boundary:
                x = sets[c]
                if sizes[x] <= sizes[y]:
                    maxes[x] = y
                c += 1
            cursor[q] = c
    return maxes


def assert_matches_replay(f):
    pf, bounds = max_stages(f)
    got = compute_max(f, pf, bounds).partners.tolist()
    assert got == replay_max(f, bounds), f.sets
    return bounds


class TestPfOrder:

    def test_fam_a(self, fam_a):
        pf = pass1(fam_a)
        assert [fam_a.tokens[e] for e in pf.elem_at] == ["4", "3", "1", "2"]

    def test_single_set_complement_then_set(self):
        f = make_family([1, 3], universe=range(5))
        pf = pass1(f)
        assert {f.tokens[e] for e in pf.elem_at[3:]} == {"1", "3"}
        assert {f.tokens[e] for e in pf.elem_at[:3]} == {"0", "2", "4"}

    def test_inverse_maps(self, fam_a):
        pf = pass1(fam_a)
        for slot, e in enumerate(pf.elem_at):
            assert pf.pos_f[e] == slot


class TestPass1MatchesReference:

    def test_random_with_free_elements_and_twins(self):
        # random_family declares the whole universe, so some elements lie
        # in no set (empty columns); n <= 6 under many sets makes twins
        rng = seeded_rng(7)
        for _ in range(300):
            assert_pass1_matches(random_family(rng, max_n=30, max_m=40))
        for _ in range(200):
            assert_pass1_matches(random_family(rng, max_n=6, max_m=40))

    def test_twins_and_free_elements(self):
        assert_pass1_matches(make_family([0, 1, 2], [1, 2], [3],
                                         universe=range(7)))
        assert_pass1_matches(make_family([0, 1], [0, 1], universe=[5, 6]))

    def test_one_element_or_one_set(self):
        assert_pass1_matches(make_family([0]))
        assert_pass1_matches(make_family([0], [0], [0]))
        assert_pass1_matches(make_family([0], universe=range(4)))
        assert_pass1_matches(make_family([1, 3], universe=range(5)))
        assert_pass1_matches(make_family(range(9)))

    def test_nested_and_star(self):
        assert_pass1_matches(parse_family(gen_nested(40)))
        assert_pass1_matches(parse_family(gen_star(300)))

    def test_columns_around_powers_of_two(self):
        # columns of length L = 2**k - 1, 2**k and 2**k + 1 that share
        # their first L ids and then end, or go on with different ids
        columns = []
        for k in range(6):
            for length in (2**k - 1, 2**k, 2**k + 1):
                spine = list(range(length))
                columns += [spine, spine + [40], spine + [41],
                            spine + [40, 42], spine[:-1] + [43], []]
        assert max(map(len, columns)) == 35
        assert_pass1_matches(family_of_columns(columns))

    def test_long_shared_prefix(self):
        # the columns of elements 0 and 1 list the same 2**17 - 1 LF
        # ranks, and element 1 then holds the last set, [1]
        f = make_family(*([0, 1, 2 + i] for i in range(2**17 - 1)), [1])
        assert_pass1_matches(f)

    def test_twins_beside_columns_that_go_on(self):
        # groups of equal columns stay in the rounds beside columns that
        # share their first 2**k ids and differ only after them
        columns = []
        for length in (3, 4, 5, 8, 9, 16, 17):
            spine = list(range(length))
            columns += [spine] * 3 + [spine + [50]] * 2 + [spine + [51]]
            columns += [spine[:-1] + [52]] * 2
        assert_pass1_matches(family_of_columns(columns))


@pytest.mark.parametrize("f", [
    parse_family(gen_star(2**12)),
    make_family(*([0, 1, 2 + i] for i in range(2**12)), [1]),
    parse_family(gen_nested(256)),
], ids=["star", "two_long_columns", "nested"])
def test_pass1_sorts_linear_keys(monkeypatch, f):
    """Pass 1 sorts fewer than 2 (|F| + n) keys in all: a column leaves
    the rounds once it is placed, so one long column beside many short
    ones costs no sort work per round for the short ones."""
    sorted_keys = []

    def counting(sort):
        def wrapped(key):
            sorted_keys.append(len(key))
            return sort(key)
        return wrapped

    for name in ("sort_groups", "sort_order"):
        monkeypatch.setattr(maxcomp, name, counting(getattr(maxcomp, name)))
    pf = maxcomp.compute_pf(f, build_sl_lists(f))
    assert sum(sorted_keys) < 2 * (f.total_size + f.n)
    assert columns_lex_sorted(f, pf)


def columns_lex_sorted(f, pf):
    sets = f.as_frozensets()
    cols = []
    for p in range(f.n):
        e = pf.elem_at[p]
        cols.append(tuple(1 if e in sets[i] else 0 for i in f.lf.order))
    return all(a <= b for a, b in zip(cols, cols[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_pf_is_lexicographic_column_order(seed):
    f = random_family(seeded_rng(seed), max_n=12, max_m=12)
    assert columns_lex_sorted(f, pass1(f))


class TestBounds:

    def test_fam_a(self, fam_a):
        pf, bounds = max_stages(fam_a)
        # X2 = {2, 3} sits at positions 1 and 3 of P_f = (4, 3, 1, 2)
        assert (bounds.left[1], bounds.right[1]) == (1, 3)
        assert (bounds.left[0], bounds.right[0]) == (2, 3)

    def test_full_set(self):
        f = make_family(range(6))
        _, bounds = max_stages(f)
        assert (bounds.left[0], bounds.right[0]) == (0, 5)

    def test_singleton(self):
        f = make_family([0], [0, 1])
        _, bounds = max_stages(f)
        assert bounds.left[0] == bounds.right[0]


class TestSplitRanks:

    def test_fam_a(self, fam_a):
        # P_f = (4, 3, 1, 2): X4 (rank 0) splits nothing, X1 = {1, 2}
        # (rank 1) opens the boundary before position 2, X2 = {2, 3}
        # (rank 2) those before positions 1 and 3, and X3 finds only
        # singletons; no boundary lies before position 0
        pf, _ = max_stages(fam_a)
        assert pf.row.tolist() == [4, 2, 1, 2]

    def test_no_split(self):
        f = make_family([0, 1, 2], [0, 1, 2])
        pf, _ = max_stages(f)
        assert pf.row.tolist() == [2, 2, 2]


class TestComputeMax:

    def test_fam_a(self, fam_a):
        maxes = fast_max(fam_a)
        assert maxes.values == [1, 0, 1, None]

    def test_pairwise_disjoint_all_none(self):
        f = make_family([0, 1], [2, 3], [4])
        maxes = fast_max(f)
        assert maxes.values == [None, None, None]

    def test_identical_sets_none(self):
        f = make_family([0, 1], [0, 1])
        maxes = fast_max(f)
        assert maxes.values == [None, None]

    def test_equal_size_mutual_pair(self):
        f = make_family([0, 1], [1, 2])
        maxes = fast_max(f)
        assert maxes.values == [1, 0]

    def test_nested_chain_none(self):
        f = make_family([0], [0, 1], [0, 1, 2])
        maxes = fast_max(f)
        assert maxes.values == [None, None, None]

    def test_dropped_by_size_keeps_later_set_at_position(self):
        # all three sets end at position 2, in the order X2, X3, X1 by
        # left bound. Refiner X1 first separates X2 and X3: X2 is larger
        # and is dropped, X3 gets X1. X1, behind them, is served by the
        # next refiner X3
        f = make_family([1, 2], [0, 1, 2], [0, 2])
        maxes = fast_max(f)
        assert maxes.values == [2, None, 0]


def test_max_matches_oracle_exhaustive_small():
    for f in exhaustive_families(max_n=3, max_m=3):
        maxes = fast_max(f)
        assert maxes == max_oracle(f, f.lf), f.sets


def test_max_matches_oracle_random():
    rng = seeded_rng(99)
    for _ in range(300):
        f = random_family(rng, max_n=20, max_m=25)
        maxes = fast_max(f)
        assert maxes == max_oracle(f, f.lf), f.sets


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_max_matches_oracle_property(seed):
    f = random_family(seeded_rng(seed), max_n=10, max_m=10)
    maxes = fast_max(f)
    assert maxes == max_oracle(f, f.lf)


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
