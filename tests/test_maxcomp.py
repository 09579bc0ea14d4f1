from hypothesis import given, settings
from hypothesis import strategies as st

from overlap.family import build_sl_lists, lf_order
from overlap.maxcomp import (build_am, compute_bounds, compute_max,
                             compute_pf)
from overlap.oracle import max_oracle

from conftest import exhaustive_families, make_family, random_family, seeded_rng


def max_stages(f):
    lf = lf_order(f)
    pf = compute_pf(f, lf)
    bounds = compute_bounds(f, pf)
    am = build_am(f, bounds)
    return lf, pf, bounds, am


def fast_max(f):
    lf, pf, bounds, am = max_stages(f)
    return compute_max(f, lf, pf, bounds, am), lf


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
        _, pf, bounds, _ = max_stages(fam_a)
        # X2 = {2, 3} sits at positions 1 and 3 of P_f = (4, 3, 1, 2)
        assert (bounds.left[1], bounds.right[1]) == (1, 3)
        assert (bounds.left[0], bounds.right[0]) == (2, 3)

    def test_full_set(self):
        f = make_family(range(6))
        _, _, bounds, _ = max_stages(f)
        assert (bounds.left[0], bounds.right[0]) == (0, 5)

    def test_singleton(self):
        f = make_family([0], [0, 1])
        _, _, bounds, _ = max_stages(f)
        assert bounds.left[0] == bounds.right[0]


class TestAM:

    def test_fam_a_order(self, fam_a):
        _, _, bounds, am = max_stages(fam_a)

        def at(q):
            return am.sets[am.start[q]:am.start[q + 1]].tolist()

        # position 3 holds X4 (left 0), X2 (left 1), X1 (left 2), left-sorted
        assert at(3) == [3, 1, 0]
        assert at(2) == []


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
