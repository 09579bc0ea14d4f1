import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap.partition import OrderedPartition


def parts_as_sets(p):
    return [set(part) for part in p.parts_in_order()]


def check_valid(p):
    """The structural invariants of p; O(n + #parts)."""
    n = p.n
    assert sorted(p.table) == list(range(n))
    for e in range(n):
        assert p.table[p.position[e]] == e
    slot = 0  # the parts are non-empty intervals that tile the table
    for lo, hi in sorted(zip(p.part_lo, p.part_hi)):
        assert lo == slot <= hi
        slot = hi + 1
    assert slot == n
    for pid, (lo, hi) in enumerate(zip(p.part_lo, p.part_hi)):
        for e in p.table[lo:hi + 1]:
            assert p.part_of[e] == pid


class TestInit:

    def test_single_part(self):
        p = OrderedPartition(4)
        assert parts_as_sets(p) == [{0, 1, 2, 3}]

    def test_singleton_universe(self):
        p = OrderedPartition(1)
        assert parts_as_sets(p) == [{0}]

    def test_bounds(self):
        p = OrderedPartition(12)
        assert (p.part_lo[0], p.part_hi[0]) == (0, 11)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            OrderedPartition(0)


class TestRefine:

    def test_worked_example(self):
        # {a}{i,j,k,l}{b}{c,d}{e,f,g,h} refined by {d,e}
        letters = "aijklbcdefgh"
        idx = {c: i for i, c in enumerate(letters)}
        parts = [["a"], ["i", "j", "k", "l"], ["b"], ["c", "d"],
                 ["e", "f", "g", "h"]]
        p = OrderedPartition.from_parts([[idx[c] for c in part] for part in parts])
        p.refine([idx["d"], idx["e"]])
        expect = [["a"], ["i", "j", "k", "l"], ["b"], ["c"], ["d"],
                  ["f", "g", "h"], ["e"]]
        assert parts_as_sets(p) == [{idx[c] for c in part} for part in expect]

    def test_full_intersection_no_event(self):
        p = OrderedPartition(4)
        assert p.refine([0, 1, 2, 3]) == []
        assert parts_as_sets(p) == [{0, 1, 2, 3}]

    def test_simple_split(self):
        p = OrderedPartition(4)
        events = p.refine([1, 2])
        assert parts_as_sets(p) == [{0, 3}, {1, 2}]
        assert len(events) == 1
        ev = events[0]
        assert ev.boundary == 1
        assert (p.part_lo[ev.part], p.part_hi[ev.part]) == (0, 1)
        assert (p.part_lo[ev.new_part], p.part_hi[ev.new_part]) == (2, 3)

    def test_no_intersection_no_event(self):
        p = OrderedPartition(4)
        p.refine([0, 1])
        assert p.refine([0, 1]) == []

    def test_out_of_range_rejected(self):
        p = OrderedPartition(3)
        with pytest.raises(ValueError):
            p.refine([3])

    def test_repeated_element_counts_once(self):
        # a repeat used to count as a second member: n = 3 put element
        # 2 in the new part, and n = 2 did not split at all
        p = OrderedPartition(3)
        assert len(p.refine([1, 1])) == 1
        assert parts_as_sets(p) == [{0, 2}, {1}]
        check_valid(p)
        p = OrderedPartition(2)
        assert len(p.refine([1, 1])) == 1
        assert parts_as_sets(p) == [{0}, {1}]

    def test_split_event_per_part(self):
        p = OrderedPartition(6)
        p.refine([0, 1, 2])
        events = p.refine([0, 3])  # hits both parts properly
        assert len(events) == 2

    def test_prefix_suffix_order_preserved(self):
        # the shrunken part keeps its interval prefix, the new part the suffix
        p = OrderedPartition(5)
        (ev,) = p.refine([2, 4])
        assert (p.part_lo[ev.part], p.part_hi[ev.part]) == (0, 2)
        nlo, nhi = p.part_lo[ev.new_part], p.part_hi[ev.new_part]
        assert (nlo, nhi) == (3, 4)
        assert set(p.table[nlo:nhi + 1]) == {2, 4}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_refine_sequences_keep_invariants(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    p = OrderedPartition(n)
    part_count = 1
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        xs = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                unique=True, min_size=1, max_size=n))
        events = p.refine(xs)
        part_count += len(events)
        check_valid(p)
        assert len(p.part_lo) == part_count
        # every element of xs now lies in a part fully inside xs
        xset = set(xs)
        for part in p.parts_in_order():
            inter = xset.intersection(part)
            assert not inter or len(inter) == len(part)
