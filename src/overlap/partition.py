"""Ordered partition of {0..n-1} with linear-time refinement.

The representation is a table with one slot per element plus, per part, a
pair of inclusive bounds [lo, hi] into that table. Parts are disjoint
contiguous intervals covering the whole table. Refining by a set X swaps
the members of X to the suffix of every part they partially hit and opens
a new part over that suffix; a part wholly inside or wholly outside X is
left alone. Element order inside a part carries no meaning.

alone[e] is 1 once e's part is a singleton: no refinement can split it
again, so refining skips such an element after one byte lookup. On
families with many overlaps most elements end up alone in their part
early on, which makes this the cheapest test in the loop.
"""

from array import array
from typing import NamedTuple

__all__ = ["SplitEvent", "OrderedPartition"]


class SplitEvent(NamedTuple):
    part: int       # id of the part that shrank (keeps the prefix)
    boundary: int   # slot index of the last element of the surviving prefix
    new_part: int   # id of the part now covering [boundary+1, old hi]


class OrderedPartition:

    __slots__ = ("n", "table", "position", "part_of", "part_lo", "part_hi",
                 "alone")

    def __init__(self, n):
        if n < 1:
            raise ValueError("universe must be non-empty")
        self.n = n
        self.table = array("i", range(n))
        self.position = array("i", range(n))
        self.part_of = array("i", bytes(4 * n))
        self.part_lo = array("i", [0])
        self.part_hi = array("i", [n - 1])
        self.alone = bytearray([n == 1]) * n

    @classmethod
    def from_order(cls, order):
        """Single part over the given element order."""
        p = cls(len(order))
        p.table = array("i", order)
        for slot, e in enumerate(p.table):
            p.position[e] = slot
        return p

    @classmethod
    def from_parts(cls, parts):
        """Build a partition already split into the given sequence of parts.

        parts is a list of element groups; concatenated they must be a
        permutation of 0..n-1.
        """
        flat = [e for part in parts for e in part]
        p = cls.from_order(flat)
        p.part_lo = array("i")
        p.part_hi = array("i")
        lo = 0
        for pid, part in enumerate(parts):
            hi = lo + len(part) - 1
            p.part_lo.append(lo)
            p.part_hi.append(hi)
            for slot in range(lo, hi + 1):
                p.part_of[p.table[slot]] = pid
                p.alone[p.table[slot]] = hi == lo
            lo = hi + 1
        return p

    def refine(self, xs):
        """Refine every part by the element set xs; return the splits.

        For each part C with a proper non-empty intersection with xs, the
        members of xs are swapped into C's suffix, C is shrunk to the
        prefix and a fresh part id covers the suffix. Runs in O(|xs|)
        plus one bounds update per split part.
        """
        n = self.n
        for e in xs:
            if not 0 <= e < n:
                raise ValueError("element %r outside universe" % (e,))
        first = len(self.part_lo)
        splits = self.refine_all((xs,))
        return [SplitEvent(splits[i + 1], splits[i + 2], first + i // 4)
                for i in range(0, len(splits), 4)]

    def refine_all(self, seqs):
        """Refine by each element set of seqs in turn; return every split.

        The splits come as one flat array('i') of (r, part, boundary, hi)
        quadruples in the order they happened: seqs[r] split the part,
        which kept [lo, boundary] while a new part took [boundary + 1,
        hi]. New part ids count up from len(part_lo) at the call. The
        elements must lie in the universe: refine checks them, this loop
        does not.
        """
        table = self.table
        position = self.position
        part_of = self.part_of
        part_lo = self.part_lo
        part_hi = self.part_hi
        alone = self.alone
        splits = array("i")
        record = splits.extend
        for r, xs in enumerate(seqs):
            counts = {}
            for e in xs:
                if alone[e]:
                    continue
                p = part_of[e]
                if p in counts:
                    counts[p] += 1
                else:
                    counts[p] = 1
            if not counts:
                continue

            # swap each member of xs into the suffix of its part
            placed = {}
            pget = placed.get
            for e in xs:
                if alone[e]:
                    continue
                p = part_of[e]
                hi = part_hi[p]
                if counts[p] == hi - part_lo[p] + 1:
                    continue
                k = pget(p, 0)
                placed[p] = k + 1
                target = hi - k
                slot = position[e]
                if slot != target:
                    other = table[target]
                    table[target] = e
                    table[slot] = other
                    position[e] = target
                    position[other] = slot

            for p, k in counts.items():
                lo = part_lo[p]
                hi = part_hi[p]
                if k == hi - lo + 1:
                    continue
                boundary = hi - k
                newp = len(part_lo)
                part_lo.append(boundary + 1)
                part_hi.append(hi)
                part_hi[p] = boundary
                for e in table[boundary + 1:hi + 1]:
                    part_of[e] = newp
                if k == 1:
                    alone[table[hi]] = 1
                if boundary == lo:
                    alone[table[lo]] = 1
                record((r, p, boundary, hi))
        return splits

    def parts_in_order(self):
        """Parts left to right, each as the list of its elements."""
        out = []
        slot = 0
        n = self.n
        table = self.table
        part_hi = self.part_hi
        part_of = self.part_of
        while slot < n:
            hi = part_hi[part_of[table[slot]]]
            out.append(table[slot:hi + 1])
            slot = hi + 1
        return out

    def part_bounds(self, pid):
        return self.part_lo[pid], self.part_hi[pid]

    def check_valid(self):
        """Debug validator for the structural invariants; O(n + #parts)."""
        n = self.n
        assert sorted(self.table) == list(range(n))
        for e in range(n):
            assert self.table[self.position[e]] == e
        covered = 0
        seen_slots = set()
        for pid, (lo, hi) in enumerate(zip(self.part_lo, self.part_hi)):
            if lo > hi:
                continue  # ids are never reused but a part can be emptied only by bugs
            for slot in range(lo, hi + 1):
                assert slot not in seen_slots
                seen_slots.add(slot)
                assert self.part_of[self.table[slot]] == pid
                assert self.alone[self.table[slot]] == (hi == lo)
            covered += hi - lo + 1
        assert covered == n
