"""Ordered partition of {0..n-1} with refinement by one set at a time.

The representation is a table with one slot per element plus, per part, a
pair of inclusive bounds [lo, hi] into that table. Parts are disjoint
contiguous intervals covering the whole table. Refining by a set X swaps
the members of X to the suffix of every part they partially hit and opens
a new part over that suffix; a part wholly inside or wholly outside X is
left alone. Element order inside a part carries no meaning.

Pass 1 of the Max computation (maxcomp.compute_pf) reaches the same final
order by sorting the element columns, so nothing in the pipeline refines;
this structure shows the step the paper describes.
"""

from array import array
from typing import NamedTuple

__all__ = ["SplitEvent", "OrderedPartition"]


class SplitEvent(NamedTuple):
    part: int       # id of the part that shrank (keeps the prefix)
    boundary: int   # slot index of the last element of the surviving prefix
    new_part: int   # id of the part now covering [boundary+1, old hi]


class OrderedPartition:

    __slots__ = ("n", "table", "position", "part_of", "part_lo", "part_hi")

    def __init__(self, n):
        if n < 1:
            raise ValueError("universe must be non-empty")
        self.n = n
        self.table = array("i", range(n))
        self.position = array("i", range(n))
        self.part_of = array("i", bytes(4 * n))
        self.part_lo = array("i", [0])
        self.part_hi = array("i", [n - 1])

    @classmethod
    def from_parts(cls, parts):
        """Build a partition already split into the given sequence of parts.

        parts is a list of element groups; concatenated they must be a
        permutation of 0..n-1.
        """
        p = cls(sum(map(len, parts)))
        p.table = array("i", [e for part in parts for e in part])
        p.part_lo = array("i")
        p.part_hi = array("i")
        lo = 0
        for pid, part in enumerate(parts):
            p.part_lo.append(lo)
            p.part_hi.append(lo + len(part) - 1)
            for slot in range(lo, lo + len(part)):
                p.position[p.table[slot]] = slot
                p.part_of[p.table[slot]] = pid
            lo += len(part)
        return p

    def refine(self, xs):
        """Refine every part by the element set xs; return the splits.

        For each part C with a proper non-empty intersection with xs, the
        members of xs are swapped into C's suffix, C is shrunk to the
        prefix and a fresh part id covers the suffix. A repeat in xs is
        dropped. Runs in O(|xs|) plus one bounds update per split part.
        """
        members = {}
        for e in dict.fromkeys(xs):
            if not 0 <= e < self.n:
                raise ValueError("element %r outside universe" % (e,))
            members.setdefault(self.part_of[e], []).append(e)
        table = self.table
        position = self.position
        events = []
        for p, group in members.items():
            hi = self.part_hi[p]
            boundary = hi - len(group)
            if boundary < self.part_lo[p]:
                continue  # xs holds the whole part
            newp = len(self.part_lo)
            for target, e in enumerate(group, boundary + 1):
                slot = position[e]
                other = table[target]
                table[slot], table[target] = other, e
                position[other], position[e] = slot, target
                self.part_of[e] = newp
            self.part_hi[p] = boundary
            self.part_lo.append(boundary + 1)
            self.part_hi.append(hi)
            events.append(SplitEvent(p, boundary, newp))
        return events

    def parts_in_order(self):
        """Parts left to right, each as the list of its elements."""
        return [self.table[lo:hi + 1]
                for lo, hi in sorted(zip(self.part_lo, self.part_hi))]
