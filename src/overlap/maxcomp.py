"""Linear-time computation of Max over a set family, in three passes.

Max of a set X is the earliest set Y in LF order that overlaps X and has
size >= |X| (None when no such Y exists). The passes are:

1. refine the trivial partition of the universe by every set in LF order;
   the final element order sorts the conceptual membership-matrix columns
   lexicographically (that matrix is never materialized);
2. read off, per set, the leftmost/rightmost position of its elements in
   that order, and index all sets by their rightmost position;
3. replay the refinement over the frozen final order; each split serves
   the sets whose left bound falls in the prefix and right bound in the
   new suffix part. The refiner is a served set's Max if it is at least
   as large; otherwise the set is dropped by size for good.

A part keeps its interval of the table for good: later swaps stay inside
the parts it splits into. So every split of pass 1 falls at the same
position of the final order, and pass 1 records its splits for pass 3 to
replay instead of refining a second time.
"""

from array import array

import numpy as np

from .partition import OrderedPartition

__all__ = [
    "PfOrder",
    "Bounds",
    "AMStructure",
    "MaxAssignment",
    "compute_pf",
    "compute_bounds",
    "build_am",
    "compute_max",
]


class PfOrder:
    """Final element order after pass 1. elem_at and pos_f are inverse.

    splits lists pass 1's splits as OrderedPartition.refine_all returns
    them, with r the LF rank of the refining set.
    """

    __slots__ = ("elem_at", "pos_f", "splits")

    def __init__(self, elem_at, splits):
        self.splits = splits
        self.elem_at = np.asarray(elem_at, dtype=np.int32)
        self.pos_f = np.empty_like(self.elem_at)
        self.pos_f[self.elem_at] = np.arange(len(self.elem_at), dtype=np.int32)


class Bounds:
    """Per set, the leftmost and rightmost position of its elements."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class MaxAssignment:
    """Per set, the index of its Max partner.

    partners is an int32 array with -1 for a set without Max; values gives
    the same as a list with None there, built on each read.
    """

    __slots__ = ("partners",)

    def __init__(self, partners):
        self.partners = np.asarray(partners, dtype=np.int32)

    @property
    def values(self):
        return [None if v < 0 else v for v in self.partners.tolist()]

    def __getitem__(self, i):
        v = int(self.partners[i])
        return None if v < 0 else v

    def __eq__(self, other):
        if isinstance(other, MaxAssignment):
            return np.array_equal(self.partners, other.partners)
        return NotImplemented

    def __repr__(self):
        return "MaxAssignment(%r)" % (self.values,)


class AMStructure:
    """Sets indexed by right bound, each position's sets by increasing left.

    sets holds every set id sorted by (right, left, index); the sets whose
    right bound is position q are sets[start[q]:start[q + 1]].
    """

    __slots__ = ("sets", "start")

    def __init__(self, sets, start):
        self.sets = sets
        self.start = start


def compute_pf(f, lf):
    """Pass 1: refine the full-universe partition by every set in LF order."""
    p = OrderedPartition(f.n)
    splits = p.refine_all(lf.sets())
    return PfOrder(p.table, splits)


def compute_bounds(f, pf):
    """Pass 2a: min/max position of each set's elements in the final order."""
    vals = pf.pos_f[f.elems]
    starts = f.offsets[:-1]
    return Bounds(np.minimum.reduceat(vals, starts),
                  np.maximum.reduceat(vals, starts))


def build_am(f, bounds):
    """Pass 2b: sort the sets by (right, left, index), cut by right bound."""
    sets = np.lexsort((bounds.left, bounds.right)).astype(np.int32)
    start = np.zeros(f.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(bounds.right, minlength=f.n), out=start[1:])
    return AMStructure(sets, start)


def compute_max(f, lf, pf, bounds, am):
    """Pass 3: replay the LF refinement's splits over the frozen final order.

    When a part splits at boundary l, the sets indexed under a position of
    the new suffix part whose left bound is <= l are separated for the
    first time. Each position's cursor walks past them, so a set is served
    once. The refiner is its Max if it is at least as large; otherwise the
    set is dropped by size, since later refiners are no larger. A walk
    stops at the first set with left > l, not separated yet, as are those
    after it. Each cursor step retires one set, so the pass is O(n + |F|).
    """
    order = lf.order
    sizes = array("i", f.sizes.tobytes())
    sets = array("i", am.sets.tobytes())
    left = array("i", bounds.left[am.sets].tobytes())
    cursor = array("i", am.start[:-1].tobytes())
    end = array("i", am.start[1:].tobytes())
    front = np.full(f.n, f.n, dtype=np.int32)  # left bound at the cursor
    np.minimum.at(front, bounds.right, bounds.left)  # n past the last set
    front = array("i", front.tobytes())
    maxes = array("i", [-1]) * f.m
    splits = pf.splits
    for i in range(0, len(splits), 4):
        y = order[splits[i]]
        size = sizes[y]
        boundary = splits[i + 2]
        for q in range(boundary + 1, splits[i + 3] + 1):
            if front[q] <= boundary:
                c = cursor[q]
                stop = end[q]
                while c < stop and left[c] <= boundary:
                    x = sets[c]
                    if sizes[x] <= size:
                        maxes[x] = y
                    c += 1
                cursor[q] = c
                front[q] = left[c] if c < stop else f.n
    return MaxAssignment(np.frombuffer(maxes, dtype=np.int32))
