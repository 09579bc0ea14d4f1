"""Computation of Max over a set family, in three passes.

Max of a set X is the earliest set Y in LF order that overlaps X and has
size >= |X| (None when no such Y exists). The passes are:

1. refine the trivial partition of the universe by every set in LF order;
   the final element order sorts the conceptual membership-matrix columns
   lexicographically (that matrix is never materialized);
2. read off, per set, the leftmost/rightmost position of its elements in
   that order;
3. find, per set, the earliest refiner that separates its elements: the
   minimum, over the set's window of the final order, of the LF rank
   that put each boundary there. That refiner is the set's Max if it is
   at least as large; otherwise the set has no Max.

A part keeps its interval of the table for good: later swaps stay inside
the parts it splits into. So every boundary of pass 1 lies between the
same two positions of the final order, and pass 1 records, per position,
the rank of the split that opened the boundary before it.
"""

import numpy as np

from .partition import OrderedPartition

__all__ = [
    "PfOrder",
    "Bounds",
    "MaxAssignment",
    "compute_pf",
    "compute_bounds",
    "compute_max",
    "window_levels",
]


class PfOrder:
    """Final element order after pass 1. elem_at and pos_f are inverse.

    row[j] is the LF rank of the set whose split put a boundary between
    positions j - 1 and j, or m where no split did (int32, n entries).
    """

    __slots__ = ("elem_at", "pos_f", "row")

    def __init__(self, elem_at, row):
        self.row = row
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


def window_levels(values, span, op):
    """Tables of window extrema of values, one per level, smallest first.

    Level k holds op (np.minimum or np.maximum) over the 2**k entries
    ending at each index, or over all entries up to an index below
    2**k - 1. Levels are made while 2**k <= span, which is enough for
    windows of up to span entries: one such window is two overlapping
    windows of a single level, and a walk over whole windows of each
    level, largest first, can step back 2 * 2**k - 1 > span - 1 entries.
    Each level is yielded as soon as it is built.
    """
    level = values
    width = 1
    yield level
    while 2 * width <= span:
        upper = level.copy()
        op(level[width:], level[:-width], out=upper[width:])
        level = upper
        width *= 2
        yield level


def compute_pf(f, lf):
    """Pass 1: refine the full-universe partition by every set in LF order,
    recording at each new boundary the LF rank of the refining set."""
    p = OrderedPartition(f.n)
    splits = np.frombuffer(p.refine_all(lf.sets()), dtype=np.int32)
    row = np.full(f.n, f.m, dtype=np.int32)
    row[splits[2::4] + 1] = splits[::4]
    return PfOrder(p.table, row)


def compute_bounds(f, pf):
    """Pass 2: min/max position of each set's elements in the final order."""
    vals = pf.pos_f[f.elems]
    starts = f.offsets[:-1]
    return Bounds(np.minimum.reduceat(vals, starts),
                  np.maximum.reduceat(vals, starts))


def compute_max(f, lf, pf, bounds):
    """Pass 3: the earliest refiner that separates each set's elements.

    Set X's elements lie at positions left(X) to right(X) of the final
    order, ends included. A boundary that a split opened between two of
    those positions separated X's two end elements, or lies after an
    earlier boundary between them that did. So the earliest refiner that
    separates X's elements has rank min row[left(X) + 1 .. right(X)],
    and a single position, an empty window, is never separated. A window
    of w entries is the minimum of two windows of 2**k entries from one
    level, with 2**k <= w < 2**(k + 1), and each level answers its sets
    as soon as it is built. The refiner is X's Max if it is at least as
    large as X; otherwise X is dropped by size, since later refiners are
    no larger. The pass is O((n + m) log w) numpy work for the longest
    window w, against pass 1's Python loop over |F|.
    """
    left = bounds.left
    right = bounds.right
    width = right - left
    level_of = np.frexp(width)[1] - 1  # -1 for an empty window
    first = np.full(f.m, f.m, dtype=np.int32)  # m: nothing separates X
    for k, level in enumerate(window_levels(pf.row, int(width.max()),
                                            np.minimum)):
        q = np.flatnonzero(level_of == k)
        first[q] = np.minimum(level[right[q]], level[left[q] + (1 << k)])
    y = lf.order[np.minimum(first, f.m - 1)]
    found = (first < f.m) & (f.sizes[y] >= f.sizes)
    return MaxAssignment(np.where(found, y, -1))
