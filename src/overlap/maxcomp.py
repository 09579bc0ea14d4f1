"""Computation of Max over a set family, in three passes.

Max of a set X is the earliest set Y in LF order that overlaps X and has
size >= |X| (None when no such Y exists). The passes are:

1. order the universe as refining it by every set in LF order would:
   that order sorts the columns of the membership matrix
   lexicographically, and each boundary of it records the LF rank of
   the set whose split opened it;
2. read off, per set, the leftmost/rightmost position of its elements in
   that order;
3. find, per set, the earliest refiner that separates its elements: the
   minimum, over the set's window of the final order, of the LF rank
   that put each boundary there. That refiner is the set's Max if it is
   at least as large; otherwise the set has no Max.

A part of the refinement keeps its interval of the order for good: later
splits stay inside the parts it splits into. So every boundary lies
between the same two positions of the final order, and the refinement
need not be run. Pass 1 sorts the columns, each the list of LF ranks of
the sets holding an element, by the naming of Karp, Miller and Rosenberg
("Rapid identification of repeated patterns in strings, trees and
arrays", STOC 1972): round k names the aligned blocks of 2**k entries
with one sort_groups call (family.py). As in the prefix doubling of
suffix arrays (Manber and Myers, SIAM J. Comput. 1993), each column
carries a rank that every round refines by its first block's name, and
a column leaves the rounds once its rank is final, so the rounds name
O(|F| + n) blocks in all. The split between two adjacent columns is
their first difference, found by walking their blocks down the rounds
from the one that split them.
"""

import numpy as np

from .family import sort_groups, sort_order

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


def _name_round(names, first, length, k):
    """Round k of the naming of aligned blocks, made from round k - 1.

    A round holds some of the columns end to end, each as its blocks
    and then a 0, a block that is no part of it, if it has an odd count
    of them or is the last column: so every block has a right half in
    the round before, the 0 for a lone last half, and the round ends
    with a 0. In round 0 a block is one entry and its name the entry,
    and every column ends with a 0. Round k takes the columns that
    start at first in round k - 1, of length entries each, and names
    each of their blocks of 2**k entries by the dense rank, from 1, of
    the pair of its halves' names. So two blocks of a round get one name
    exactly when their entries are equal, and names order blocks like
    their entries padded with 0s. Returns where each column starts, the
    names, and per block the index of its left half in round k - 1, -1
    for a 0; its right half is the next index.
    """
    count = ((length - 1) >> k) + 1
    size = count + (count & 1)
    size[-1] = count[-1] + 1
    start = np.cumsum(size) - size
    left = 2 * np.arange(size.sum()) - np.repeat(2 * start - first, size)
    left[(start + count)[count < size]] = -1
    # a 0's key, 0 * (max + 1) + names[0], is below every block's
    key = names[left] * np.int64(int(names.max()) + 1)
    key += names[left + 1]
    return start, sort_groups(key)[3], left


def _rank_round(rank, cols, name, keep):
    """One round of the ranks: cols are the round's columns, which hold
    every column of each of their groups, name holds the names of their
    first blocks, and keep marks those long enough for the next round.

    A column's new rank is its old one plus the number of columns of its
    group with a smaller name. In the list of cols sorted by name, that
    is where its new group starts less where its old group starts; and
    the old rank less where the old group starts is the running maximum
    of old rank - place, since a group takes as many places of the list
    as ranks. Narrows keep to the columns that share their new group,
    and returns per split the later group's rank and the two columns
    around the split.
    """
    order, _, new, _ = sort_groups(name)
    at = cols[order]
    was = rank[at]
    i = np.arange(len(at))
    rank[at] = (np.maximum.accumulate(np.where(new, i, 0))
                + np.maximum.accumulate(was - i))
    keep[order] &= ~(new & np.append(new[1:], True))
    cut = np.flatnonzero(new[1:] & (was[1:] == was[:-1])) + 1
    return rank[at[cut]], order[np.stack((cut - 1, cut))]


def compute_pf(f, sl):
    """Pass 1: the final order of the refinement by every set in LF order.

    Refining by a set moves its members after the other elements of each
    part, so the final order sorts the element columns, each the
    ascending list of the LF ranks of the sets holding the element: at
    the first rank where two columns differ, the column holding it comes
    later, and a proper prefix comes first. Written as entries m - rank,
    that is the plain lexicographic order; reading sl.flat backwards
    gives every column end to end.

    As in the prefix doubling of suffix arrays (Manber and Myers, SIAM
    J. Comput. 1993), each column keeps a rank: after round k, the
    number of columns whose first 2**k entries, padded with 0s, sort
    before its own. A group is the columns of one rank. Round k ranks
    its columns by the name of their first block, which splits the
    groups of round k - 1 it holds. Round k + 1 takes the columns that
    share their group and have 2**k entries or more. A column alone in
    its group is placed. A shorter column in a shared group has its end
    among those 2**k entries, so the whole group is equal columns
    (twins), which share a part; a group that can still split has no
    such column, so a round holds every column of its groups. The
    rounds stop when no column is left, and the columns in order of
    rank, twins by index, are the order. A column of L entries is named
    in at most log2 L + 1 rounds after round 0, in ceil(L / 2**k) blocks
    and at most one 0 in round k, so those rounds hold at most
    3 |F| + 2 n slots in all, beside round 0's |F| + n.

    A split in round k opens a boundary at the later group's rank,
    between two columns whose first blocks differ in round k and whose
    first halves, for k >= 1, are equal. Its row is the entry of the
    later column where the two first differ: a walk takes both blocks
    down to round 0, each round into their left halves if those differ
    and their right halves if not. A boundary of round k takes k steps,
    and its later column, which has more than 2**(k - 1) entries, opens
    at most one boundary a round, so the walk takes O((log2 L)**2)
    steps for a column of L entries.
    """
    n, m = f.n, f.m
    # sl.flat backwards holds the column of element e at place n - 1 - e
    length = np.diff(sl.offsets)[::-1]
    names = np.insert(m - f.lf.rank[sl.flat[::-1]], np.cumsum(length), 0)
    first = np.cumsum(length + 1) - length - 1
    cols, rank = np.arange(n), np.zeros(n, dtype=np.int64)
    left, rounds = None, []
    while True:
        keep = length >= 1 << len(rounds)
        pos, pair = _rank_round(rank, cols, names[first], keep)
        rounds.append((left, names, pos, first[pair]))
        if not keep.any():
            break
        cols, length = cols[keep], length[keep]
        first, names, left = _name_round(names, first[keep], length,
                                         len(rounds))
    up, names, pos, ab = rounds.pop()
    for left, names, p, pair in reversed(rounds):
        ab = up[ab]  # the left halves, in this round, of the pairs above
        ab += names[ab[0]] == names[ab[1]]
        pos, up = np.concatenate((pos, p)), left
        ab = np.concatenate((ab, pair), axis=1)
    row = np.full(n, m, dtype=np.int32)
    row[pos] = m - names[ab[1]]
    return PfOrder(n - 1 - sort_order(rank)[0], row)


def compute_bounds(f, pf):
    """Pass 2: min/max position of each set's elements in the final order."""
    vals = pf.pos_f[f.elems]
    starts = f.offsets[:-1]
    return Bounds(np.minimum.reduceat(vals, starts),
                  np.maximum.reduceat(vals, starts))


def compute_max(f, pf, bounds):
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
    window w.
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
    y = f.lf.order[np.minimum(first, f.m - 1)]
    found = (first < f.m) & (f.sizes[y] >= f.sizes)
    return MaxAssignment(np.where(found, y, -1))
