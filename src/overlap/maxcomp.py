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
arrays", STOC 1972): each round names the aligned blocks of twice the
length with one sort_order call (family.py), so ceil(log2 d) rounds, d
the largest column, sort about |F| keys in all. The split between two
adjacent columns is their first difference, found by walking down the
rounds.
"""

import numpy as np

from .family import sort_order

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


def _sort_groups(key):
    """The order that sorts key (sort_order's), and per sorted entry
    whether it differs from the entry before it (True for the first)."""
    order, key = sort_order(key)
    return order, np.concatenate(([True], key[1:] != key[:-1]))


def _block(start, names, i, q):
    """Name of block q of each round's column i, 0 past the column's end."""
    j = start[i] + q
    return np.where(j < start[i + 1], names[np.minimum(j, len(names) - 1)], 0)


def _name_rounds(names, length):
    """Names of the aligned blocks of the columns, one round per doubling.

    names holds the columns end to end, column c having length[c]
    positive entries. In round 0 a block is one entry and its name the
    entry. Round k takes the columns that had two blocks or more in
    round k - 1, and names each of their blocks of 2**k entries by the
    dense rank, from 1, of the pair of its halves' names, a lone last
    half pairing with 0. So two blocks of a round get one name exactly
    when their entries are equal, and names order blocks like their
    entries padded with 0s. Returns per round (cols, start, names): the
    round's columns in ascending order, and their blocks' offsets into
    the names.
    """
    cols = np.arange(len(length))
    start = np.concatenate(([0], np.cumsum(length)))
    rounds = [(cols, start, names)]
    while True:
        count = np.diff(start)
        go = count >= 2
        if not go.any():
            return rounds
        cols, count = cols[go], count[go]
        half = (count + 1) // 2
        nstart = np.concatenate(([0], np.cumsum(half)))
        left = 2 * np.arange(nstart[-1]) - np.repeat(
            2 * nstart[:-1] - start[:-1][go], half)
        right = names[np.minimum(left + 1, len(names) - 1)]
        right[nstart[1:][count % 2 == 1] - 1] = 0
        order, new = _sort_groups(names[left].astype(np.int64)
                                  * (int(names.max()) + 1) + right)
        start = nstart
        names = np.empty(len(order), dtype=np.int32)
        names[order] = np.cumsum(new)
        rounds.append((cols, start, names))


def _column_order(rounds):
    """The columns in lexicographic order, and per position whether its
    column differs from the one before.

    Round k orders its columns by the name of their first block. Among
    columns that tie there, a column absent from round k + 1 fits in that
    block, so it equals the others that stop and is a proper prefix of
    those that go on: it comes first, and the rest keep their order of
    round k + 1.
    """
    at = np.empty(len(rounds[0][0]), dtype=np.int64)  # column -> index
    rank = None
    for cols, start, names in reversed(rounds):
        key = _block(start, names, np.arange(len(cols)), 0).astype(np.int64)
        if rank is not None:
            at[cols] = np.arange(len(cols))
            tie = np.zeros(len(cols), dtype=np.int64)
            tie[at[above]] = rank + 1
            key = key * (len(above) + 1) + tie
        order, new = _sort_groups(key)
        rank = np.empty(len(cols), dtype=np.int64)
        rank[order] = np.cumsum(new) - 1
        above = cols
    return order, new


def _common_prefix(rounds, a, b):
    """Per pair, the length of the longest common prefix of columns a and b.

    The walk goes down the rounds from the last one that holds both
    columns, round ceil(log2 length) of the shorter one, where its first
    block covers it. With the prefix known to 2**(k + 1) entries, round k
    compares the next block of 2**k entries in both and adds 2**k if it
    is equal.
    """
    length = np.diff(rounds[0][1])
    last = np.where(length > 0, np.frexp(length - 1)[1], -1)
    deep = np.minimum(last[a], last[b])
    by, deep = sort_order(deep)
    a, b = a[by], b[by]
    lcp = np.zeros(len(a), dtype=np.int64)
    at = np.empty(len(length), dtype=np.int64)  # column -> index
    for k in range(len(rounds) - 1, -1, -1):
        cols, start, names = rounds[k]
        at[cols] = np.arange(len(cols))
        w = np.searchsorted(deep, k)
        q = lcp[w:] >> k
        same = (_block(start, names, at[a[w:]], q)
                == _block(start, names, at[b[w:]], q))
        lcp[w:] += same << k
    lcp[by] = lcp.copy()
    return lcp


def compute_pf(f, lf, sl):
    """Pass 1: the final order of the refinement by every set in LF order.

    Refining by a set moves its members after the other elements of each
    part, so the final order sorts the element columns, each the
    ascending list of the LF ranks of the sets holding the element: at
    the first rank where two columns differ, the column holding it comes
    later, and a proper prefix comes first. Written as entries m - rank,
    that is the plain lexicographic order; reading sl.flat backwards
    gives every column end to end. Two adjacent columns are split by the
    entry of the later one at their longest common prefix, which is the
    row of the boundary between them; equal columns (twins) share a part,
    in any order.
    """
    n, m = f.n, f.m
    # sl.flat backwards holds the column of element e at place n - 1 - e
    rounds = _name_rounds(m - lf.rank[sl.flat[::-1]],
                          np.diff(sl.offsets)[::-1])
    order, new = _column_order(rounds)
    cut = np.flatnonzero(new[1:]) + 1
    later = order[cut]
    lcp = _common_prefix(rounds, order[cut - 1], later)
    _, start, names = rounds[0]
    row = np.full(n, m, dtype=np.int32)
    row[cut] = m - names[start[later] + lcp]
    return PfOrder(n - 1 - order, row)


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
    y = lf.order[np.minimum(first, f.m - 1)]
    found = (first < f.m) & (f.sizes[y] >= f.sizes)
    return MaxAssignment(np.where(found, y, -1))
