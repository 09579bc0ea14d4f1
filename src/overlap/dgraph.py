"""Graphs over the sets: the SL-list cover, the helper graph and the forest.

Scanning an SL list (the sets holding one element, by increasing size),
a set X with a Max opens an interval that covers the following entries Z
while |Z| <= |Max(X)|. covers() returns every covered entry paired with
the nearest earlier entry of its list whose interval covers it; when no
set has a Max nothing is covered and both are empty. Most entries are
covered by the entry just before them, and one shifted comparison over
all of sl.flat settles those; only the entries it leaves walk a table of
window maxima back from two entries before. Both graphs are built from
those pairs. The helper (Dahlhaus) graph links each covered entry to the
entry just before it in its list. It has at most |F| edges yet the same
connected components as the full overlap graph, so
spanning_forest(res.dgraph) gives the overlap classes. It is generally
NOT a subgraph of the overlap graph, so its edges mean nothing pairwise.
The true subgraph (subgraph.py) turns each cover into an overlap edge.

Both graphs are SetGraphs. This module also holds the one
spanning-forest routine (spanning_edges, spanning_forest) and the
pipeline's one grouping of sets into classes, SpanningForest, which
names and orders the classes with one family.sort_groups of each set's
smallest class member and orders the tree edges by class. The
oracle groups its classes on its own and shares only UnionFind, which
the pipeline does not run.
"""

from functools import cached_property

import numpy as np

from .family import segments, sort_groups, sort_order
from .maxcomp import window_levels

__all__ = ["UnionFind", "SetGraph", "SpanningForest", "build_dgraph", "covers",
           "spanning_edges", "spanning_forest"]


def _pairs(a, b):
    return list(zip(a.tolist(), b.tolist()))


class UnionFind:
    """Array-based union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the two classes; False when already joined."""
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def spanning_edges(ea, eb, m):
    """Kruskal's spanning forest for the edge order, grown in Boruvka rounds.

    Edge k weighs k. The weights differ, so the minimum spanning forest
    is unique: it is the forest a union-find sweep over the edges in
    order keeps. In each round every component picks its lightest
    outgoing edge, all picks join the forest, and each component hooks
    onto the one across its pick. Two components that picked the same
    edge point at each other; the smaller id becomes the root. Pointer
    jumping then flattens the hooks. Each round at least halves the
    number of components that still have an outgoing edge.

    Returns (root, kept): root[i] is a representative of set i's
    component, kept a bool mask selecting the forest's edges. Set and
    edge ids are int32, half the memory traffic of int64.
    """
    ids = np.arange(m, dtype=np.int32)
    root = ids.copy()
    kept = np.zeros(len(ea), dtype=bool)
    none = len(ea)
    edge = np.arange(none, dtype=np.int32)
    ea = ca = np.asarray(ea, dtype=np.int32)
    eb = cb = np.asarray(eb, dtype=np.int32)
    while True:
        cross = ca != cb
        edge, ca, cb = edge[cross], ca[cross], cb[cross]
        if not len(edge):
            return root, kept
        pick = np.full(m, none, dtype=np.int32)
        np.minimum.at(pick, ca, edge)
        np.minimum.at(pick, cb, edge)
        comp = np.flatnonzero(pick < none)
        chosen = pick[comp]
        kept[chosen] = True
        x = root[ea[chosen]]
        y = root[eb[chosen]]
        hook = ids.copy()
        hook[comp] = np.where(x == comp, y, x)
        mutual = (hook[hook] == ids) & (hook > ids)
        hook[mutual] = ids[mutual]
        while True:
            up = hook[hook]
            if np.array_equal(up, hook):
                break
            hook = up
        root = hook[root]
        ca = hook[ca]
        cb = hook[cb]


class SetGraph:
    """A graph over m sets: deduplicated, sorted edges (i, j) with i < j.

    Built from the raw endpoint arrays ea and eb, integer arrays whose
    pairs (ea[k], eb[k]) may have either end first and may repeat. Each
    pair becomes the int64 key min << bits | max, bits being the bit
    length of m - 1; the keys are sorted, every key equal to its
    predecessor is dropped, and a mask and a shift read the ends back.
    np.unique would do the same, but on integer input recent numpy takes
    a hash-based path that measured about 60 times slower than the sort
    on 4M keys.

    a and b are the int32 endpoint arrays and raw_edge_count = len(ea),
    the number of pairs before deduplication. edges gives the same
    pairs as a list of tuples, built on first access.
    """

    def __init__(self, m, ea, eb):
        self.m = m
        self.raw_edge_count = len(ea)
        bits = (m - 1).bit_length()
        keys = np.minimum(ea, eb, dtype=np.int64)
        keys <<= bits
        keys |= np.maximum(ea, eb)
        keys.sort()
        keep = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        # the low 32 bits hold all of max, as bits <= 31
        self.b = keys.astype(np.int32)
        self.b &= (1 << bits) - 1
        keys >>= bits
        self.a = keys.astype(np.int32)

    @cached_property
    def edges(self):
        return _pairs(self.a, self.b)


class SpanningForest:
    """The classes of a graph over the m sets, with one spanning tree each.

    Built from root, where root[i] is any representative of set i's
    component, and the tree edges a, b. Class ids are dense and ordered
    by smallest member. class_id[i] is the class of set i; order lists
    the sets by class and, within a class, by index, class k being
    order[start[k]:start[k + 1]]. Class k's tree edges are (a[j], b[j])
    for j in edge_start[k] .. edge_start[k + 1] - 1, in the graph's
    sorted order. All are int32 arrays. As lists: classes[k] (also
    members[k]) holds the sets of class k, roots[k] its smallest set and
    tree_edges[k] its |class| - 1 edges; classes and tree_edges are built
    on first access.
    """

    def __init__(self, root, a, b):
        m = len(root)
        smallest = np.full(m, m, dtype=np.int32)
        np.minimum.at(smallest, root, np.arange(m, dtype=np.int32))
        # the sets grouped by the smallest set of their class; the sort is
        # stable, so each class lists its sets by index
        order, _, new, self.class_id = sort_groups(smallest[root])
        self.order = order.astype(np.int32)
        self.start = np.flatnonzero(np.append(new, True)).astype(np.int32)
        tree = self.class_id[a]
        by_class = sort_order(tree)[0]
        self.a = a[by_class]
        self.b = b[by_class]
        self.edge_start = np.zeros_like(self.start)
        np.cumsum(np.bincount(tree, minlength=len(self.start) - 1),
                  out=self.edge_start[1:])

    @cached_property
    def classes(self):
        return segments(self.order.tolist(), self.start)

    def as_partition(self):
        """Classes as a set of frozensets, for order-insensitive comparison."""
        return {frozenset(c) for c in self.classes}

    @property
    def roots(self):
        return self.order[self.start[:-1]].tolist()

    @property
    def members(self):
        return self.classes

    @cached_property
    def tree_edges(self):
        return segments(_pairs(self.a, self.b), self.edge_start)


def spanning_forest(g):
    """Kruskal's forest of the SetGraph g, for its sorted edge order.

    An edge is a tree edge exactly when no earlier edge already joins its
    ends. The trees are ordered by root, the smallest set of each class,
    and list their edges in the graph's sorted order.
    """
    root, kept = spanning_edges(g.a, g.b, g.m)
    return SpanningForest(root, g.a[kept], g.b[kept])


def _nearest_cover(reach, need, q, span):
    """Per entry j of q, the largest i <= j - 2 with reach[i] >= need[j]
    when one lies at j - 1 - span or after; otherwise an index below
    that, -1 when the walk ends on an entry that does not reach.

    Binary lifting over a table of window maxima: level k holds the
    maximum of reach over the 2**k entries ending at each index, and every
    query walks left over whole windows that cannot cover it, largest
    window first.
    """
    need = need[q]
    cur = q - 2
    levels = list(window_levels(reach, span, np.maximum))
    for k in range(len(levels) - 1, -1, -1):
        jump = levels[k][np.maximum(cur, 0)] < need
        np.subtract(cur, 1 << k, out=cur, where=jump)
    return np.where(reach[np.maximum(cur, 0)] >= need, cur, -1)


def covers(f, sl, maxes):
    """Every covered entry of sl.flat and the entry that covers it.

    Returns two index arrays into sl.flat, covered and by: by[k] is the
    nearest earlier entry of covered[k]'s SL list whose Max is at least
    as large as covered[k]'s set. Most covers are by the entry just
    before, and one shifted comparison settles those. Only the entries
    it leaves from the third of each list on walk the window table, from
    two entries back; the first two entries of a list have nothing
    further back in it. Only a set with a Max covers, so when no set has
    one both arrays are empty and no window table is built.
    """
    mx = maxes.partners
    if not (mx >= 0).any():
        return np.zeros(0, np.int32), np.zeros(0, np.int32)
    sizes = f.sizes
    small = np.min_scalar_type(sizes.max())
    flat = sl.flat
    reach = np.where(mx >= 0, sizes[mx], 0).astype(small)[flat]
    need = sizes.astype(small)[flat]
    heads = sl.offsets[:-1]
    # near and walk hold entry j at j - 1. near: entry j - 1 covers
    # entry j, which does not start a list
    near = reach[:-1] >= need[1:]
    at_heads = heads[(heads > 0) & (heads < len(flat))] - 1
    near[at_heads] = False
    # walk: the entries near leaves, from the third of each list on
    walk = ~near
    walk[at_heads] = False
    walk[heads[heads < len(near)]] = False
    q = by = np.flatnonzero(walk) + 1
    del walk  # freeing |F|-sized temporaries early lowers the peak RSS
    if len(q):
        by = _nearest_cover(reach, need, q,
                            int(np.diff(sl.offsets).max()) - 2)
        # a walk that found nothing returns a negative index, below the
        # head of every list, so this one filter drops it too
        hit = by >= sl.offsets[np.searchsorted(sl.offsets, q, "right") - 1]
        q, by = q[hit], by[hit]
        near[q - 1] = True
    del reach, need
    covered = np.flatnonzero(near) + 1
    nearest = (covered - 1).astype(np.int32)
    nearest[np.searchsorted(covered, q)] = by
    return covered, nearest


def build_dgraph(f, sl, maxes):
    """The helper graph: each covered SL entry linked to the one before it."""
    j, _ = covers(f, sl, maxes)
    if len(j) > f.total_size:
        raise AssertionError(
            "created %d edges for |F| = %d" % (len(j), f.total_size))
    return SetGraph(f.m, sl.flat[j - 1], sl.flat[j])
