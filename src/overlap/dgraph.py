"""Dahlhaus graph construction and its connected components.

The graph links consecutive entries of the per-element SL lists whenever
an earlier entry's Max is large enough to cover the later one. It has at
most |F| edges yet the same connected components as the full overlap
graph; its components are the overlap classes. Note it is generally NOT
a subgraph of the overlap graph, so its edges mean nothing pairwise.

This module also holds the one spanning-forest routine (spanning_edges)
that the true subgraph's forest and components() share, and the one
grouping of sets into classes (ComponentLabeling), which the forest and
the oracle use too.
"""

from functools import cached_property

import numpy as np

from .family import segments

__all__ = ["UnionFind", "DahlhausGraph", "ComponentLabeling",
           "build_dgraph", "components", "dedup_sorted_pairs",
           "spanning_edges"]


def dedup_sorted_pairs(ea, eb, m):
    """Sort parallel endpoint arrays lexicographically and drop duplicates.

    Endpoints are packed into int64 keys a * m + b (well inside 63 bits
    for any family that fits in memory), sorted, and every key equal to
    its predecessor dropped. np.unique would do the same, but on integer
    input recent numpy takes a hash-based path that measured about 60
    times slower than the sort on 4M keys. Returns the pairs as two int32
    arrays.
    """
    keys = np.asarray(ea, dtype=np.int64) * m + np.asarray(eb, dtype=np.int64)
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    b = (keys % m).astype(np.int32)
    keys //= m
    return keys.astype(np.int32), b


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


class DahlhausGraph:

    __slots__ = ("m", "edges", "raw_edge_count")

    def __init__(self, m, edges, raw_edge_count):
        self.m = m
        self.edges = edges  # deduplicated, sorted pairs (i, j) with i < j
        self.raw_edge_count = raw_edge_count


class ComponentLabeling:
    """Classes of a graph over the m sets; ids dense, ordered by smallest member.

    Built from root, where root[i] is any representative of set i's
    component. class_id[i] is the class of set i; order lists the sets by
    class and, within a class, by index, class k being
    order[start[k]:start[k + 1]]. All three are int32 arrays; classes
    gives the same as lists, built on first access.
    """

    def __init__(self, root):
        root = np.asarray(root, dtype=np.int32)
        m = len(root)
        ids = np.arange(m, dtype=np.int32)
        smallest = np.full(m, m, dtype=np.int32)
        np.minimum.at(smallest, root, ids)
        smallest = smallest[root]  # per set, the smallest set of its class
        self.class_id = (np.cumsum(smallest == ids, dtype=np.int32)
                         - 1)[smallest]
        self.order = np.argsort(self.class_id, kind="stable").astype(np.int32)
        sizes = np.bincount(self.class_id)
        self.start = np.zeros(len(sizes) + 1, dtype=np.int32)
        np.cumsum(sizes, out=self.start[1:])

    @cached_property
    def classes(self):
        return segments(self.order.tolist(), self.start)

    def as_partition(self):
        """Classes as a set of frozensets, for order-insensitive comparison."""
        return {frozenset(c) for c in self.classes}


def build_dgraph(f, sl, maxes):
    """Scan every SL list once, linking under the running Max threshold.

    The scan is vectorized: concatenating all SL lists, the per-list
    running maximum of |Max| falls out of one np.maximum.accumulate once
    each list's values are lifted by list_id * BIG — a later list's
    values then dominate every earlier one, so the accumulate restarts
    at list boundaries by itself. An entry whose predecessor lies in
    another list sees a negative threshold and never links.
    """
    m = f.m
    flat = sl.flat
    if len(flat) < 2:
        return DahlhausGraph(m, [], 0)
    sizes = f.sizes.astype(np.int64)
    mx = maxes.partners
    mx_size = np.where(mx >= 0, sizes[mx], 0)
    seg = np.repeat(np.arange(f.n, dtype=np.int64), np.diff(sl.offsets))
    big = f.n + 1
    running = np.maximum.accumulate(mx_size[flat] + seg * big)
    threshold = running[:-1] - seg[1:] * big
    cur = flat[1:]
    prev = flat[:-1]
    mask = sizes[cur] <= threshold
    a = prev[mask]
    b = cur[mask]
    raw = len(a)
    if raw > f.total_size:
        raise AssertionError(
            "created %d edges for |F| = %d" % (raw, f.total_size))
    a, b = dedup_sorted_pairs(np.minimum(a, b), np.maximum(a, b), m)
    return DahlhausGraph(m, list(zip(a.tolist(), b.tolist())), raw)


def components(g, m):
    a, b = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    return ComponentLabeling(spanning_edges(a, b, m)[0])
