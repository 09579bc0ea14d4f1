"""A linear-size true subgraph of the overlap graph, plus a spanning forest.

Unlike the Dahlhaus graph, every edge emitted here joins two sets that
genuinely overlap, while the components still equal those of the full
overlap graph. Base edges pair each set with its Max; the remaining
candidates are carried as quintuples and resolved by two boundary
membership tests into a guaranteed overlap edge.

Quintuples and edge endpoints are kept as flat parallel numpy arrays.
"""

from functools import cached_property

import numpy as np

from .dgraph import ComponentLabeling, dedup_sorted_pairs, spanning_edges
from .family import segments
from .maxcomp import window_levels

__all__ = [
    "OverlapSubgraph",
    "SpanningForest",
    "build_overlap_subgraph",
    "spanning_forest",
]


def _pairs(a, b):
    return list(zip(a.tolist(), b.tolist()))


class OverlapSubgraph:
    """Deduplicated, sorted edges (i, j) with i < j, as endpoint arrays a, b.

    edges gives the same pairs as a list of tuples, built on first access.
    """

    __slots__ = ("m", "a", "b", "_edges")

    def __init__(self, m, a, b):
        self.m = m
        self.a = a
        self.b = b
        self._edges = None

    @property
    def edges(self):
        if self._edges is None:
            self._edges = _pairs(self.a, self.b)
        return self._edges


class SpanningForest(ComponentLabeling):
    """The overlap classes as a labeling, plus one spanning tree per class.

    Class k's tree edges are (a[j], b[j]) for j in edge_start[k] ..
    edge_start[k + 1] - 1, in the subgraph's sorted order. As lists:
    roots[k] is the smallest set of class k, members[k] (the same list as
    classes[k]) its sets and tree_edges[k] its |class| - 1 edges; these
    are built on first access.
    """

    def __init__(self, root, a, b):
        super().__init__(root)
        tree = self.class_id[a]
        by_class = np.argsort(tree, kind="stable")
        self.a = a[by_class]
        self.b = b[by_class]
        self.edge_start = np.zeros_like(self.start)
        np.cumsum(np.bincount(tree, minlength=len(self.start) - 1),
                  out=self.edge_start[1:])

    @property
    def roots(self):
        return self.order[self.start[:-1]].tolist()

    @property
    def members(self):
        return self.classes

    @cached_property
    def tree_edges(self):
        return segments(_pairs(self.a, self.b), self.edge_start)


def _nearest_cover(reach, need, starts):
    """Per query j, the largest i in [starts[j], j) with reach[i] >= need[j].

    Returns -1 where there is none. Binary lifting over a table of window
    maxima: level k holds the maximum of reach over the 2**k entries
    ending at each index, and every query walks left over whole windows
    that cannot cover it, largest window first.
    """
    q = np.arange(len(need), dtype=np.int32)
    levels = list(window_levels(reach, int((q - starts).max(initial=0)),
                                np.maximum))
    cur = q - 1
    for k in range(len(levels) - 1, -1, -1):
        jump = levels[k][np.maximum(cur, 0)] < need
        np.subtract(cur, 1 << k, out=cur, where=jump)
    found = (cur >= starts) & (reach[np.maximum(cur, 0)] >= need)
    return np.where(found, cur, -1)


def _collect(f, sl, maxes):
    """Base edge endpoints (with duplicates) and quintuples, all as
    parallel arrays.

    Scanning an SL list in increasing size order, a set X with a defined
    Max opens an interval covering the following entries Z while
    |Z| <= |Max(X)|. A covered Z (other than X and Max(X) themselves)
    yields one quintuple against the rightmost interval still covering
    it, i.e. the nearest earlier entry of its list whose Max is at least
    as large as Z.
    """
    mx = maxes.partners
    has = np.flatnonzero(mx >= 0).astype(np.int32)
    ea = np.minimum(has, mx[has])
    eb = np.maximum(has, mx[has])
    if not len(has):  # no set has a Max, so no interval covers anything
        return ea, eb, has, has

    sizes = f.sizes
    reach = np.where(mx >= 0, sizes[mx], 0).astype(
        np.min_scalar_type(sizes.max()))
    flat = sl.flat
    starts = np.repeat(sl.offsets[:-1].astype(np.int32), np.diff(sl.offsets))
    cover = _nearest_cover(reach[flat], sizes[flat], starts)
    hit = np.flatnonzero(cover >= 0)
    qx = flat[cover[hit]]
    qy = flat[hit]
    keep = (qy != qx) & (qy != mx[qx])
    return ea, eb, qx[keep], qy[keep]


def _holds(pf, sl, bounds, pos, y):
    """Per query i, whether set y[i] holds the element at position pos[i].

    A set's elements lie between its own bounds and include the two at
    them, so only a position strictly inside needs a lookup.
    """
    ly = bounds.left[y]
    ry = bounds.right[y]
    hit = (pos == ly) | (pos == ry)
    inside = (ly < pos) & (pos < ry)
    hit[inside] = sl.contains(pf.elem_at[pos[inside]], y[inside])
    return hit


def _resolve(pf, sl, bounds, left, right, mx, qx, qy):
    """Turn each quintuple (left, right, x, y, mx) into an overlap edge.

    If Y misses the element at position left, or misses the element at
    position right, Y overlaps X; otherwise Y overlaps Max(X). Both
    phases are one batched membership test each. Returns the edge
    endpoints, smaller first, with duplicates.
    """
    both = _holds(pf, sl, bounds, left, qy)
    both[both] = _holds(pf, sl, bounds, right[both], qy[both])
    a = np.where(both, mx, qx)
    return np.minimum(a, qy), np.maximum(a, qy)


def build_overlap_subgraph(f, sl, maxes, bounds, pf):
    ea, eb, qx, qy = _collect(f, sl, maxes)
    if len(qx) > f.total_size:
        raise AssertionError(
            "created %d quintuples for |F| = %d" % (len(qx), f.total_size))
    ra, rb = _resolve(pf, sl, bounds, bounds.left[qx], bounds.right[qx],
                      maxes.partners[qx], qx, qy)
    a, b = dedup_sorted_pairs(np.concatenate((ea, ra)),
                              np.concatenate((eb, rb)), f.m)
    if len(a) > f.m + f.total_size:
        raise AssertionError("subgraph exceeds the m + |F| edge bound")
    return OverlapSubgraph(f.m, a, b)


def spanning_forest(g, m):
    """Kruskal's forest of the subgraph, for its sorted edge order.

    An edge is a tree edge exactly when no earlier edge already joins its
    ends. The trees are ordered by root, the smallest set of each class,
    and list their edges in the subgraph's sorted order.
    """
    root, kept = spanning_edges(g.a, g.b, m)
    return SpanningForest(root, g.a[kept], g.b[kept])
