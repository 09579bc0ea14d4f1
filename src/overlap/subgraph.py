"""A linear-size true subgraph of the overlap graph.

Unlike the helper (Dahlhaus) graph, every edge emitted here joins two
sets that genuinely overlap, while the components still equal those of
the full overlap graph. Base edges pair each set with its Max; each SL
entry covered by an earlier entry's interval (dgraph.covers, the scan
the helper graph reads too) is carried as a quintuple and resolved by
two boundary membership tests into a guaranteed overlap edge.

Quintuples and edge endpoints are kept as flat parallel numpy arrays.
"""

import numpy as np

from .dgraph import SetGraph, covers

__all__ = ["build_overlap_subgraph"]


def _collect(f, sl, maxes):
    """Base edge endpoints (each set with a Max and its Max, so each
    pair up to twice) and quintuples, all as parallel arrays.

    A covered SL entry Z other than Max(X) yields one quintuple against
    the entry X that covers it: the nearest earlier entry of its list
    whose Max is at least as large as Z. X lies strictly earlier in the
    same list and a set appears once per list, so Z is never X.
    """
    mx = maxes.partners
    has = np.flatnonzero(mx >= 0).astype(np.int32)
    covered, by = covers(f, sl, maxes)
    qx, qy = sl.flat[by], sl.flat[covered]
    keep = qy != mx[qx]
    return has, mx[has], qx[keep], qy[keep]


def _holds(pf, sl, ly, ry, pos, y):
    """Per query i, whether set y[i], whose elements lie between
    positions ly[i] and ry[i], holds the element at position pos[i].

    A set's elements include the two at its bounds, so only a position
    strictly inside needs a lookup.
    """
    hit = (pos == ly) | (pos == ry)
    inside = np.flatnonzero((ly < pos) & (pos < ry))
    hit[inside] = sl.contains(pf.elem_at[pos[inside]], y[inside])
    return hit


def _resolve(pf, sl, bounds, maxes, qx, qy):
    """Turn each quintuple (left(X), right(X), X, Y, Max(X)) into an
    overlap edge.

    If Y misses the element at position left(X), or misses the element
    at position right(X), Y overlaps X; otherwise Y overlaps Max(X).
    Both phases are one batched membership test each, the second only
    for the rows the first kept. Returns the edge endpoints, either end
    first, with duplicates.
    """
    ly, ry = bounds.left[qy], bounds.right[qy]
    rows = np.flatnonzero(_holds(pf, sl, ly, ry, bounds.left[qx], qy))
    ly, ry = ly[rows], ry[rows]
    rows = rows[_holds(pf, sl, ly, ry, bounds.right[qx[rows]], qy[rows])]
    a = qx.copy()
    a[rows] = maxes.partners[qx[rows]]
    return a, qy


def build_overlap_subgraph(f, sl, maxes, bounds, pf, lap):
    """The true subgraph, built in three parts; lap(name) is called after
    each: "covers" (the base edges and quintuples), "resolve" (the
    membership tests) and "dedup" (the edges' sort and deduplication)."""
    ea, eb, qx, qy = _collect(f, sl, maxes)
    if len(qx) > f.total_size:
        raise AssertionError(
            "created %d quintuples for |F| = %d" % (len(qx), f.total_size))
    lap("covers")
    ra, rb = _resolve(pf, sl, bounds, maxes, qx, qy)
    lap("resolve")
    sub = SetGraph(f.m, np.concatenate((ea, ra)), np.concatenate((eb, rb)))
    if len(sub.a) > f.m + f.total_size:
        raise AssertionError("subgraph exceeds the m + |F| edge bound")
    lap("dedup")
    return sub
