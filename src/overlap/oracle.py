"""Quadratic brute-force references for differential testing.

Shipped with the library (not test-only) so the CLI verify command can
run them. A configurable cap on m keeps accidental quadratic blowups
loud instead of slow.

A checker should share no code with what it checks, so the oracle
groups its classes itself (OracleLabeling, over its own union-find
roots) and takes from the package only UnionFind, which the pipeline
does not run, and MaxAssignment, the plain container both sides return.
"""

import os

from .dgraph import UnionFind
from .maxcomp import MaxAssignment

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "OracleCapExceeded",
    "oracle_cap",
    "overlaps",
    "OverlapGraphFull",
    "overlap_graph_full",
    "max_oracle",
]

DEFAULT_ORACLE_CAP = 5000


class OracleCapExceeded(RuntimeError):
    pass


def oracle_cap():
    """Active m-cap; the OVERLAP_ORACLE_CAP env var overrides the default."""
    raw = os.environ.get("OVERLAP_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError("OVERLAP_ORACLE_CAP must be an integer, got %r"
                         % raw) from None


def overlaps(a, b):
    """True iff the two element sets intersect without either containing the other."""
    sa = a if isinstance(a, (set, frozenset)) else set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    return not (sa.isdisjoint(sb) or sa <= sb or sb <= sa)


class OracleLabeling:
    """The classes of root, where root[i] is a representative of set i's
    class: each a sorted list of sets, ordered by smallest member."""

    def __init__(self, root):
        groups = {}
        for i, r in enumerate(root):
            groups.setdefault(r, []).append(i)
        self.classes = list(groups.values())

    def as_partition(self):
        """Classes as a set of frozensets, for order-insensitive comparison."""
        return {frozenset(c) for c in self.classes}


class OverlapGraphFull:
    """The classes of the overlap graph, as an OracleLabeling."""

    __slots__ = ("labeling",)

    def __init__(self, labeling):
        self.labeling = labeling


def overlap_graph_full(f):
    """Test all m(m-1)/2 pairs and union each overlapping one; refuses
    families larger than oracle_cap()."""
    limit = oracle_cap()
    if f.m > limit:
        raise OracleCapExceeded(
            "family has m = %d sets, oracle cap is %d" % (f.m, limit))
    sets = f.as_frozensets()
    uf = UnionFind(f.m)
    for i in range(f.m):
        si = sets[i]
        for j in range(i + 1, f.m):
            if overlaps(si, sets[j]):
                uf.union(i, j)
    return OverlapGraphFull(OracleLabeling([uf.find(i) for i in range(f.m)]))


def max_oracle(f, lf):
    """The Max definition applied literally: earliest LF set of size >= |X| overlapping X."""
    sets = f.as_frozensets()
    sizes = f.sizes.tolist()
    order = [int(y) for y in lf.order]  # an LFOrder's array or any list
    partners = []
    for x in range(f.m):
        sx = sets[x]
        found = -1
        for y in order:
            if sizes[y] < sizes[x]:
                break
            if y != x and overlaps(sx, sets[y]):
                found = y
                break
        partners.append(found)
    return MaxAssignment(partners)
