"""Set family input model and the two size orders everything else consumes.

A family is m subsets of a universe of n elements. Elements are interned
to dense indices; all algorithms downstream work on indices only and the
original tokens are kept solely for output.
"""

from array import array
from itertools import chain

import numpy as np

__all__ = [
    "FamilyFormatError",
    "SetFamily",
    "LFOrder",
    "SLLists",
    "parse_family",
    "lf_order",
    "build_sl_lists",
]


class FamilyFormatError(ValueError):
    """Malformed family input; line_no points at the offending line."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


class SetFamily:
    """A family of m non-empty subsets over an interned universe of n elements.

    tokens: original element names, indexed 0..n-1.
    sets: m lists of distinct element indices.
    total_size: sum of all set cardinalities (written |F| in the docs).
    elems, offsets: the same sets in flat (CSR) form, set i being
    elems[offsets[i]:offsets[i + 1]]; the numpy layers read these.
    """

    __slots__ = ("tokens", "sets", "sizes", "n", "m", "total_size",
                 "elems", "offsets")

    def __init__(self, tokens, sets, validate=True):
        self.tokens = list(tokens)
        self.sets = [list(s) for s in sets]
        self.n = len(self.tokens)
        self.m = len(self.sets)
        if not self.sets:
            raise ValueError("family has no sets")
        self.sizes = array("i", [len(s) for s in self.sets])
        self.total_size = sum(self.sizes)
        if validate:
            for s in self.sets:
                if not s:
                    raise ValueError("empty set in family")
                if len(set(s)) != len(s):
                    raise ValueError("duplicate element within a set")
                for e in s:
                    if not 0 <= e < self.n:
                        raise ValueError(
                            "element index %r out of range" % (e,))
        self.elems = np.fromiter(chain.from_iterable(self.sets),
                                 dtype=np.int32, count=self.total_size)
        self.offsets = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(self.sizes, dtype=np.int32),
                  out=self.offsets[1:])

    @classmethod
    def from_elements(cls, sets, extra_universe=()):
        """Build a family from iterables of arbitrary hashable labels.

        Labels are interned in first-appearance order; extra_universe
        declares elements that may appear in no set.
        """
        index = {}
        tokens = []

        def intern(label):
            i = index.get(label)
            if i is None:
                i = index[label] = len(tokens)
                tokens.append(str(label))
            return i

        interned = []
        for s in sets:
            seen = set()
            elems = []
            for label in s:
                e = intern(label)
                if e not in seen:
                    seen.add(e)
                    elems.append(e)
            interned.append(elems)
        for label in extra_universe:
            intern(label)
        return cls(tokens, interned)

    def as_frozensets(self):
        return [frozenset(s) for s in self.sets]


class LFOrder:
    """Set indices sorted by decreasing size; equal sizes stay in input order.

    rank is the inverse permutation: rank[i] is the position of set i.
    elems and offsets hold the sets' elements in this order, end to end:
    set order[r] is elems[offsets[r]:offsets[r + 1]]. The two sequential
    refinement passes walk these, so they read memory front to back.
    """

    __slots__ = ("order", "rank", "elems", "offsets")

    def __init__(self, f, order):
        order = np.asarray(order, dtype=np.int64)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.order = order.tolist()
        self.rank = rank.tolist()
        lens = np.frombuffer(f.sizes, dtype=np.int32)[order]
        ends = np.cumsum(lens)
        gather = np.arange(f.total_size) + np.repeat(
            f.offsets[:-1][order] - (ends - lens), lens)
        self.elems = array("i", f.elems[gather].tobytes())
        self.offsets = [0] + ends.tolist()

    def sets(self):
        """Each set's elements, in LF order, as array('i') slices."""
        elems = self.elems
        offsets = self.offsets
        return (elems[a:b] for a, b in zip(offsets, offsets[1:]))


class SLLists:
    """Per element v, the sets containing v in increasing size order.

    Equal sizes appear in decreasing input-index order, i.e. each list is
    a subsequence of the reversed LF order. The lists are stored end to
    end: list v is flat[offsets[v]:offsets[v + 1]]. keys holds the same
    (element, set) incidences as sorted int64 keys, which answers batched
    membership queries (see contains).
    """

    __slots__ = ("flat", "offsets", "keys", "_revrank")

    def __init__(self, flat, offsets, keys, revrank):
        self.flat = flat
        self.offsets = offsets
        self.keys = keys
        self._revrank = revrank

    @property
    def lists(self):
        flat = self.flat.tolist()
        offs = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(offs, offs[1:])]

    def __getitem__(self, v):
        return self.flat[self.offsets[v]:self.offsets[v + 1]].tolist()

    def __len__(self):
        return len(self.offsets) - 1

    def contains(self, elems, sets):
        """Per query i, whether set sets[i] contains element elems[i].

        One binary search per query into the sorted incidence keys; the
        queries are sorted first, which keeps the searches cache-friendly.
        """
        m = len(self._revrank)
        q = elems.astype(np.int64) * m + self._revrank[sets]
        perm = np.argsort(q)
        q = q[perm]
        hit = np.searchsorted(self.keys, q)
        np.minimum(hit, len(self.keys) - 1, out=hit)
        found = np.empty(len(q), dtype=bool)
        found[perm] = self.keys[hit] == q
        return found


def parse_family(source):
    """Parse the family text format into a SetFamily.

    One set per line, elements as whitespace-separated tokens. A line
    whose first non-blank character is '#' is a comment; a '#' anywhere
    else is an ordinary token. A line whose first token is exactly
    '!universe' declares the elements after it, which may appear in no
    set. Duplicate tokens within a line are dropped; an empty (or
    whitespace-only) line is rejected because it would denote an empty
    set.
    """
    text = source.read() if hasattr(source, "read") else source
    index = {}
    tokens = []

    def intern(tok):
        i = index.get(tok)
        if i is None:
            i = index[tok] = len(tokens)
            tokens.append(tok)
        return i

    sets = []
    for line_no, line in enumerate(text.splitlines(), 1):
        toks = line.split()
        if not toks:
            raise FamilyFormatError("empty set", line_no)
        if toks[0].startswith("#"):
            continue
        if toks[0] == "!universe":
            for tok in toks[1:]:
                intern(tok)
            continue
        seen = set()
        elems = []
        for t in toks:
            e = intern(t)
            if e not in seen:
                seen.add(e)
                elems.append(e)
        sets.append(elems)
    if not sets:
        raise FamilyFormatError("no sets in input")
    return SetFamily(tokens, sets)


def lf_order(f):
    """Sort the sets by decreasing size, stable on input index."""
    sizes = np.frombuffer(f.sizes, dtype=np.int32)
    return LFOrder(f, np.argsort(-sizes, kind="stable"))


def build_sl_lists(f, lf):
    """Build all SL lists with one sort of the (element, set) incidences.

    Each incidence becomes the key element * m + (m - 1 - rank of the
    set): sorted, the keys group by element and, within an element, run
    along the reversed LF order.
    """
    m = f.m
    revrank = (m - 1) - np.asarray(lf.rank, dtype=np.int64)
    owner = np.repeat(revrank, np.frombuffer(f.sizes, dtype=np.int32))
    keys = f.elems.astype(np.int64) * m + owner
    keys.sort()
    order = np.asarray(lf.order, dtype=np.int32)
    flat = order[(m - 1) - keys % m]
    offsets = np.zeros(f.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(f.elems, minlength=f.n), out=offsets[1:])
    return SLLists(flat, offsets, keys, revrank)
