"""Set family input model and the two size orders everything else consumes.

A family is m subsets of a universe of n elements. Elements are interned
to dense indices; all algorithms downstream work on indices only and the
original tokens are kept solely for output.

sort_order is the one sort kernel of the package: every ordering made
here and in maxcomp and dgraph packs each key with its index into one
int64 and sorts those with np.sort.
"""

import io
import operator
from collections import defaultdict
from functools import cached_property

import numpy as np

__all__ = [
    "FamilyFormatError",
    "SetFamily",
    "LFOrder",
    "SLLists",
    "parse_family",
    "lf_order",
    "build_sl_lists",
    "segments",
    "sort_order",
]


class FamilyFormatError(ValueError):
    """Malformed family input; line_no points at the offending line."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


def segments(values, offsets):
    """values cut into pieces: piece i is values[offsets[i]:offsets[i + 1]]."""
    offs = offsets.tolist()
    return [values[a:b] for a, b in zip(offs, offs[1:])]


def sort_order(key):
    """The stable order that sorts the integer array key, and key sorted.

    The order is what np.argsort(key, kind="stable") gives, and the
    sorted keys come back as int64. Each entry is packed into one int64,
    (key - key.min()) << shift | index with shift the bit length of
    n - 1, and one np.sort of those orders them: ties fall to the index,
    a mask reads the order and a right shift the keys. On 2M random int64
    keys (Xeon, numpy 2.4) np.argsort took 0.146 s, np.sort 0.028 s and
    sort_order 0.052 s. When the key span and the index need more than
    63 bits, a quicksort argsort sorts the keys and one packed sort of
    (run of equal keys, index), which fits for n < 2**31, puts each run
    back in index order.
    """
    n = len(key)
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    shift = (n - 1).bit_length()
    low = int(key.min())
    if (int(key.max()) - low).bit_length() + shift <= 63:
        packed = key.astype(np.int64)
        packed -= low
        packed <<= shift
        packed |= np.arange(n)
        packed.sort()
        order = packed & ((1 << shift) - 1)
        packed >>= shift
        packed += low
        return order, packed
    order = np.argsort(key)
    key = key[order].astype(np.int64, copy=False)
    packed = np.zeros(n, dtype=np.int64)
    np.cumsum(key[1:] != key[:-1], out=packed[1:])
    packed <<= shift
    packed |= order
    packed.sort()
    return packed & ((1 << shift) - 1), key


def _flatten(rows, lookup):
    """lookup of every label of the rows, end to end, and each row's length.

    Both come back as int32 arrays. Each row is looked up in one C-level
    pass (list += map), which keeps only references to the ints lookup
    returns; a list grows faster here than an array('i'), which appends
    item by item. parse_family and from_elements look labels up in a
    defaultdict whose default_factory is its own __len__, which numbers
    each label on first appearance.
    """
    elems = []
    sizes = []
    for row in rows:
        before = len(elems)
        elems += map(lookup, row)
        sizes.append(len(elems) - before)
    return np.array(elems, dtype=np.int32), np.array(sizes, dtype=np.int32)


class SetFamily:
    """A family of m non-empty subsets over an interned universe of n elements.

    tokens: original element names, indexed 0..n-1.
    elems, offsets: the sets in flat (CSR) form, set i being
    elems[offsets[i]:offsets[i + 1]] (int32 and int64 arrays).
    sizes: int32 set cardinalities; total_size is their sum (|F|).
    sets: the same sets as m lists of element indices, built on first
    access.
    """

    def __init__(self, tokens, sets):
        """sets are sequences of element indices; unlike parse_family and
        from_elements, an element repeated within a set is an error."""
        elems, sizes = _flatten(sets, operator.index)
        self._store(tokens, elems, sizes)
        if self.total_size < len(elems):
            raise ValueError("duplicate element within a set")

    def _store(self, tokens, elems, sizes):
        """Keep the sets given flat; an element repeated within its set is
        dropped, and its first place kept."""
        self.tokens = list(tokens)
        self.n = len(self.tokens)
        self.m = len(sizes)
        if not self.m:
            raise ValueError("family has no sets")
        if not sizes.all():
            raise ValueError("empty set in family")
        outside = (elems < 0) | (elems >= self.n)
        if outside.any():
            raise ValueError("element index %r out of range"
                             % (int(elems[outside.argmax()]),))
        # sort_order is stable, so sorting the set * n + element keys puts
        # the repeats of an element within its set right after it
        order, keys = sort_order(np.repeat(
            np.arange(self.m, dtype=np.int64) * self.n, sizes) + elems)
        rep = np.zeros(len(keys), dtype=bool)
        rep[order[1:]] = keys[1:] == keys[:-1]
        if rep.any():
            owner = np.repeat(np.arange(self.m), sizes)
            sizes = sizes - np.bincount(owner[rep], minlength=self.m).astype(
                np.int32)
            elems = elems[~rep]
        self.elems = elems
        self.sizes = sizes
        self.offsets = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.total_size = int(self.offsets[-1])

    @classmethod
    def _flat(cls, tokens, elems, sizes):
        f = cls.__new__(cls)
        f._store(tokens, elems, sizes)
        return f

    @cached_property
    def sets(self):
        return segments(self.elems.tolist(), self.offsets)

    @classmethod
    def from_elements(cls, sets, extra_universe=()):
        """Build a family from iterables of arbitrary hashable labels.

        Labels are interned in first-appearance order and a label repeated
        within a set is dropped; extra_universe declares elements that may
        appear in no set.
        """
        index = defaultdict()
        index.default_factory = index.__len__
        elems, sizes = _flatten(sets, index.__getitem__)
        _flatten([extra_universe], index.__getitem__)
        return cls._flat([str(label) for label in index], elems, sizes)

    def as_frozensets(self):
        return [frozenset(s) for s in self.sets]


class LFOrder:
    """Set indices sorted by decreasing size; equal sizes stay in input order.

    order and rank are int32 arrays; rank is the inverse permutation:
    rank[i] is the position of set i.
    """

    __slots__ = ("order", "rank")

    def __init__(self, order):
        self.order = np.asarray(order, dtype=np.int32)
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(order), dtype=np.int32)


class SLLists:
    """Per element v, the sets containing v in increasing size order.

    Equal sizes appear in decreasing input-index order, i.e. each list is
    a subsequence of the reversed LF order. The lists are stored end to
    end: list v is flat[offsets[v]:offsets[v + 1]]. keys holds the same
    (element, set) incidences as sorted int64 keys, which answers batched
    membership queries (see contains); lists made without keys answer
    none.
    """

    __slots__ = ("flat", "offsets", "keys", "_revrank")

    def __init__(self, flat, offsets, keys=None, revrank=None):
        self.flat = flat
        self.offsets = offsets
        self.keys = keys
        self._revrank = revrank

    @property
    def lists(self):
        return segments(self.flat.tolist(), self.offsets)

    def __getitem__(self, v):
        return self.flat[self.offsets[v]:self.offsets[v + 1]].tolist()

    def contains(self, elems, sets):
        """Per query i, whether set sets[i] contains element elems[i].

        One binary search per query into the sorted incidence keys; the
        queries are sorted first by sort_order, which keeps the searches
        cache-friendly.
        """
        m = len(self._revrank)
        perm, q = sort_order(elems.astype(np.int64) * m + self._revrank[sets])
        hit = np.searchsorted(self.keys, q)
        np.minimum(hit, len(self.keys) - 1, out=hit)
        found = np.empty(len(q), dtype=bool)
        found[perm] = self.keys[hit] == q
        return found


def parse_family(source):
    """Parse the family text format into a SetFamily.

    One set per line, elements as whitespace-separated tokens. Lines end
    at LF, CR LF or CR only, the line ends of a text-mode read; any other
    line-break character (form feed, U+2028, ...) is whitespace inside a
    line. A line whose first non-blank character is '#' is a comment; a
    '#' anywhere else is an ordinary token. A line whose first token is exactly '!universe'
    declares the elements after it, which may appear in no set. Duplicate
    tokens within a line are dropped; an empty (or whitespace-only) line
    is rejected because it would denote an empty set.
    """
    text = source.read() if hasattr(source, "read") else source
    index = defaultdict()
    index.default_factory = index.__len__

    def rows():
        for line_no, line in enumerate(io.StringIO(text, newline=None), 1):
            toks = line.split()
            if not toks:
                raise FamilyFormatError("empty set", line_no)
            if toks[0].startswith("#"):
                continue
            if toks[0] == "!universe":
                _flatten([toks[1:]], index.__getitem__)
                continue
            yield toks

    elems, sizes = _flatten(rows(), index.__getitem__)
    if not len(sizes):
        raise FamilyFormatError("no sets in input")
    return SetFamily._flat(list(index), elems, sizes)


def lf_order(f):
    """Sort the sets by decreasing size, stable on input index (sort_order
    of the negated sizes)."""
    return LFOrder(sort_order(-f.sizes)[0])


def build_sl_lists(f, lf):
    """Build all SL lists with one sort of the (element, set) incidences.

    Each incidence becomes the key element * m + (m - 1 - rank of the
    set): sorted, the keys group by element and, within an element, run
    along the reversed LF order.
    """
    m = f.m
    revrank = (m - 1) - lf.rank.astype(np.int64)
    owner = np.repeat(revrank, f.sizes)
    keys = f.elems.astype(np.int64) * m + owner
    keys.sort()
    flat = lf.order[(m - 1) - keys % m]
    offsets = np.zeros(f.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(f.elems, minlength=f.n), out=offsets[1:])
    return SLLists(flat, offsets, keys, revrank)
