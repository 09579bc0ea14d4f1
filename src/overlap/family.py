"""Set family input model and the two size orders everything else consumes.

A family is m subsets of a universe of n elements. Elements are interned
to dense indices; all algorithms downstream work on indices only, and a
parsed family decodes its element names only when f.tokens is read,
which no CLI output does. SetFamily(tokens, elems,
sizes) builds a family from its flat form and is the only constructor;
it also makes the family's LF order (f.lf), which the SL lists, pass 1
and pass 3 read, and sorts the incidences by the SL-list key, the one
incidence key of the package: that sort finds the repeated elements,
and the first build_sl_lists takes it.
parse_family reads the text format from its UTF-8 bytes with numpy,
interns the tokens through sort_order and calls it; no other code
interns labels.

sort_order is the one sort kernel of the package: every ordering made
here and in maxcomp and dgraph packs each key with its index into one
int64 and sorts those with np.sort. A key whose span needs more bits
than the index leaves of 63, once the low bits in which no key differs
from the smallest are dropped, takes two such passes, low bits first,
then stably the high bits. sort_groups also names each run of equal
keys: every key gets the dense id of its run, and no other code numbers
groups.
"""

from functools import cached_property

import numpy as np

__all__ = [
    "FamilyFormatError",
    "SetFamily",
    "LFOrder",
    "SLLists",
    "parse_family",
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


def _packed_pass(part, shift):
    """The stable order of part, int64 values from 0 to under
    2**(63 - shift).

    Each value is packed in place with its index, part << shift | index,
    and one np.sort of those orders them: ties fall to the index and a
    mask reads the order. part is left sorted, packed.
    """
    part <<= shift
    part |= np.arange(len(part))
    part.sort()
    return part & ((1 << shift) - 1)


def sort_order(key):
    """The stable order that sorts the integer array key, and key sorted.

    The order is stable: equal keys keep the order of their indices. The
    sorted keys come back as int64. With shift the bit length of n - 1,
    the differences key - key.min() are sorted by packed passes
    (_packed_pass): one when they have at most 63 - shift bits, whose
    packed result gives the sorted keys by shifts, else two, least
    significant digit first. Before that they lose, when they need more
    than 63 - shift bits, the low bits that are 0 in all of them: a
    logical shift of the differences read as uint64, exact for any keys.
    Of two passes, the first sorts by the low 63 - shift bits and the
    second, stably, by the rest, which has at most shift + 1 bits, so
    two passes always fit for n < 2**31.
    """
    n = len(key)
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    shift = (n - 1).bit_length()
    low = int(key.min())
    span = int(key.max()) - low
    part = key.astype(np.int64)
    part -= low  # wraps past 2**63, so shifted as uint64 below
    wide = part.view(np.uint64)
    zeros = 0
    if span.bit_length() + shift > 63:
        # the trailing zeros of the OR of the differences, which is not 0
        differ = int(np.bitwise_or.reduce(wide))
        zeros = (differ & -differ).bit_length() - 1
        wide >>= zeros
        span >>= zeros
    if span.bit_length() + shift <= 63:
        order = _packed_pass(part, shift)
        part >>= shift
        if zeros:
            wide <<= zeros
        part += low
        return order, part
    bits = 63 - shift
    high = (wide >> bits).view(np.int64)
    part &= (1 << bits) - 1
    order = _packed_pass(part, shift)
    order = order[_packed_pass(high[order], shift)]
    return order, key[order].astype(np.int64, copy=False)


def sort_groups(key):
    """sort_order's order, the distinct keys in increasing order, per
    sorted entry whether it differs from the entry before it (True for
    the first), and name: per key, in input order, the int32 dense id of
    its run of equal keys, 0 for the smallest key.

    The sorted keys are dropped before the names are made, so the names
    take their place in memory.
    """
    order, key = sort_order(key)
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    key = key[new]
    name = np.empty(len(new), dtype=np.int32)
    name[order] = np.cumsum(new, dtype=np.int32)
    name -= 1
    return order, key, new, name


class SetFamily:
    """A family of m non-empty subsets over a universe of n elements.

    tokens: element names, indexed 0..n-1, as a list made on first
    access from the sized iterable the family was built with.
    elems, offsets: the sets in flat (CSR) form, set i being
    elems[offsets[i]:offsets[i + 1]] (int32 and int64 arrays).
    sizes: int32 set cardinalities; total_size is their sum (|F|).
    sets: the same sets as m lists of element indices, built on first
    access.
    lf: the LFOrder of the sizes, made once repeats are dropped.

    The constructor's body makes lf from the sizes, sorts the incidences
    by the keys of the SL lists (_sl_keys) and finds the repeats in that
    sort: two equal adjacent keys. A family with repeats drops them, by
    a stable sort_order of the same keys, and runs the body again on
    what is left; the first build_sl_lists takes the keys.

    A family is built from the text format by parse_family, or from the
    flat form by SetFamily(tokens, elems, sizes), elems and sizes being
    one-dimensional integer arrays or lists of ints (a float or bool
    dtype is refused, not truncated): set i is the next sizes[i] entries
    of elems, each an index into tokens. The sizes must be positive and
    add up to len(elems). An element repeated within its set is dropped,
    and its first place kept.
    """

    def __init__(self, tokens, elems, sizes):
        self._tokens = tokens
        self.n = len(tokens)
        elems, sizes = np.asarray(elems), np.asarray(sizes)
        if elems.ndim != 1 or sizes.ndim != 1:
            raise ValueError("1-D elems and sizes needed, got %d-D and %d-D"
                             % (elems.ndim, sizes.ndim))
        self.m = len(sizes)
        if not self.m:
            raise ValueError("family has no sets")
        if elems.dtype.kind not in "iu" or sizes.dtype.kind not in "iu":
            raise ValueError("integer elems and sizes needed, got %s and %s"
                             % (elems.dtype, sizes.dtype))
        if not sizes.all():
            raise ValueError("empty set in family")
        if (sizes < 0).any() or sizes.sum(dtype=np.int64) != len(elems):
            raise ValueError("set sizes do not split the %d elements"
                             % len(elems))
        # checked before the int32 cast, so a wider index cannot wrap
        outside = (elems < 0) | (elems >= self.n)
        if outside.any():
            raise ValueError("element index %r out of range"
                             % (int(elems[outside.argmax()]),))
        elems = elems.astype(np.int32, copy=False)
        sizes = sizes.astype(np.int32, copy=False)
        # runs once, and once more on the kept entries if any were dropped
        while True:
            lf = LFOrder(sort_order(-sizes)[0])
            keys = _sl_keys(elems, sizes, lf.rank)
            keys.sort()
            # an element repeated within its set gives two equal adjacent
            # keys
            if not (keys[1:] == keys[:-1]).any():
                break
            del keys
            # sort_order is stable, so every later copy of an (element,
            # set) key comes right after its first place
            order, keys = sort_order(_sl_keys(elems, sizes, lf.rank))
            rep = np.zeros(len(keys), dtype=bool)
            rep[order[1:]] = keys[1:] == keys[:-1]
            del order, keys
            # a set's size is now the count of kept entries from its start
            # to the next set's
            sizes = np.add.reduceat(~rep, np.cumsum(sizes) - sizes,
                                    dtype=np.int32)
            elems = elems[~rep]
            del rep
        self.elems, self.sizes, self.lf = elems, sizes, lf
        # build_sl_lists takes these keys, so the family does not keep them
        self._sl_keys = keys
        self.offsets = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.total_size = int(self.offsets[-1])

    @cached_property
    def tokens(self):
        return list(self._tokens)

    @cached_property
    def sets(self):
        return segments(self.elems.tolist(), self.offsets)

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
    (element, set) incidences as sorted int64 keys element << bits |
    revrank[set], bits being the bit length of m - 1, which answer
    batched membership queries (see contains); revrank[i] is m - 1 minus
    the LF rank of set i, as int32.
    """

    __slots__ = ("flat", "offsets", "keys", "_revrank")

    def __init__(self, flat, offsets, keys, revrank):
        self.flat = flat
        self.offsets = offsets
        self.keys = keys
        self._revrank = revrank

    def contains(self, elems, sets):
        """Per query i, whether set sets[i] contains element elems[i].

        One binary search per query into the sorted incidence keys; the
        queries are sorted first by sort_order, which keeps the searches
        cache-friendly.
        """
        q = elems.astype(np.int64)
        q <<= (len(self._revrank) - 1).bit_length()
        q |= self._revrank[sets]
        perm, q = sort_order(q)
        hit = np.searchsorted(self.keys, q)
        np.minimum(hit, len(self.keys) - 1, out=hit)
        found = np.empty(len(q), dtype=bool)
        found[perm] = self.keys[hit] == q
        return found


# The code points above ASCII that str.split splits at, that is
# [c for c in range(128, 0x110000) if chr(c).isspace()].
UNICODE_SPACES = (0x85, 0xa0, 0x1680, 0x2000, 0x2001, 0x2002, 0x2003,
                  0x2004, 0x2005, 0x2006, 0x2007, 0x2008, 0x2009, 0x200a,
                  0x2028, 0x2029, 0x202f, 0x205f, 0x3000)
_TO_SPACE = dict.fromkeys(UNICODE_SPACES, " ")
_UNIVERSE = np.frombuffer(b"!universe", dtype=np.uint8)
# _LENGTH_BIT[k] is the bit above the low k bytes of a word for k < 8,
# and for k = 8 the bit 2**57 that the key of every token of 8 bytes or
# more has.
_LENGTH_BIT = np.array([1 << 8 * k for k in range(8)] + [1 << 57],
                       dtype=np.uint64)


def _utf8(source):
    """The family text as UTF-8 bytes whose only whitespace is ASCII.

    ASCII bytes come back as bytes. Other input is decoded, which
    raises UnicodeDecodeError on bytes that are not UTF-8, loses a
    leading byte-order mark, has its non-ASCII whitespace turned into
    spaces and is encoded again.
    """
    data = source.read() if hasattr(source, "read") else source
    if data.isascii():
        return data.encode() if isinstance(data, str) else bytes(data)
    if not isinstance(data, str):
        data = str(data, "utf-8")
    return data.removeprefix("\ufeff").translate(_TO_SPACE).encode()


def _token_bounds(b):
    """Start and length of every token of the bytes b, int32 when b is
    under 2 GiB.

    A token starts where a blank is followed by a token byte and ends
    where a token byte is followed by a blank. With a blank put before
    and after b, the places where blankness changes are one scan, and
    they alternate: a start, its token's end, the next start, ...
    """
    blank = np.ones(len(b) + 2, dtype=bool)
    # the ASCII whitespace of str.split: bytes 9 to 13 and 28 to 32
    code = b - 9
    np.less_equal(code, 4, out=blank[1:-1])
    code -= 19
    blank[1:-1] |= code <= 4
    del code
    change = blank[:-1] != blank[1:]
    del blank
    change = np.flatnonzero(change)
    place = np.int32 if len(b) < 2**31 else np.int64
    start = change[::2].astype(place)
    length = change[1::2].astype(place)
    length -= start
    return start, length


def _line_sizes(b, start):
    """The number of tokens on each line of the bytes b.

    A line ends at LF and at a CR not followed by LF; a last line without
    a line end counts when it holds any byte.
    """
    stop = b == 10
    cr = b == 13
    np.greater(cr[:-1], stop[1:], out=cr[:-1])
    stop |= cr
    del cr
    stop = np.flatnonzero(stop) + 1
    if len(b) and (not len(stop) or stop[-1] < len(b)):
        stop = np.append(stop, len(b))
    return np.diff(np.searchsorted(start, stop), prepend=0)


def _reader(data):
    """read(pos): the 8 bytes of data from each pos, as uint64
    little-endian words, with 0 for the bytes past the end of data.

    Each word is read through an 8-byte window at pos; one within the
    last 8 bytes of data is read from there and shifted down.
    """
    buf = data if len(data) >= 8 else bytes(data).ljust(8)
    windows = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf,
                         strides=(1,))
    last = len(buf) - 8

    def read(pos):
        word = windows[np.minimum(pos, last)]
        tail = np.flatnonzero(pos > last)
        word[tail] >>= (8 * (pos[tail] - last)).astype(np.uint64)
        return word

    return read


def _wide_names(data, read, start, length):
    """Dense names of tokens of 8 bytes or more, equal exactly when the
    tokens are, and the first token of each name.

    A name starts as the token's length and is refined one 8-byte word a
    round. The tokens stay grouped by name; in a group where some
    token's word differs from the first token's, a sort_order of the
    words, then a stable one of the names, brings equal (name, word)
    pairs together, and each pair takes a new name. A token drops out
    when its bytes end, or when no other token shares its name, since
    then no later word can make it equal another.

    A round runs only while more tokens are live than rounds have run,
    so there are no more rounds than tokens, and the rounds read no more
    words than the tokens hold. The tokens still live after them take
    new names from one dict keyed by their name so far and the rest of
    their bytes, which hashes each of those bytes once.
    """
    name = length.astype(np.int64)
    live = sort_order(name)[0]
    done = 0
    while len(live) > done >> 3:
        word = read(start[live] + done)
        # each word cut to the token's bytes: shifted up past them and back
        cut = (64 - 8 * np.minimum(length[live] - done, 8)).astype(np.uint8)
        word <<= cut
        word >>= cut
        head = np.ones(len(live), dtype=bool)
        np.not_equal(name[live[1:]], name[live[:-1]], out=head[1:])
        leader = np.maximum.accumulate(np.where(head, np.arange(len(live)), 0))
        if (word != word[leader]).any():
            by_word = sort_order(word.view(np.int64))[0]
            by_name, tied = sort_order(name[live[by_word]])
            pairs = by_word[by_name]
            live, word = live[pairs], word[pairs]
            head[1:] = (tied[1:] != tied[:-1]) | (word[1:] != word[:-1])
            name[live] = name.max() + np.cumsum(head)
        done += 8
        shared = ~(head & np.append(head[1:], True))
        live = live[shared & (length[live] > done)]
    if len(live):
        top, tails, was = int(name.max()) + 1, {}, name[live].tolist()
        cut = np.stack((start[live] + done, start[live] + length[live]), 1)
        name[live] = [top + tails.setdefault((w, data[a:b]), len(tails))
                      for w, (a, b) in zip(was, cut.tolist())]
    order, _, first, dense = sort_groups(name)
    return dense, order[first]


def _token_keys(data, start, length):
    """One key per token, equal exactly for equal tokens, and the distinct
    tokens of 8 bytes or more in the order of their keys.

    A shorter token's key is its bytes read as a little-endian word plus
    the bit just above them, which tells "a" from "a\\0", so the key is
    under 2**57. It is made by shifts: the word is shifted up until the
    token's bytes end just below bit 63, which drops the bytes after
    them, bit 63 is set and the word shifted back down. A longer token's
    key (first made so from its first 7 bytes) is 2**57 plus its name
    (_wide_names).
    """
    read = _reader(data)
    key = read(start)
    up = (63 - 8 * np.minimum(length, 7)).astype(np.uint8)
    key <<= up
    key |= 1 << 63
    key >>= up
    del up
    wide = np.flatnonzero(length >= 8)
    names, first = _wide_names(data, read, start[wide], length[wide])
    key[wide] = names.astype(np.uint64) + _LENGTH_BIT[8]
    first = wide[first]
    return key.view(np.int64), [data[a:a + n] for a, n in zip(
        start[first].tolist(), length[first].tolist())]


def _decode(keys, wide):
    """The tokens of the sorted distinct keys, wide being the tokens of 8
    bytes or more; each short key's bytes are cut at its length bit and
    all of them decoded at once."""
    short = keys[:len(keys) - len(wide)].astype("<u8")
    length = np.searchsorted(_LENGTH_BIT, short, side="right") - 1
    raw = short.view(np.uint8).reshape(-1, 8)
    raw = np.where(np.arange(8) < length[:, None], raw, ord(" "))
    return raw.tobytes().decode().split() + [t.decode() for t in wide]


class _Tokens:
    """The tokens of a parse in order of first appearance, decoded
    (_decode) each time they are iterated: keys are the sorted distinct
    token keys, wide the tokens of 8 bytes or more and by_first[i] the
    place in keys of the i-th token to appear."""

    __slots__ = ("keys", "wide", "by_first")

    def __init__(self, keys, wide, by_first):
        self.keys, self.wide, self.by_first = keys, wide, by_first

    def __len__(self):
        return len(self.by_first)

    def __iter__(self):
        tokens = _decode(self.keys, self.wide)
        return map(tokens.__getitem__, self.by_first.tolist())


def parse_family(source):
    """Parse the family text format into a SetFamily.

    source is bytes, a str, or a text or binary file object; bytes are
    read as UTF-8 and a leading byte-order mark is ignored. One set per
    line, elements as whitespace-separated tokens, whitespace being what
    str.split splits at. Lines end at LF, CR LF or CR only, the line
    ends of a text-mode read; any other line-break character (form feed,
    U+2028, ...) is whitespace inside a line. A line whose first
    non-blank character is '#' is a comment; a '#' anywhere else is an
    ordinary token. A line whose first token is exactly '!universe'
    declares the elements after it, which may appear in no set. Duplicate
    tokens within a line are dropped; an empty (or whitespace-only) line
    is rejected because it would denote an empty set. Elements are
    numbered in order of first appearance. Their names are decoded on
    the first read of f.tokens, which no CLI output makes.

    The bytes are split with numpy, with no Python loop over lines or
    tokens. Tokens are interned by sort_groups of their keys
    (_token_keys): it names the groups of equal tokens and, being
    stable, puts each group's first appearance first. Those first places
    are distinct, so a sort_groups of them names each group by its rank
    in order of appearance, and that call's order lists the groups so.
    """
    data = _utf8(source)
    b = np.frombuffer(data, dtype=np.uint8)
    start, length = _token_bounds(b)
    count = _line_sizes(b, start)
    if not count.all():
        raise FamilyFormatError("empty set", int(count.argmin()) + 1)
    # kind of each line: 0 a set, 1 a comment, 2 a !universe line
    head = np.cumsum(count) - count
    kind = (b[start[head]] == ord("#")).astype(np.int8)
    named = head[length[head] == len(_UNIVERSE)]
    named = named[(b[start[named, None] + np.arange(len(_UNIVERSE))]
                   == _UNIVERSE).all(axis=1)]
    kind[np.searchsorted(head, named)] = 2
    sizes = count[kind == 0].astype(np.int32)
    if not len(sizes):
        raise FamilyFormatError("no sets in input")
    # the tokens of comment lines and each word !universe are not elements
    owner = np.repeat(kind, count)
    owner[named] = 1
    skipped = owner.any()
    if skipped:
        keep = owner != 1
        start, length, owner = start[keep], length[keep], owner[keep]
        del keep
    key, wide = _token_keys(data, start, length)
    del data, b, start, length
    order, key, first, group = sort_groups(key)
    by_first, _, _, rank = sort_groups(order[first])
    del order, first
    ids = rank[group]
    del group
    if skipped:
        ids = ids[owner == 0]
    del owner
    return SetFamily(_Tokens(key, wide, by_first), ids, sizes)


def _sl_keys(elems, sizes, rank):
    """The incidences of the flat sets elems, sizes as int64 keys
    element << bits | (m - 1 - rank[set]), bits being the bit length of
    m - 1, rank the sets' LF ranks, in the order of elems."""
    m = len(sizes)
    keys = elems.astype(np.int64)
    keys <<= (m - 1).bit_length()
    keys |= np.repeat((m - 1) - rank, sizes)
    return keys


def build_sl_lists(f):
    """Build all SL lists from the sorted (element, set) incidence keys.

    Each incidence is the key element << bits | (m - 1 - LF rank of the
    set), bits being the bit length of m - 1: sorted, the keys group by
    element and, within an element, run along the reversed LF order
    (f.lf). The first call takes the keys the family's constructor
    sorted, and the family drops them; a later call sorts them again.
    Element v's list starts at the first key at or above v << bits, and
    the low 32 bits of each key, masked, give its set's place in that
    order.
    """
    keys, f._sl_keys = f._sl_keys, None
    if keys is None:
        keys = _sl_keys(f.elems, f.sizes, f.lf.rank)
        keys.sort()
    bits = (f.m - 1).bit_length()
    offsets = np.searchsorted(keys, np.arange(f.n + 1, dtype=np.int64) << bits)
    owner = keys.astype(np.int32)
    owner &= (1 << bits) - 1
    flat = f.lf.order[::-1][owner]
    return SLLists(flat, offsets, keys, (f.m - 1) - f.lf.rank)
