import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlap.family
from overlap.family import (UNICODE_SPACES, FamilyFormatError, SetFamily,
                            build_sl_lists, parse_family, segments,
                            sort_groups, sort_order)
import overlap.pipeline
from overlap.generate import gen_nested
from overlap.pipeline import run_pipeline

from conftest import FAM_A_TEXT, make_family, random_family, seeded_rng


def flat(*sets, dtype=np.int32):
    """The elems and sizes arrays of the index lists sets."""
    return (np.array([e for s in sets for e in s], dtype=dtype),
            np.array([len(s) for s in sets], dtype=dtype))


class TestParse:

    def test_basic(self):
        f = parse_family("a b\nb c\n")
        assert f.n == 3
        assert f.m == 2
        assert f.as_frozensets() == [frozenset({0, 1}), frozenset({1, 2})]

    def test_duplicate_tokens_dropped(self):
        f = parse_family("a a b\n")
        assert list(f.sizes) == [2]
        assert f.sets == [[0, 1]]

    def test_fam_a_counts(self):
        f = parse_family(FAM_A_TEXT)
        assert (f.n, f.m, f.total_size) == (4, 4, 10)

    def test_comments_skipped(self):
        f = parse_family("# header\na b\n# trailing\nb c\n")
        assert f.m == 2

    def test_universe_header_extends_n(self):
        f = parse_family("!universe p q\na b\n")
        assert f.n == 4
        assert f.m == 1

    def test_universe_prefix_is_a_set(self):
        f = parse_family("!universefoo 1 2\n")
        assert f.m == 1
        assert [f.tokens[e] for e in f.sets[0]] == ["!universefoo", "1", "2"]

    def test_hash_after_first_token_is_an_element(self):
        f = parse_family("1 2 # c\n")
        assert [f.tokens[e] for e in f.sets[0]] == ["1", "2", "#", "c"]

    def test_only_newlines_end_lines(self):
        f = parse_family("1 2\x0c3 4\n")
        assert f.m == 1
        assert [f.tokens[e] for e in f.sets[0]] == ["1", "2", "3", "4"]

    def test_vertical_tab_is_whitespace(self):
        f = parse_family("1 2\x0b\n")
        assert f.m == 1
        assert [f.tokens[e] for e in f.sets[0]] == ["1", "2"]

    def test_cr_and_crlf_end_lines(self):
        f = parse_family("a b\r\nb c\rc d\n")
        assert f.m == 3

    def test_empty_line_rejected_with_line_number(self):
        with pytest.raises(FamilyFormatError) as exc:
            parse_family("a b\n\nb c\n")
        assert "line 2" in str(exc.value)

    def test_no_sets_rejected(self):
        with pytest.raises(FamilyFormatError, match="no sets"):
            parse_family("# only comments\n")

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="family has no sets"):
            SetFamily([], *flat())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set in family"):
            SetFamily(["a", "b"], *flat([0, 1], []))

    # the last three add up to len(elems), but hold a negative size
    @pytest.mark.parametrize("sizes", [[2, 2], [1, 1], [6], [6, -1],
                                       [2, 4, -1], [-5, 10]])
    def test_sizes_must_split_elems(self, sizes):
        elems = np.array([0, 1, 1, 0, 1], dtype=np.int32)
        with pytest.raises(ValueError,
                           match="set sizes do not split the 5 elements"):
            SetFamily(["a", "b"], elems, np.array(sizes, dtype=np.int32))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_element_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="element index %d out of range"
                           % bad):
            SetFamily(["a", "b"], *flat([0, 1], [bad]))

    def test_wide_index_rejected_before_the_int32_cast(self):
        # 2**32 is 0 once cast to int32; it must not come back as element 0
        with pytest.raises(ValueError, match="element index %d out of range"
                           % 2**32):
            SetFamily(["a", "b"], *flat([0, 1], [2**32], dtype=np.int64))

    def test_int64_arrays_stored_as_int32(self):
        f = SetFamily(["a", "b"], *flat([0, 1], [1], dtype=np.int64))
        assert f.elems.dtype == np.int32 and f.sizes.dtype == np.int32
        assert f.sets == [[0, 1], [1]]

    # cast to int32, a float array [0.5, 1.7] would be the set [0, 1]
    # and a bool array [True, False] the set [1, 0]
    @pytest.mark.parametrize("elems, sizes", [
        (np.array([0.5, 1.7]), np.array([2])),
        (np.array([0, 1]), np.array([2.0])),
        (np.array([True, False]), np.array([2])),
    ], ids=["float_elems", "float_sizes", "bool_elems"])
    def test_non_integer_arrays_rejected(self, elems, sizes):
        with pytest.raises(ValueError, match="integer elems and sizes"):
            SetFamily(["a", "b"], elems, sizes)

    # a 2-D elems was stored as sets of index rows, and a 0-D sizes
    # failed in len()
    @pytest.mark.parametrize("elems, sizes, dims", [
        (np.array([[0, 1], [1, 2]]), np.array([1, 1]), "2-D and 1-D"),
        (np.array([0, 1, 1, 2]), np.array([[2], [2]]), "1-D and 2-D"),
        (np.array([0, 1]), np.array(2), "1-D and 0-D"),
    ], ids=["2d_elems", "2d_sizes", "0d_sizes"])
    def test_arrays_not_one_dimensional_rejected(self, elems, sizes, dims):
        with pytest.raises(ValueError, match="1-D elems and sizes needed, "
                           "got %s" % dims):
            SetFamily(["a", "b", "c"], elems, sizes)

    def test_integer_lists_build_the_arrays_family(self):
        want = SetFamily(["a", "b", "c"], *flat([0, 2], [1, 1, 2]))
        f = SetFamily(["a", "b", "c"], [0, 2, 1, 1, 2], [2, 3])
        for name in ("elems", "sizes", "offsets"):
            got, exp = getattr(f, name), getattr(want, name)
            assert got.dtype == exp.dtype
            assert got.tolist() == exp.tolist()
        assert f.sets == [[0, 2], [1, 2]]

    def test_repeated_element_dropped_at_its_first_place(self):
        f = SetFamily(["a", "b", "c"], *flat([0], [1, 0, 1, 2, 0], [2, 2]))
        assert f.sets == [[0], [1, 0, 2], [2]]
        assert f.sizes.tolist() == [1, 3, 1]
        assert f.offsets.tolist() == [0, 1, 4, 5]
        assert f.total_size == 5
        assert f.elems.tolist() == [0, 1, 0, 2, 2]

    def test_file_object(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(FAM_A_TEXT)
        with open(path) as fh:
            assert parse_family(fh).m == 4


class TestLFOrder:

    def test_fam_a(self, fam_a):
        assert fam_a.lf.order.tolist() == [3, 0, 1, 2]

    def test_equal_sizes_keep_input_order(self):
        f = make_family([0, 1], [2, 3], [4, 5])
        assert f.lf.order.tolist() == [0, 1, 2]

    def test_star_keeps_input_order(self):
        f = make_family(*[[0, i] for i in range(1, 6)])
        assert f.lf.order.tolist() == [0, 1, 2, 3, 4]

    def test_rank_is_inverse(self, fam_a):
        lf = fam_a.lf
        for r, i in enumerate(lf.order):
            assert lf.rank[i] == r

    def test_made_after_repeats_are_dropped(self):
        # the second set keeps all 3 elements, the first only 2 of its 3
        f = SetFamily(list("abcde"), [0, 0, 1, 2, 3, 4], [3, 3])
        assert f.sizes.tolist() == [2, 3]
        assert f.lf.order.tolist() == [1, 0]


def sl_lists(sl):
    """The SL lists as Python lists, list v holding element v's sets."""
    return segments(sl.flat.tolist(), sl.offsets)


class TestSLLists:

    def test_fam_a_element_two(self, fam_a):
        sl = build_sl_lists(fam_a)
        two = fam_a.tokens.index("2")
        assert sl_lists(sl)[two] == [1, 0, 3]  # X2, X1, X4

    def test_absent_and_single(self):
        f = make_family([0], universe=[0, 1])
        assert sl_lists(build_sl_lists(f)) == [[0], []]

    def test_concat_length_equals_total_size(self, fam_a):
        sl = build_sl_lists(fam_a)
        assert sum(map(len, sl_lists(sl))) == fam_a.total_size


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_sl_invariants_random(seed):
    f = random_family(seeded_rng(seed), max_n=15, max_m=15)
    lf = f.lf
    sl = build_sl_lists(f)
    lists = sl_lists(sl)
    assert sum(map(len, lists)) == f.total_size
    for v, lst in enumerate(lists):
        for a, b in zip(lst, lst[1:]):
            assert f.sizes[a] <= f.sizes[b]
        # membership both ways
        for i in lst:
            assert v in f.sets[i]
        # reversed list is a subsequence of the LF order
        ranks = [lf.rank[i] for i in reversed(lst)]
        assert ranks == sorted(ranks)
    for i, s in enumerate(f.sets):
        for v in s:
            assert i in lists[v]


def product_keyed_sl_lists(f):
    """flat, offsets and contains of build_sl_lists as it was, with the
    keys element * m + revrank read back by % m."""
    m = f.m
    revrank = (m - 1) - f.lf.rank.astype(np.int64)
    keys = f.elems.astype(np.int64) * m + np.repeat(revrank, f.sizes)
    keys.sort()
    flat = f.lf.order[(m - 1) - keys % m]
    offsets = np.zeros(f.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(f.elems, minlength=f.n), out=offsets[1:])

    def contains(elems, sets):
        q = elems.astype(np.int64) * m + revrank[sets]
        hit = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return keys[hit] == q

    return flat, offsets, contains


@pytest.mark.parametrize("m", [1, 2, 3, 37, 64, 65, 256, 257, 1024, 1025])
def test_shift_keyed_sl_lists_match_product_keyed(m):
    rng = np.random.default_rng(m)
    for n in (1, 5, 300):
        sizes = rng.integers(1, min(n, 8), m, endpoint=True)
        elems = np.concatenate([rng.choice(n, s, replace=False)
                                for s in sizes])
        f = SetFamily(["t%d" % e for e in range(n)], elems, sizes)
        sl = build_sl_lists(f)
        flat, offsets, contains = product_keyed_sl_lists(f)
        assert sl.flat.tolist() == flat.tolist()
        assert sl.offsets.tolist() == offsets.tolist()
        # every incidence, then random pairs, most of them misses
        owner = np.repeat(np.arange(m), sizes)
        qe = np.concatenate([elems, rng.integers(0, n, 3000)])
        qs = np.concatenate([owner, rng.integers(0, m, 3000)])
        got = sl.contains(qe, qs)
        assert got[:len(elems)].all()
        assert got.tolist() == contains(qe, qs).tolist()


def random_flat_family(seed, m=300, n=200):
    """A repeat-free family of m random sets of 2 to 8 of n elements,
    built from its flat form."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 9, m)
    elems = np.concatenate([rng.choice(n, s, replace=False) for s in sizes])
    return SetFamily(["t%d" % e for e in range(n)], elems, sizes)


def test_one_incidence_sort_from_constructor_to_pass_one(monkeypatch):
    # a repeat-free family sorts its (element, set) incidences once, by
    # the SL-list key, in its constructor; run_pipeline's SL lists read
    # those keys, and nothing else sorts |F| entries before pass 1
    total = random_flat_family(3).total_size
    sorts = []

    def record(module, name, length=None):
        fn = getattr(module, name)

        def recording(*args):
            if length is None or len(args[0]) == length:
                sorts.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, recording)

    record(overlap.family, "_sl_keys", total)
    record(overlap.family, "_packed_pass", total)
    record(overlap.pipeline, "compute_pf")
    run_pipeline(random_flat_family(3))
    assert sorts[:sorts.index("compute_pf")] == ["_sl_keys"]


@pytest.mark.parametrize("texts", [("a b b b\nc d e\n", "a b\nc d e\n"),
                                   ("c d e\na a b a b\n", "c d e\na b\n")])
def test_repeats_that_change_the_lf_order_are_rekeyed(texts):
    # each family's sets swap places in the LF order when the repeats
    # are dropped, so the keys sorted before the drop are in the wrong
    # order
    f, g = map(parse_family, texts)
    assert f.tokens == g.tokens
    for name in ("elems", "sizes", "offsets"):
        assert getattr(f, name).tolist() == getattr(g, name).tolist()
    assert f.lf.order.tolist() == g.lf.order.tolist()
    assert f.lf.rank.tolist() == g.lf.rank.tolist()
    a, b = build_sl_lists(f), build_sl_lists(g)
    for name in ("flat", "offsets", "keys"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()


def sets_with_repeats(rng, n, m):
    """m random sets of 1 to 9 of n elements, as lists, each given 0 to
    5 copies of its elements at its first, middle or last place. A copy
    put first takes its element's first place; a small set given many
    copies moves up the LF order."""
    sets = []
    for _ in range(m):
        s = rng.choice(n, rng.integers(1, min(n, 9), endpoint=True),
                       replace=False).tolist()
        for _ in range(rng.integers(0, 5, endpoint=True)):
            copy = s[rng.integers(len(s))]
            s.insert([0, len(s) // 2, len(s)][rng.integers(3)], copy)
        sets.append(s)
    return sets


def flat_family(n, sets):
    return SetFamily(["t%d" % e for e in range(n)], *flat(*sets))


def test_repeat_path_matches_first_places_kept_random():
    # each family with repeats equals the family of its sets with every
    # later copy dropped (dict.fromkeys keeps the first place), through
    # the LF order, the SL lists the constructor sorted and the pipeline
    lf_moved = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 40, endpoint=True)), int(
            rng.integers(1, 60, endpoint=True))
        raw = sets_with_repeats(rng, n, m)
        kept = [list(dict.fromkeys(s)) for s in raw]
        f, g = flat_family(n, raw), flat_family(n, kept)
        for name in ("elems", "sizes", "offsets"):
            assert getattr(f, name).tolist() == getattr(g, name).tolist()
        for name in ("order", "rank"):
            assert (getattr(f.lf, name).tolist()
                    == getattr(g.lf, name).tolist())
        lf_moved += (sort_order(-flat(*raw)[1])[0].tolist()
                     != g.lf.order.tolist())
        a, b = build_sl_lists(f), build_sl_lists(g)
        for name in ("flat", "offsets", "keys"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()
        res, want = run_pipeline(flat_family(n, raw)), run_pipeline(g)
        assert res.maxes.partners.tolist() == want.maxes.partners.tolist()
        for name in ("a", "b"):
            assert (getattr(res.subgraph, name).tolist()
                    == getattr(want.subgraph, name).tolist())
        for name in ("order", "a", "b"):
            assert (getattr(res.forest, name).tolist()
                    == getattr(want.forest, name).tolist())
    # the repeats reorder the sets by size in most families
    assert lf_moved >= 150


def test_pipeline_takes_the_sl_keys_and_a_later_build_sorts_them():
    # after run_pipeline the family holds no |F|-sized array but elems;
    # a build of the SL lists after the first sorts the keys again, to
    # the same lists
    f = random_flat_family(4)
    run_pipeline(f)
    held = [name for name, value in vars(f).items()
            if isinstance(value, np.ndarray) and len(value) >= f.total_size]
    assert held == ["elems"]
    g = random_flat_family(4)
    first, second = build_sl_lists(g), build_sl_lists(g)
    for name in ("flat", "offsets", "keys"):
        assert getattr(first, name).tolist() == getattr(second, name).tolist()


def test_orders_deterministic():
    rng = seeded_rng(7)
    f = random_family(rng)
    g = SetFamily(f.tokens, *flat(*f.sets))
    assert f.lf.order.tolist() == g.lf.order.tolist()
    assert sl_lists(build_sl_lists(f)) == sl_lists(build_sl_lists(g))


def intern_rows(rows, index):
    """The per-row interning the array parse replaced."""
    return [[index.setdefault(label, len(index))
             for label in dict.fromkeys(row)] for row in rows]


def reference_parse(text):
    """parse_family as it was before the parse interned into arrays."""
    index = {}

    def rows():
        for line_no, line in enumerate(io.StringIO(text, newline=None), 1):
            toks = line.split()
            if not toks:
                raise FamilyFormatError("empty set", line_no)
            if toks[0].startswith("#"):
                continue
            if toks[0] == "!universe":
                intern_rows([toks[1:]], index)
                continue
            yield toks

    sets = intern_rows(rows(), index)
    if not sets:
        raise FamilyFormatError("no sets in input")
    return SetFamily(list(index), *flat(*sets))


def random_family_text(rng):
    """A family text with repeated tokens, comments, !universe lines, CR and
    CR LF line ends, and line-break characters that are not line ends."""
    pool = ["a", "b", "c", "d", "e", "f", "#", "!universe", "x1", "\u00e9"]
    blanks = [" ", " ", "\t", "\x0b", "\x0c", "\u2028", "\x1c", "\x85"]
    lines = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(["# note", "  #x a b", "#"]))
            continue
        toks = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        if kind < 0.25:
            toks.insert(0, "!universe")
        elif toks[0].startswith("#"):
            toks[0] = "z"
        lines.append(rng.choice(blanks).join(toks) + rng.choice(["", " "]))
    if rng.random() < 0.15:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", " ", "\x0b"]))
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def test_parse_matches_per_line_interning_random():
    rng = seeded_rng(53)
    errors = 0
    for _ in range(600):
        text = random_family_text(rng)
        try:
            want = reference_parse(text)
        except FamilyFormatError as exc:
            errors += 1
            with pytest.raises(FamilyFormatError) as got:
                parse_family(text)
            assert (got.value.line_no, str(got.value)) \
                == (exc.line_no, str(exc)), repr(text)
            continue
        got = parse_family(text)
        assert got.tokens == want.tokens, repr(text)
        assert got.elems.tolist() == want.elems.tolist(), repr(text)
        assert got.sizes.tolist() == want.sizes.tolist(), repr(text)
        assert got.offsets.tolist() == want.offsets.tolist(), repr(text)
    assert 0 < errors < 300


def wide_family_text(rng):
    """A family text whose tokens have 1 to 41 bytes, pairs of tokens that
    differ by a trailing NUL or only in their last character, control
    bytes and non-ASCII letters, set apart by every kind of whitespace
    str.split knows. Non-ASCII tokens of 8 bytes or more have 8-byte
    words with the top bit set, which are negative as int64."""
    chars = "ab#!\x00\x01\x05\x08\x0e\x11\x1b\x7f"
    pool = ["\u00e9", "\u4e2d\u6587", "x\U0001f600", "!universe"]
    stems = ["\u00e9" * 5, "\u4e2d" * 3, "\u00e9" * 4 + "\u4e2d",
             "\u4e2d" * 5 + "\U0001f600"]
    for length in (1, 7, 8, 9, 15, 16, 17, 40):
        for _ in range(2):
            stems.append("".join(rng.choice(chars) for _ in range(length)))
    for stem in stems:
        pool += [stem, stem + "\x00", stem[:-1] + "z"]
    blanks = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
    blanks += [chr(c) for c in UNICODE_SPACES]
    lines = []
    for _ in range(rng.randint(1, 10)):
        toks = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.05:
            toks = []
        line = "".join(rng.choice(blanks) + tok for tok in toks)
        lines.append(line + rng.choice(blanks + [""]))
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def parsed_four_ways(text, path):
    """parse_family of text given as bytes, as a str, as a text file and
    as a binary file; a FamilyFormatError stands in for a family."""
    path.write_bytes(text.encode())
    got = []
    with open(path, encoding="utf-8") as text_file, \
            open(path, "rb") as binary_file:
        for source in (text.encode(), text, text_file, binary_file):
            try:
                got.append(parse_family(source))
            except FamilyFormatError as exc:
                got.append(exc)
    return got


def assert_parses_like_reference(text, path, want_text=None):
    """All four ways of parsing text give reference_parse(want_text)."""
    try:
        want = reference_parse(text if want_text is None else want_text)
    except FamilyFormatError as exc:
        want = exc
    for got in parsed_four_ways(text, path):
        assert type(got) is type(want), repr(text)
        if isinstance(want, FamilyFormatError):
            assert (got.line_no, str(got)) == (want.line_no, str(want))
            continue
        assert got.tokens == want.tokens, repr(text)
        assert got.elems.tolist() == want.elems.tolist(), repr(text)
        assert got.sizes.tolist() == want.sizes.tolist(), repr(text)


def test_parse_matches_reference_on_wide_tokens_and_whitespace(tmp_path):
    rng = seeded_rng(59)
    path = tmp_path / "family.txt"
    for _ in range(300):
        assert_parses_like_reference(wide_family_text(rng), path)


def lines_of(rng, pool, count=8):
    """A family text of count lines, each of 1 to 4 tokens from pool."""
    return "".join(" ".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
                   + "\n" for _ in range(count))


def long_token_texts():
    """Family texts of long tokens tied for many 8-byte words: copies of
    one token of 64 KB, long shared prefixes whose tails differ in the
    last byte, by a trailing NUL or only in length, and tied groups whose
    tails differ only after the word rounds stop."""
    rng = seeded_rng(61)
    big = "".join(rng.choice("abé") for _ in range(1 << 16))
    yield "copies_of_64k", "\n".join([big] * 6 + [big + " x"]) + "\n"
    for length in (9, 64, 1000, 20000):
        stem = "".join(rng.choice("ab\x01é") for _ in range(length))
        pool = [stem, stem[:-1] + "z", stem + "\x00", stem[:-1], stem + "a"]
        yield "prefix_%d" % length, lines_of(rng, pool)
    # each group is live through the rounds: its heads differ in the
    # first word, and its tails, past the last round, in one byte
    tail = "".join(rng.choice("ab") for _ in range(2000))
    for heads in (2, 3, 6):
        pool = []
        for head in ("%08d" % i for i in range(heads)):
            pool += [head + tail, head + tail[:-1] + "c",
                     head + tail[:1000] + "c" + tail[1001:]]
        yield "tied_groups_%d" % heads, lines_of(rng, pool, 2 * len(pool))


@pytest.mark.parametrize("text", [t for _, t in long_token_texts()],
                         ids=[i for i, _ in long_token_texts()])
def test_parse_matches_reference_on_long_tied_tokens(text, tmp_path):
    assert_parses_like_reference(text, tmp_path / "family.txt")
    # the tail of a token is a dict key, so a bytearray is read as bytes
    got, want = parse_family(bytearray(text.encode())), parse_family(text)
    assert (got.tokens, got.elems.tolist()) == (want.tokens,
                                                want.elems.tolist())


def test_long_tied_tokens_take_few_reads(monkeypatch):
    """Two equal 1 MB tokens take 3 reads of 8-byte words: one for every
    token's first word and two word rounds, since the rounds stop once
    no more tokens are live than rounds have run; the rest of their
    bytes is named in one dict."""
    reads = []
    reader = overlap.family._reader

    def counting_reader(data):
        read = reader(data)

        def counted(pos):
            reads.append(len(pos))
            return read(pos)
        return counted

    monkeypatch.setattr(overlap.family, "_reader", counting_reader)
    token = "ab" * (1 << 19)
    f = parse_family("%s\n%s x\n" % (token, token))
    assert len(reads) <= 3
    assert f.tokens == [token, "x"]
    assert f.sets == [[0], [0, 1]]


@pytest.mark.parametrize("code", UNICODE_SPACES)
def test_unicode_space_separates_and_blanks_a_line(code, tmp_path):
    path = tmp_path / "family.txt"
    space = chr(code)
    assert_parses_like_reference("a%sb\nb\n" % space, path)
    assert_parses_like_reference("a b\n%s\nb\n" % space, path)


def test_byte_order_mark_dropped_in_every_form(tmp_path):
    text = "\u00e9 b\nb c\u4e2d\n"
    assert_parses_like_reference("\ufeff" + text, tmp_path / "bom.txt",
                                 want_text=text)


def test_unicode_spaces_literal_is_str_split_whitespace():
    assert list(UNICODE_SPACES) == [
        c for c in range(128, 0x110000) if chr(c).isspace()]


def two_scan_token_bounds(b):
    """_token_bounds as it was: starts and ends found by two scans."""
    blank = np.ones(len(b) + 2, dtype=bool)
    blank[1:-1] = ((b >= 9) & (b <= 13)) | ((b >= 28) & (b <= 32))
    start = np.flatnonzero(blank[:-1] > blank[1:]).astype(np.int32)
    end = np.flatnonzero(blank[:-1] < blank[1:]).astype(np.int32)
    return start, end - start


def test_token_bounds_match_two_scans():
    rng = np.random.default_rng(17)
    alphabet = np.frombuffer(b" \t\n\r\x0b\x1c\x1fab#\x80\xe2", np.uint8)
    texts = [b"", b" ", b" \n\t\r ", b"a", b"  ab cd  ", b"\nab\ncd",
             b"ab cd\n", b"x y zz", "\u00e9t\u00e9 \u00e9".encode()]
    texts += [alphabet[rng.integers(0, len(alphabet), size)].tobytes()
              for size in rng.integers(0, 60, 300)]
    for data in texts:
        b = np.frombuffer(data, dtype=np.uint8)
        for got, want in zip(overlap.family._token_bounds(b),
                             two_scan_token_bounds(b)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


def test_parse_peak_memory_within_pipeline_peak():
    # parsing must not set a CLI call's peak memory: in one tracemalloc
    # session, the parse of a nested family, whose pipeline is light,
    # peaks no higher than the session does while the pipeline runs
    text = gen_nested(512)
    tracemalloc.start()
    try:
        f = parse_family(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_pipeline(f)
        pipeline_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_peak <= pipeline_peak


def assert_sorts_like_stable_argsort(key):
    order, sorted_key = sort_order(key)
    assert order.tolist() == np.argsort(key, kind="stable").tolist()
    assert sorted_key.tolist() == np.sort(key).tolist()


def count_passes(monkeypatch):
    """Patch sort_order's packed pass to count its calls; returns the
    list of the lengths it sorted."""
    calls = []
    packed_pass = overlap.family._packed_pass

    def counting(part, shift):
        calls.append(len(part))
        return packed_pass(part, shift)

    monkeypatch.setattr(overlap.family, "_packed_pass", counting)
    return calls


class TestSortOrder:

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_keys(self, dtype):
        rng = np.random.default_rng(5)
        info = np.iinfo(dtype)
        for n in (2, 3, 17, 100, 1000, 5000):
            for lo, hi in ((0, 2), (-3, 3), (0, 1000), (-10**6, 10**6),
                           (info.min, info.max)):
                assert_sorts_like_stable_argsort(
                    rng.integers(lo, hi, n, endpoint=True, dtype=dtype))

    def test_negative_sizes_as_lf_order_sorts_them(self):
        sizes = np.array([3, 1, 3, 2, 1, 3], dtype=np.int32)
        assert sort_order(-sizes)[0].tolist() == [0, 2, 5, 3, 1, 4]
        assert sort_order(-sizes)[1].tolist() == [-3, -3, -3, -2, -1, -1]

    def test_empty_single_and_all_equal(self):
        for key in (np.zeros(0, dtype=np.int64), np.array([-7]),
                    np.full(1000, 42, dtype=np.int32),
                    np.full(3, np.iinfo(np.int64).min)):
            assert_sorts_like_stable_argsort(key)

    def test_heavy_ties(self):
        rng = np.random.default_rng(6)
        for n in (50, 4096, 100000):
            assert_sorts_like_stable_argsort(rng.integers(0, 4, n))
            assert_sorts_like_stable_argsort(
                rng.choice([-2**62, 0, 2**62], n))

    @pytest.mark.parametrize("n, index_bits", [(8, 3), (9, 4), (1024, 10),
                                               (1025, 11)])
    @pytest.mark.parametrize("width", [63, 64])
    def test_both_sides_of_63_bits(self, monkeypatch, n, index_bits, width):
        """A key span of width - index_bits bits takes one packed pass at
        63 bits and two at 64. The middle key's offset is odd, so no low
        bit can be dropped."""
        span = 1 << (width - index_bits - 1)  # bit length width - index_bits
        rng = np.random.default_rng(n + width)
        low = -2**40
        middle = low + (span // 3 | 1)
        key = rng.choice([low, middle, low + span], n)
        key[:3] = low + span, low, middle
        calls = count_passes(monkeypatch)
        order, sorted_key = sort_order(key)
        assert calls == ([n] if width == 63 else [n, n])
        monkeypatch.undo()
        assert order.tolist() == np.argsort(key, kind="stable").tolist()
        assert sorted_key.tolist() == np.sort(key).tolist()

    @pytest.mark.parametrize("zeros, high", [(13, 49), (14, 49), (21, 42),
                                             (40, 23)])
    def test_shared_low_zero_bits_take_one_pass(self, monkeypatch, zeros,
                                                high):
        """Keys whose differences from the smallest all end in zeros zero
        bits sort in one packed pass, though their span and the index
        need more than 63 bits; from zeros = 14 on, the span wraps past
        2**63."""
        n = 5000
        top = 2**high
        rng = np.random.default_rng(zeros)
        key = rng.integers(-top, top, n) * 2**zeros + 12345
        key[:2] = (top - 1) * 2**zeros + 12345, -top * 2**zeros + 12345
        span = int(key.max()) - int(key.min())
        assert span.bit_length() + (n - 1).bit_length() > 63
        assert (span >= 2**63) == (zeros >= 14)
        calls = count_passes(monkeypatch)
        order, sorted_key = sort_order(key)
        assert calls == [n]
        monkeypatch.undo()
        assert order.tolist() == np.argsort(key, kind="stable").tolist()
        assert sorted_key.tolist() == np.sort(key).tolist()

    def test_two_passes_on_full_int64_range(self, monkeypatch):
        rng = np.random.default_rng(7)
        key = rng.choice(np.array([np.iinfo(np.int64).min, -1, 0,
                                   np.iinfo(np.int64).max]), 3000)
        calls = count_passes(monkeypatch)
        order, sorted_key = sort_order(key)
        assert calls == [3000, 3000]
        monkeypatch.undo()
        assert order.tolist() == np.argsort(key, kind="stable").tolist()
        assert sorted_key.tolist() == np.sort(key).tolist()

    def test_uint64_words_viewed_as_int64(self):
        """The 8-byte words the parse sorts: those at or above 2**63 view
        as negative int64."""
        rng = np.random.default_rng(8)
        for n in (2, 9, 1000, 5000):
            words = rng.integers(0, 2**64, n, dtype=np.uint64)
            words[:2] = 2**63, 2**64 - 1
            assert_sorts_like_stable_argsort(words.view(np.int64))
            tied = rng.choice(words[:4], n)
            assert_sorts_like_stable_argsort(tied.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3),
                    max_size=60))
    def test_any_int64_keys(self, values):
        assert_sorts_like_stable_argsort(np.array(values, dtype=np.int64))


def assert_names_runs(key):
    """sort_groups names each key by the rank of its value among the
    distinct values, which it returns, and the names step up by one
    exactly at each run."""
    order, distinct, new, name = sort_groups(key)
    assert distinct.tolist() == np.unique(key).tolist()
    assert name.dtype == np.int32
    assert name.tolist() == np.unique(key, return_inverse=True)[1].tolist()
    assert np.diff(name[order], prepend=-1).tolist() == new.tolist()


class TestSortGroups:

    def test_random_keys_with_ties(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 17, 1000, 5000):
            for lo, hi in ((0, 1), (-5, 5), (-10**12, -10**12 + 40)):
                assert_names_runs(rng.integers(lo, hi, n, endpoint=True))

    def test_full_int64_range_in_two_passes(self, monkeypatch):
        rng = np.random.default_rng(10)
        key = rng.choice(np.array([np.iinfo(np.int64).min, -1, 0, 5,
                                   np.iinfo(np.int64).max]), 3000)
        calls = count_passes(monkeypatch)
        assert_names_runs(key)
        assert calls == [3000, 3000]

    def test_one_key_and_none(self):
        for key in (np.array([-7]), np.array([np.iinfo(np.int64).max]),
                    np.zeros(0, dtype=np.int64)):
            assert_names_runs(key)
