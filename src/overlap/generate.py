"""Family instance generators. All output is deterministic for a fixed seed."""

import random

__all__ = ["gen_star", "gen_nested", "gen_random", "gen_random_lines",
           "gen_random_sets", "gen_blocks"]


def gen_star(m):
    """m two-element sets all sharing one hub element: the overlap graph is
    complete with m(m-1)/2 edges while |F| stays at 2m."""
    if m < 1:
        raise ValueError("star needs m >= 1")
    return "".join("x1 x%d\n" % (i + 2) for i in range(m))


def gen_nested(k):
    """A chain of k strictly nested sets; nothing overlaps anything."""
    if k < 1:
        raise ValueError("nested needs k >= 1")
    lines = []
    for i in range(1, k + 1):
        lines.append(" ".join("x%d" % j for j in range(1, i + 1)))
    return "\n".join(lines) + "\n"


def gen_random_sets(n, m, seed, min_size=1, max_size=None):
    """The index lists behind gen_random, without the text round trip.

    They come as an iterator, drawn one at a time, so a family far larger
    than memory can be streamed; the settings are checked at the call.
    """
    if n < 1 or m < 1:
        raise ValueError("random needs n >= 1 and m >= 1")
    hi = n if max_size is None else min(max_size, n)
    lo = min(min_size, hi)
    if lo < 1:
        raise ValueError("random needs set sizes of at least 1")
    rng = random.Random(seed)
    pool = range(n)
    return (rng.sample(pool, rng.randint(lo, hi)) for _ in range(m))


def gen_random_lines(n, m, seed, min_size=1, max_size=None):
    """The lines of gen_random's text, drawn one at a time."""
    return (" ".join("e%d" % e for e in s) + "\n"
            for s in gen_random_sets(n, m, seed, min_size, max_size))


def gen_random(n, m, seed, min_size=1, max_size=None):
    """m sets over n elements with sizes uniform in [min_size, max_size]."""
    return "".join(gen_random_lines(n, m, seed, min_size, max_size))


def gen_blocks(n, m, blocks, seed):
    """Sets confined to disjoint universe blocks; classes cannot span blocks."""
    if blocks < 1 or n < blocks or m < 1:
        raise ValueError("blocks needs 1 <= blocks <= n and m >= 1")
    rng = random.Random(seed)
    per = n // blocks
    lines = []
    for _ in range(m):
        b = rng.randrange(blocks)
        lo = b * per
        width = per if b < blocks - 1 else n - lo
        size = rng.randint(1, max(1, min(width, 8)))
        elems = rng.sample(range(lo, lo + width), size)
        lines.append(" ".join("e%d" % e for e in elems))
    return "\n".join(lines) + "\n"
