"""The three benchmark family shapes, each built from a seed.

The generators are copies of the ones in ``overlap.generate`` (same
random calls, so the same seed gives the same family), kept here so a
change to the package cannot change the benchmark's inputs: the parent
commit and a change are always measured on identical files.

Every workload has |F| of about 2^19, so time per element of |F|
compares across them, and a small variant (m <= 1024) of the same
generator that the quadratic oracle can check exactly.
"""

import random

__all__ = ["WORKLOADS", "Workload"]


def _random_sets(n, m, seed, min_size, max_size):
    rng = random.Random(seed)
    pool = range(n)
    return [rng.sample(pool, rng.randint(min_size, max_size))
            for _ in range(m)]


def _blocks_sets(n, m, blocks, seed):
    rng = random.Random(seed)
    per = n // blocks
    sets = []
    for _ in range(m):
        b = rng.randrange(blocks)
        lo = b * per
        width = per if b < blocks - 1 else n - lo
        size = rng.randint(1, max(1, min(width, 8)))
        sets.append(rng.sample(range(lo, lo + width), size))
    return sets


def _nested_sets(k, seed):
    sets = [list(range(1, i + 1)) for i in range(1, k + 1)]
    random.Random(seed).shuffle(sets)
    return sets


def _text(sets, prefix):
    return "".join(" ".join("%s%d" % (prefix, e) for e in s) + "\n"
                   for s in sets)


class Workload:
    """A family shape: full-size and small text for a seed, plus the
    shape's structural facts the output checker asserts."""

    def __init__(self, name, full, small, facts):
        self.name = name
        self._full = full
        self._small = small
        self.facts = facts  # keyword arguments for check.check_payload

    def text(self, seed, small=False):
        return (self._small if small else self._full)(seed)


def _giant(n, m):
    return lambda seed: _text(_random_sets(n, m, seed, 2, 14), "e")


def _blocks(n, m, blocks):
    return lambda seed: _text(_blocks_sets(n, m, blocks, seed), "e")


def _nested(k):
    return lambda seed: _text(_nested_sets(k, seed), "x")


WORKLOADS = {
    w.name: w for w in [
        # One overlap class; loads every layer, with a large JSON output.
        # The `overlap bench` family at 2^19. Run by hand for the ROADMAP
        # baseline: BENCHMARK.json leaves it out, because blocks loads the
        # same layers and two workloads leave room for longer, steadier runs.
        Workload("giant", _giant(2 ** 15, 2 ** 16), _giant(2 ** 9, 2 ** 10),
                 {}),
        # About 41k small classes inside 8-element blocks: components, the
        # forest and many short class lists show.
        Workload("blocks", _blocks(2 ** 16, 2 ** 17, 2 ** 13),
                 _blocks(2 ** 9, 2 ** 10, 2 ** 6), {"block_width": 8}),
        # Nothing overlaps: refinement dominates, graph stages and output idle.
        Workload("nested", _nested(1024), _nested(64), {"nested": True}),
    ]
}
