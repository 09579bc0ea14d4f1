import itertools
import os
import random
from pathlib import Path

import pytest

from overlap.family import parse_family

# pyproject.toml puts src/ on the tests' own path; the interpreters they
# start (python -m overlap, overlap bench's instances) find it through
# PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))


FAM_A_TEXT = "1 2\n2 3\n3 4\n1 2 3 4\n"


@pytest.fixture
def fam_a():
    return parse_family(FAM_A_TEXT)


def make_family(*sets, universe=()):
    """The family of the sets of labels, through the text format.

    Labels are written with str and numbered in order of first
    appearance, a repeat within a set is dropped, and universe names
    elements that may appear in no set; its !universe line comes last so
    that it numbers only the labels no set has.
    """
    lines = [" ".join(map(str, s)) for s in sets]
    if universe:
        lines.append(" ".join(map(str, ["!universe", *universe])))
    return parse_family("\n".join(lines) + "\n")


def random_family(rng, max_n=40, max_m=60):
    """One random family with mixed densities."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    cap = min(n, rng.choice([2, 3, 5, 8, n]))
    sets = []
    for _ in range(m):
        size = rng.randint(1, cap)
        sets.append(rng.sample(range(n), size))
    return make_family(*sets, universe=range(n))


def exhaustive_families(max_n=4, max_m=3):
    """Every family of up to max_m distinct non-empty sets over <= max_n elements."""
    for n in range(1, max_n + 1):
        subsets = []
        for size in range(1, n + 1):
            subsets.extend(itertools.combinations(range(n), size))
        for m in range(1, max_m + 1):
            for combo in itertools.combinations(subsets, m):
                yield make_family(*combo, universe=range(n))


def seeded_rng(seed=20260826):
    return random.Random(seed)
