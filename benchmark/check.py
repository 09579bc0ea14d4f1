"""Checks on the output of ``overlap forest --json``.

``check_payload`` runs at full size in linear-ish time and needs nothing
from the package: it re-reads the input text and tests every claim the
output makes that can be tested locally. ``oracle_problems`` compares a
small instance exactly against ``overlap.oracle``. ``self_test`` shows
that a corrupted result fails both, so a checker that passes everything
cannot go unnoticed.
"""

import json
import types

__all__ = ["read_sets", "check_payload", "oracle_problems", "self_test"]

MAX_REPORTED = 5


def read_sets(text):
    """Set i of the input is line i, as a frozenset of its tokens."""
    return [frozenset(line.split()) for line in text.splitlines()]


def _overlaps(a, b):
    k = len(a & b)
    return 0 < k < len(a) and k < len(b)


def check_payload(sets, payload, block_width=None, nested=False):
    """Problems found in a parsed ``forest --json`` payload; [] when sound.

    Tested: every subgraph edge is a true overlap; every Max(X) overlaps X
    and is at least as large; the classes partition the sets; every tree
    has |class| - 1 edges, all subgraph edges, with no cycle; the forest
    members equal the classes (the CLI takes the classes from the helper
    graph's labeling and the trees from the subgraph, so the two are
    derived independently). With block_width, no class spans two blocks
    of that many consecutive elements; with nested, there are no edges,
    no Max and m singleton classes.
    """
    out = []
    m = len(sets)

    def index(v):
        if type(v) is not int or not 1 <= v <= m:
            raise ValueError("set label %r out of range" % (v,))
        return v - 1

    try:
        classes = [[index(v) for v in c] for c in payload["classes"]]
        maxes = [None if v is None else index(v) for v in payload["max"]]
        edges = [(index(a), index(b)) for a, b in payload["edges"]]
        trees = [(index(t["root"]),
                  [(index(a), index(b)) for a, b in t["edges"]])
                 for t in payload["forest"]]
    except (KeyError, TypeError, ValueError) as exc:
        return ["malformed output: %s" % exc]

    edge_set = set(edges)
    if len(edge_set) != len(edges):
        out.append("duplicate subgraph edges")
    for a, b in edges:
        if not a < b:
            out.append("edge X%d X%d is not ordered" % (a + 1, b + 1))
        elif not _overlaps(sets[a], sets[b]):
            out.append("edge X%d X%d is not an overlap" % (a + 1, b + 1))

    if len(maxes) != m:
        out.append("max has %d entries for %d sets" % (len(maxes), m))
        maxes = maxes[:m]
    for x, y in enumerate(maxes):
        if y is None:
            continue
        if not _overlaps(sets[x], sets[y]):
            out.append("Max(X%d) = X%d does not overlap it" % (x + 1, y + 1))
        elif len(sets[y]) < len(sets[x]):
            out.append("Max(X%d) = X%d is smaller" % (x + 1, y + 1))

    seen = sorted(v for c in classes for v in c)
    if seen != list(range(m)):
        out.append("classes do not partition the %d sets" % m)

    parent = list(range(m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    members = []
    for root, tree in trees:
        nodes = {root}
        for a, b in tree:
            nodes.add(a)
            nodes.add(b)
            if (a, b) not in edge_set:
                out.append("tree edge X%d X%d is not a subgraph edge"
                           % (a + 1, b + 1))
            ra, rb = find(a), find(b)
            if ra == rb:
                out.append("tree of X%d has a cycle" % (root + 1))
            parent[ra] = rb
        if len(tree) != len(nodes) - 1:
            out.append("tree of X%d has %d edges for %d sets"
                       % (root + 1, len(tree), len(nodes)))
        members.append(frozenset(nodes))
    if len(members) != len(classes) or \
            set(members) != set(map(frozenset, classes)):
        out.append("forest members differ from the classes")

    if block_width is not None:
        def block(x):
            return {int(tok[1:]) // block_width for tok in sets[x]}
        for c in classes:
            blocks = set().union(*map(block, c))
            if len(blocks) > 1:
                out.append("class of X%d spans blocks %s"
                           % (min(c) + 1, sorted(blocks)[:4]))
    if nested:
        if edges:
            out.append("nested family has %d edges" % len(edges))
        if any(y is not None for y in maxes):
            out.append("nested family has a Max")
        if len(classes) != m:
            out.append("nested family has %d classes for %d sets"
                       % (len(classes), m))
    return out[:MAX_REPORTED] + ["..."] * (len(out) > MAX_REPORTED)


def oracle_problems(text, payload):
    """Exact comparison of classes and Max against ``overlap.oracle``."""
    from overlap.family import parse_family
    from overlap.oracle import max_oracle, overlap_graph_full

    f = parse_family(text)
    # Large-first order by stable sort, independent of the package's own.
    lf = types.SimpleNamespace(
        order=sorted(range(f.m), key=lambda i: -len(f.sets[i])))
    want_classes = overlap_graph_full(f).labeling.as_partition()
    want_max = max_oracle(f, lf).values
    got_classes = {frozenset(v - 1 for v in c) for c in payload["classes"]}
    got_max = [None if v is None else v - 1 for v in payload["max"]]
    out = []
    if got_classes != want_classes:
        out.append("classes differ from the oracle")
    if got_max != want_max:
        out.append("Max differs from the oracle at %d sets" % sum(
            a != b for a, b in zip(got_max, want_max)))
    return out


def self_test(sets, text, payload):
    """Problems with the checker itself: a corruption it failed to flag.

    Two corruptions of a sound small result: one extra edge between sets
    that do not overlap, and one Max pointing at a set that does not
    overlap its owner.
    """
    m = len(sets)
    pair = next(((a, b) for a in range(m) for b in range(a + 1, m)
                 if not _overlaps(sets[a], sets[b])), None)
    if pair is None:
        return ["no non-overlapping pair to corrupt with"]
    a, b = pair
    out = []

    bad_edge = json.loads(json.dumps(payload))
    bad_edge["edges"].append([a + 1, b + 1])
    if not check_payload(sets, bad_edge):
        out.append("checker accepted a non-overlap edge")

    bad_max = json.loads(json.dumps(payload))
    bad_max["max"][a] = b + 1
    if not check_payload(sets, bad_max):
        out.append("checker accepted a non-overlapping Max")
    if not oracle_problems(text, bad_max):
        out.append("oracle comparison accepted a wrong Max")
    return out
