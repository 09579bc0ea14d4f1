"""Command-line front end.

Subcommands: classes, max, subgraph, forest, verify, gen, bench.
Exit codes: 0 ok, 1 verify mismatch, 2 input error, 3 oracle cap exceeded,
4 out of memory.
"""

import argparse
import gc
import json
import signal
import subprocess
import sys
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .dgraph import UnionFind
from .family import (FamilyFormatError, SetFamily, build_sl_lists,
                     parse_family)
from .generate import (gen_blocks, gen_nested, gen_random_lines,
                       gen_random_sets, gen_star)
from .oracle import (OracleCapExceeded, max_oracle, overlap_graph_full,
                     overlaps)
from .pipeline import LAYERS, run_pipeline

__all__ = ["main", "entry", "bench_rows", "render", "verify_result"]

# the timed columns of a bench row: run_pipeline's layer times and total
BENCH_STAGES = LAYERS + ("total",)
BENCH_HEADER = ",".join(("total_size",) + BENCH_STAGES + ("ratio",))
BENCH_SECONDS = 2.0
RENDER_PLACES = 1 << 15


def _label(i):
    """Set i's name in a report; none for no set."""
    return "none" if i is None else "X%d" % (i + 1)


def _fail(exc, code):
    """Report the error exc on stderr and exit with code (2 for a bad
    input or setting)."""
    print("error: %s" % exc, file=sys.stderr)
    raise SystemExit(code)


def _load(path):
    """The family in the file at path. The parse reads the file itself,
    so it can free the text before it ends."""
    try:
        with open(path, "rb") as fh:
            return parse_family(fh)
    except (OSError, UnicodeDecodeError, FamilyFormatError) as exc:
        _fail(exc, 2)


def render(templates, code, *cols):
    """The text of templates[code[k]] % (cols[0][k], cols[1][k], ...) for
    every place k, with no Python object made per number.

    A template holds only %d directives and no NUL; it may use fewer
    numbers than there are columns, and a column that a place's template
    does not use must hold 0 there. Values are final (written as given),
    non-negative and below 2**31. code may be None for one template.

    Each place is a fixed-width row of bytes: literal field 0, the digits
    of column 0, literal field 1, ..., the last literal field. A literal
    field is as wide as the longest literal any template puts there, a
    digit field as wide as the digits of its column's maximum. The rows
    are gathered from a table of the templates, whose units digits hold
    "0"; the digits are written one place value at a time, a leading zero
    as NUL, and one bytes.translate drops every NUL. Places go
    RENDER_PLACES at a time, so the rows stay small.
    """
    if not len(cols[0]):
        return ""
    pieces = [t.split("%d") for t in templates]
    lit_w = [max(len(lits[j]) if j < len(lits) else 0 for lits in pieces)
             for j in range(len(cols) + 1)]
    dig_w = [len(str(int(c.max()))) for c in cols]
    # where literal field j starts; column j's units digit is just before
    # literal field j + 1
    at = np.cumsum([0] + [lw + dw for lw, dw in zip(lit_w, dig_w)])
    tab = np.zeros((len(pieces), at[-1] + lit_w[-1]), dtype=np.uint8)
    for t, lits in enumerate(pieces):
        for j, lit in enumerate(lits):
            tab[t, at[j]:at[j] + len(lit)] = list(lit.encode("ascii"))
        tab[t, at[1:len(lits)] - 1] = ord("0")
    if code is None:
        code = np.zeros(len(cols[0]), dtype=np.int8)
    parts = []
    for s in range(0, len(code), RENDER_PLACES):
        rows = np.take(tab, code[s:s + RENDER_PLACES], axis=0)
        for col, units, width in zip(cols, at[1:] - 1, dig_w):
            q = col[s:s + RENDER_PLACES]
            for p in range(width):
                nq = q // 10
                d = q - nq * 10
                if p:
                    d += ord("0")
                    d *= q > 0
                    rows[:, units - p] = d
                else:
                    np.add(rows[:, units], d, out=rows[:, units],
                           casting="unsafe")
                q = nq
        parts.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(parts).decode("ascii")


def _numbers(m):
    """The set numbers 1 to m."""
    return np.arange(1, m + 1, dtype=np.int32)


def _group_code(first, last, places):
    """Per place of groups laid out one after another, given each group's
    first and last place: 0 a first place with more after it, 1 a group's
    only place, 2 a place inside and 3 a last place after the first."""
    code = np.full(places, 2, dtype=np.int8)
    code[last] = 3
    code[first] = first == last
    return code


def _trees(res, templates):
    """The forest, each tree its root then its edges, 1-based; templates
    are those of a root with edges, a root alone, an edge and a tree's
    last edge."""
    fo = res.forest
    count = np.diff(fo.edge_start)
    first = fo.edge_start[:-1] + np.arange(len(count), dtype=np.int32)
    code = _group_code(first, first + count, res.family.m)
    a = np.zeros(len(code), dtype=np.int32)
    b = np.zeros(len(code), dtype=np.int32)
    edge = code > 1
    a[first] = fo.order[fo.start[:-1]] + 1
    a[edge] = fo.a + 1
    b[edge] = fo.b + 1
    return render(templates, code, a, b)


def _write_json(res, with_forest, out):
    """Classes, Max, subgraph edges and, with_forest, the trees as one JSON
    object with 1-based set numbers, rendered straight from the result
    arrays; the bytes are those of json.dumps with (", ", ": ")."""
    lab = res.labeling
    mx = res.maxes.partners
    out.write('{"classes": [')
    # each class as its root, the smallest member, then the others
    out.write(render(("[%d, ", "[%d], ", "%d, ", "%d], "),
                     _group_code(lab.start[:-1], lab.start[1:] - 1,
                                 len(lab.order)),
                     lab.order + 1)[:-2])
    out.write('], "max": [')
    out.write(render(("%d, ", "null, "), mx < 0, mx + 1)[:-2])
    out.write('], "edges": [')
    out.write(render(("[%d, %d], ",), None, res.subgraph.a + 1,
                     res.subgraph.b + 1)[:-2])
    if with_forest:
        out.write('], "forest": [')
        out.write(_trees(res, ('{"root": %d, "edges": [',
                               '{"root": %d, "edges": []}, ',
                               "[%d, %d], ", "[%d, %d]]}, "))[:-2])
    out.write("]}\n")


def _write_text(res, command, out):
    """The text format of command: each set's class, each set's Max, the
    subgraph's edges or the forest's trees, 1-based."""
    if command == "classes":
        class_id = res.labeling.class_id
        out.write(render(("X%d %d\n",), None, _numbers(len(class_id)),
                         class_id))
    elif command == "max":
        mx = res.maxes.partners
        # each set, then its Max unless it has none (-1)
        out.write(render(("X%d -> X%d\n", "X%d -> none\n"), mx < 0,
                         _numbers(len(mx)), mx + 1))
    elif command == "subgraph":
        out.write(render(("X%d X%d\n",), None, res.subgraph.a + 1,
                         res.subgraph.b + 1))
    else:
        out.write(_trees(res, ("tree X%d: ", "tree X%d: \n", "X%d-X%d ",
                               "X%d-X%d\n")))


def _write_dot(res, command, out):
    """The subgraph or, for command forest, the forest as a DOT graph."""
    if command == "subgraph":
        name, g = "overlap_subgraph", res.subgraph
    else:
        name, g = "spanning_forest", res.forest
    out.write("graph %s {\n" % name)
    out.write(render(("  X%d;\n",), None, _numbers(res.family.m)))
    out.write(render(("  X%d -- X%d;\n",), None, g.a + 1, g.b + 1))
    out.write("}\n")


def cmd_family(args, out):
    """classes, max, subgraph and forest: load, run, then write the result
    as DOT, JSON or the command's text format."""
    res = run_pipeline(_load(args.file))
    if args.dot:
        _write_dot(res, args.command, out)
    elif args.json:
        _write_json(res, args.command == "forest", out)
    else:
        _write_text(res, args.command, out)
    return 0


def verify_result(res, full, oracle_max):
    """Compare a pipeline result against the oracle; returns (ok, report lines).

    Each of the four checks lists its faults. Its section of the report
    is "name: <ok text>" when it has none, else "name: MISMATCH" and
    the fault lines; ok means no check has a fault.
    """
    fast = res.labeling.as_partition()
    slow = full.labeling.as_partition()
    class_faults = []
    for side, extra in (("fast", fast - slow), ("oracle", slow - fast)):
        class_faults += ["  %s only: {%s}" % (side, ", ".join(map(_label, c)))
                         for c in sorted(map(sorted, extra))]

    max_faults = ["  %s: fast %s oracle %s" % (_label(i), _label(a), _label(b))
                  for i, (a, b) in enumerate(zip(res.maxes.values,
                                                 oracle_max.values))
                  if a != b]

    # every subgraph edge is a pair the oracle's predicate finds
    # overlapping
    sets = res.family.as_frozensets()
    edges = res.subgraph.edges
    edge_faults = ["  non-overlap edge %s %s" % (_label(a), _label(b))
                   for a, b in edges if not overlaps(sets[a], sets[b])]

    # each tree spans its class: |class| - 1 subgraph edges inside it, each
    # joining two parts not yet joined (the classes are disjoint, so one
    # union-find serves every tree)
    in_subgraph = set(edges)
    uf = UnionFind(res.family.m)
    forest = res.forest
    class_id = forest.class_id.tolist()
    tree_faults = ["  bad tree of %s" % _label(root)
                   for k, (root, members, tree) in enumerate(zip(
                       forest.roots, forest.members, forest.tree_edges))
                   if len(tree) != len(members) - 1
                   or not all(class_id[a] == class_id[b] == k
                              and (a, b) in in_subgraph and uf.union(a, b)
                              for a, b in tree)]

    checks = (("classes", "ok (%d classes)" % len(slow), class_faults),
              ("max", "ok", max_faults),
              ("subgraph", "ok (%d edges, all overlaps)" % len(edges),
               edge_faults),
              ("forest", "ok (%d trees)" % len(forest.roots), tree_faults))
    lines = []
    for check, ok_text, faults in checks:
        lines.append("%s: %s" % (check, "MISMATCH" if faults else ok_text))
        lines.extend(faults)
    return not any(faults for _, _, faults in checks), lines


def cmd_verify(args, out):
    f = _load(args.file)
    try:
        full = overlap_graph_full(f)
    except OracleCapExceeded as exc:
        _fail(exc, 3)
    except ValueError as exc:  # OVERLAP_ORACLE_CAP is not an integer
        _fail(exc, 2)
    res = run_pipeline(f)
    # the oracle's own large-first order: a stable sort by decreasing size
    sizes = f.sizes.tolist()
    lf = SimpleNamespace(order=sorted(range(f.m), key=lambda i: -sizes[i]))
    ok, lines = verify_result(res, full, max_oracle(f, lf))
    for line in lines:
        out.write(line + "\n")
    out.write("PASS\n" if ok else "FAIL\n")
    return 0 if ok else 1


def cmd_gen(args, out):
    try:
        if args.kind == "star":
            chunks = [gen_star(args.m)]
        elif args.kind == "nested":
            chunks = [gen_nested(args.k)]
        elif args.kind == "random":
            # one set at a time: the whole text can be far larger than memory
            chunks = gen_random_lines(args.n, args.m, args.seed,
                                      max_size=args.max_size)
        else:
            chunks = [gen_blocks(args.n, args.m, args.blocks, args.seed)]
    except ValueError as exc:
        _fail(exc, 2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            _fail(exc, 2)
    else:
        out.writelines(chunks)
    return 0


def bench_one(target, seed):
    """Time one random instance of roughly |F| = target.

    The target maps to about target/8 sets of mean size 8. GC is paused
    around the timed runs to keep the numbers honest. The run is repeated
    at least twice and until the runs have taken BENCH_SECONDS in all,
    and the mean time per run is kept: on a shared host the core's speed
    swings from one fraction of a second to the next, so the fastest of a
    few runs mostly measures the luckiest spell, and how lucky differs
    from one instance to the next. The family's presorted SL keys are
    taken (build_sl_lists) before the first run, so every run sorts them.
    Returns the mean of each entry of run_pipeline's times (every layer
    and the total) plus the instance's exact total size.
    """
    m = max(1, target // 8)
    n = max(4, m // 2)
    sets = list(gen_random_sets(n, m, seed, min_size=2, max_size=14))
    f = SetFamily(["e%d" % i for i in range(n)],
                  np.fromiter(chain.from_iterable(sets), dtype=np.int32),
                  np.fromiter(map(len, sets), dtype=np.int32, count=m))
    del sets
    build_sl_lists(f)  # takes the constructor's keys: every run sorts
    sums = {}
    runs = 0
    gc.collect()
    gc.disable()
    try:
        while runs < 2 or sums["total"] < BENCH_SECONDS:
            for k, v in run_pipeline(f).times.items():
                sums[k] = sums.get(k, 0.0) + v
            runs += 1
    finally:
        gc.enable()
    mean = {k: v / runs for k, v in sums.items()}
    mean["total_size"] = f.total_size
    return mean


def bench_rows(sizes, seed):
    """Run the pipeline on random instances of the requested |F| targets.

    Returns one row per instance with bench_one's times and the ratio of
    consecutive total times (empty for the first row). Each instance
    runs in a fresh interpreter, so no allocator or cache state leaks
    from one measurement into the next. A child that fails raises
    subprocess.CalledProcessError with its stderr; one out of memory
    exits 4.
    """
    script = ("import json, sys; from overlap.cli import bench_one as run\n"
              "try: json.dump(run(*map(int, sys.argv[1:])), sys.stdout)\n"
              "except MemoryError:\n"
              "    sys.stderr.write('out of memory\\n'); sys.exit(4)")
    rows = []
    prev_total = None
    for target in sizes:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(target), str(seed)],
            capture_output=True, text=True)
        proc.check_returncode()
        t = json.loads(proc.stdout)
        t["ratio"] = "%.3f" % (t["total"] / prev_total) if prev_total else ""
        prev_total = t["total"]
        rows.append(t)
    return rows


def cmd_bench(args, out):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        _fail(exc, 2)
    if min(sizes, default=0) < 1:
        _fail("--sizes needs positive targets: %r" % args.sizes, 2)
    try:
        rows = bench_rows(sizes, args.seed)
    except subprocess.CalledProcessError as exc:
        # the child's last stderr line: its error or the end of its
        # traceback; a child killed by a signal exits negative, silent
        last = exc.stderr.strip() or "exit status %d" % exc.returncode
        _fail(last.splitlines()[-1], max(exc.returncode, 1))
    row = "%%(total_size)d,%s,%%(ratio)s\n" % ",".join(
        "%%(%s).6f" % k for k in BENCH_STAGES)
    out.write(BENCH_HEADER + "\n")
    out.writelines(row % r for r in rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="overlap",
        description="Identify overlap classes of a set family in linear time.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
            ("classes", "overlap class of every set"),
            ("max", "Max partner of every set"),
            ("subgraph", "linear-size subgraph of the overlap graph"),
            ("forest", "spanning forest of the overlap classes")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="family input file")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output")
        if name in ("subgraph", "forest"):
            fmt.add_argument("--dot", action="store_true", help="DOT output")
        p.set_defaults(func=cmd_family, dot=False)

    p = sub.add_parser("verify", help="differential check against the brute-force oracle")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a family file")
    p.add_argument("kind", choices=["star", "nested", "random", "blocks"])
    p.add_argument("--m", type=int, default=10, help="number of sets")
    p.add_argument("--n", type=int, default=20, help="universe size")
    p.add_argument("--k", type=int, default=3, help="chain length (nested)")
    p.add_argument("--blocks", type=int, default=2, help="block count (blocks)")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="per-layer wall times over growing instances")
    p.add_argument("--sizes",
                   default="131072,262144,524288,1048576,2097152,4194304",
                   help="comma-separated |F| targets")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None, out=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out if out is not None else sys.stdout)
    except SystemExit as exc:
        return exc.code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4


def entry():
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (overlap ... | head) ends the run
        # quietly, as it ends cat, instead of a BrokenPipeError traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
