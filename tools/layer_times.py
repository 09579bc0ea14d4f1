"""Time each layer of the pipeline on one family file, in this process.

    python3 tools/layer_times.py FILE [--repeats N]

reads FILE's bytes once, then runs every layer on them N times (default
7), each run on the outputs of the layers before it in the same run,
and prints two lines: the column names and, below them, each layer's
best time of the N runs in seconds, as a row of a Markdown table. The
columns are the parse of the bytes, the orders (LF order and SL lists),
the three passes that compute Max (pass 1, bounds, pass 3), the
subgraph stage in its three parts (covers: the covers and the base
edges and quintuples made from them; resolve: the membership tests;
dedup: the edges' sort and deduplication), the spanning forest, and the
JSON out of ``overlap forest --json``. The package is taken from src/
next to this directory.
"""

import argparse
import io
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from overlap.cli import _write_json  # noqa: E402
from overlap.dgraph import (SetGraph, dedup_sorted_pairs,  # noqa: E402
                            spanning_forest)
from overlap.family import build_sl_lists, lf_order, parse_family  # noqa: E402
from overlap.maxcomp import (compute_bounds, compute_max,  # noqa: E402
                             compute_pf)
from overlap.pipeline import PipelineResult  # noqa: E402
from overlap.subgraph import _collect, _resolve  # noqa: E402

COLUMNS = ("parse", "orders", "pass 1", "bounds", "pass 3", "covers",
           "resolve", "dedup", "forest", "JSON out")


def run_layers(data):
    """One run of every layer on the family bytes: the seconds of each."""
    times = []
    last = time.perf_counter()

    def lap():
        nonlocal last
        now = time.perf_counter()
        times.append(now - last)
        last = now

    f = parse_family(data)
    lap()
    lf = lf_order(f)
    sl = build_sl_lists(f, lf)
    lap()
    pf = compute_pf(f, lf, sl)
    lap()
    bounds = compute_bounds(f, pf)
    lap()
    maxes = compute_max(f, lf, pf, bounds)
    lap()
    ea, eb, qx, qy = _collect(f, sl, maxes)
    lap()
    ra, rb = _resolve(pf, sl, bounds, maxes, qx, qy)
    lap()
    a, b = dedup_sorted_pairs(np.concatenate((ea, ra)),
                              np.concatenate((eb, rb)), f.m)
    sub = SetGraph(f.m, a, b, len(ea) + len(ra))
    lap()
    forest = spanning_forest(sub)
    lap()
    _write_json(PipelineResult(f, lf, sl, maxes, sub, forest, {}), True,
                io.StringIO())
    lap()
    return times


def layer_times(data, repeats):
    """Per column, the best time of repeats runs of run_layers."""
    runs = [run_layers(data) for _ in range(repeats)]
    return [min(col) for col in zip(*runs)]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Best-of-N time of each pipeline layer on one file.")
    parser.add_argument("file")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    best = layer_times(Path(args.file).read_bytes(), args.repeats)
    print("| " + " | ".join(COLUMNS) + " |")
    print("| " + " | ".join("%.4f" % t for t in best) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
