"""Time each layer of the pipeline on one family file, in this process.

    python3 tools/layer_times.py FILE [--repeats N]

reads FILE's bytes once, then N times (default 7) parses them, runs
run_pipeline on the family and writes the JSON of ``overlap forest
--json`` to memory. It prints two lines: the column names and, below
them, each column's best time of the N runs in seconds, as a row of a
Markdown table. The columns are the parse, each layer of
``overlap.pipeline.LAYERS`` as run_pipeline's own times record it, and
the JSON out. The package is taken from src/ next to this directory.
"""

import argparse
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from overlap.cli import _write_json  # noqa: E402
from overlap.family import parse_family  # noqa: E402
from overlap.pipeline import LAYERS, run_pipeline  # noqa: E402

COLUMNS = ("parse",) + LAYERS + ("JSON out",)


def run_layers(data):
    """One parse, pipeline and JSON out of the family bytes: the seconds
    of each column."""
    t0 = time.perf_counter()
    f = parse_family(data)
    t1 = time.perf_counter()
    res = run_pipeline(f)
    t2 = time.perf_counter()
    _write_json(res, True, io.StringIO())
    t3 = time.perf_counter()
    return [t1 - t0] + [res.times[k] for k in LAYERS] + [t3 - t2]


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
