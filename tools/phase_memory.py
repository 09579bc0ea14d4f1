"""Traced memory of each phase of one CLI call on one family file.

    python3 tools/phase_memory.py FILE

runs the three phases of ``overlap forest --json FILE`` in this process,
under one tracemalloc session: ``cli._load`` (read and parse),
``run_pipeline`` and ``cli._write_json`` into memory. It prints two
lines: the column names and, below them as a row of a Markdown table,
each phase's traced peak above the session's start and the traced
memory still live after it, in MiB. The live figure after the JSON out
includes the output text. Unlike peak RSS, these figures do not depend
on how the allocator reuses freed memory: a run in a fresh interpreter
prints the same row every time. The package is taken from src/ next to
this directory.
"""

import argparse
import io
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from overlap import cli  # noqa: E402

PHASES = ("load", "pipeline", "JSON out")
COLUMNS = tuple("%s %s" % (phase, kind) for phase in PHASES
                for kind in ("peak", "live"))


def phase_memory(path):
    """Per phase, its traced peak and the traced memory live after it,
    in bytes above the session's start, in the order of COLUMNS."""
    figures = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]

        def phase(fn, *args):
            tracemalloc.reset_peak()
            result = fn(*args)
            live, peak = tracemalloc.get_traced_memory()
            figures.extend((peak - base, live - base))
            return result

        res = phase(cli.run_pipeline, phase(cli._load, path))
        phase(cli._write_json, res, True, io.StringIO())
    finally:
        tracemalloc.stop()
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Traced peak and live memory of each CLI phase.")
    parser.add_argument("file")
    args = parser.parse_args(argv)
    figures = phase_memory(args.file)
    print("| " + " | ".join(COLUMNS) + " |")
    print("| " + " | ".join("%.2f" % (b / 2**20) for b in figures) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
