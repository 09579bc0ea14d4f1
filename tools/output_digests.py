"""Print the sha256 of every CLI output mode for each family file.

    python3 tools/output_digests.py FILE...

runs the ten output modes (classes, max, subgraph and forest as text,
with --json, and subgraph and forest with --dot) in this process on each
FILE and prints one line per mode and file: the sha256 of the UTF-8
stdout bytes, the mode and the file. The package is taken from src/
next to this directory, so two checkouts' lines can be compared with
diff to show that a change keeps the output bytes.
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from overlap.cli import main as cli_main  # noqa: E402

MODES = ("classes", "classes --json", "max", "max --json", "subgraph",
         "subgraph --json", "subgraph --dot", "forest", "forest --json",
         "forest --dot")


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: output_digests.py FILE...", file=sys.stderr)
        return 2
    for path in paths:
        for mode in MODES:
            out = io.StringIO()
            code = cli_main(mode.split() + [path], out=out)
            if code != 0:
                print("error: %s %s exited %s" % (mode, path, code),
                      file=sys.stderr)
                return 1
            digest = hashlib.sha256(out.getvalue().encode("utf-8"))
            print("%s  %-15s  %s" % (digest.hexdigest(), mode, path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
