"""Count the code lines of the Python files under a directory.

A line is a code line when it holds at least one token that is not a
comment, a docstring or layout (line breaks, indentation, the end
marker). A token spanning several lines, such as a triple-quoted string
that is not a docstring, makes each of them a code line. Blank lines,
comment lines and docstrings therefore count for nothing, so the figure
moves only with code.

    python3 tools/code_lines.py src/overlap

prints each file's count, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(source):
    """The (line, column) where each docstring of the module starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path):
    source = Path(path).read_text(encoding="utf-8")
    docs = docstring_starts(source)
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in LAYOUT:
                continue
            if tok.type == tokenize.STRING and tok.start in docs:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(args[0]).rglob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
