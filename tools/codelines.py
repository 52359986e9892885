"""Count the code lines of the ``nlmedium`` package.

    python tools/codelines.py [DIR]

A code line is a line that is not blank, not a comment and not part of a
docstring.  Comments are found with ``tokenize``; docstrings with ``ast``,
as the string literal that opens a module, class or function body.  The
report has one row per module (code lines, raw lines) and a total row.
``DIR`` defaults to ``src/nlmedium`` next to this script's directory.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "nlmedium"


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines, raw lines) of one module's source text."""
    raw = source.splitlines()
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            continue
        if tok.type == tokenize.ENDMARKER:
            break
        code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in skip)
    return len(code), len(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR, help="package directory")
    args = parser.parse_args(argv)
    rows = [(path.name, *count(path.read_text())) for path in sorted(args.dir.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'code':>6}  {'raw':>6}")
    for name, code, raw in rows:
        print(f"{name:<{width}}  {code:>6,}  {raw:>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
