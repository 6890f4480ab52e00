#!/usr/bin/env python3
"""Count the lines of each module under a source tree, by kind.

Usage (from any directory)::

    python3 tools/src_lines.py [ROOT]

prints one row per ``*.py`` file under ROOT (default: this checkout's
``src/``) and a total row, with four counts:

* ``physical``: every line of the file;
* ``code``: non-blank lines that hold a token outside comments and
  docstrings (a line of code with a trailing comment is code, and so is
  every line of a multi-line string that is not a docstring);
* ``docstring``: the lines of module, class and function docstrings;
* ``comment``: lines that hold a comment and nothing else.

Blank lines make up the rest.  Only code lines change what a module does,
so a change that edits prose alone keeps ``code`` as it was.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("physical", "code", "docstring", "comment")

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """The four counts of one module's source text, as a dict."""
    physical = len(source.splitlines())
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return {
        "physical": physical,
        "code": len(code),
        "docstring": len(docstring),
        "comment": len(comment - code - docstring),
    }


def report(root):
    """The table for every ``*.py`` file under ``root``, as text."""
    root = Path(root)
    rows = [
        (path.relative_to(root).as_posix(), count(path.read_text(encoding="utf-8")))
        for path in sorted(root.rglob("*.py"))
    ]
    total = {col: sum(r[col] for _, r in rows) for col in COLUMNS}
    width = max([len("total")] + [len(name) for name, _ in rows])
    lines = [f"{'module':<{width}}" + "".join(f"{col:>11}" for col in COLUMNS)]
    for name, r in rows + [("total", total)]:
        lines.append(f"{name:<{width}}" + "".join(f"{r[col]:>11}" for col in COLUMNS))
    return "\n".join(lines)


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "src"
    print(report(sys.argv[1] if len(sys.argv) > 1 else default))
