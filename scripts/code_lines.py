#!/usr/bin/env python3
"""Count the code-only lines of the Python files under a directory.

A line counts when it holds code: blank lines, comment-only lines and
the lines of docstrings (the string that opens a module, class or
function body) do not.  Docstrings are found with ``ast`` and comments
with ``tokenize``, so a ``#`` inside a string or a string that is not a
docstring is counted as code.  Prints one line per file, sorted by path,
and the total.

    python3 scripts/code_lines.py src
"""

import argparse
import ast
import io
import pathlib
import tokenize

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of source that hold a token other than a comment,
    outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", type=pathlib.Path, help="directory searched for *.py files")
    args = ap.parse_args()
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(args.dir)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
