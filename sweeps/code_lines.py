"""Code lines of Python sources: lines that hold code, not only a docstring,
a comment or blanks.

    python sweeps/code_lines.py              # every module of src/gapmodel
    python sweeps/code_lines.py PATH ...     # other files or directories

Prints one line per file, "lines path", and the total last.  A line counts
if a token other than a comment, a newline or an indent covers it
(tokenize), so each physical line of a statement that spans several counts
once; a docstring, the string that opens a module, class or function body
(ast), is left out with every line it spans.  The count does not depend on
formatting inside a line, so it is the figure to compare before and after
a change that claims to shorten the code.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gapmodel"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers spanned by every docstring in the module's tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def python_files(paths):
    """Each .py file of paths, directories searched recursively, sorted."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(SRC)],
                        help="files or directories (default: src/gapmodel)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
