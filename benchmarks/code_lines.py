"""Count the code lines of the package.

Run from any directory:

    python benchmarks/code_lines.py

A code line is a non-blank line of ``src/varbesov/*.py`` that is neither a
``#`` comment nor inside a module, class or function docstring.  Prints the
count per file and the total.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "varbesov"

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef,
                    ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers (1-based) spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<24}{n:>6,}")
    print(f"{'total':<24}{total:>6,}")


if __name__ == "__main__":
    main()
