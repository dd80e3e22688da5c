"""Print the line counts of the package's modules: all lines and code-only lines.

    python3 tools/src_lines.py [package directory]

The directory defaults to ``src/clonality`` next to this file. One line per
module, then the total, each ``name<TAB>lines<TAB>code-only lines``. A
code-only line holds part of a token that is not a comment and does not
belong to a module, class or function docstring; so blank lines,
comment-only lines and docstrings do not count. Only ``ast`` and
``tokenize`` from the standard library are used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clonality"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """``(lines, code-only lines)`` of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    for module in sorted(package.glob("*.py")):
        lines, code = counts(module.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{module.name}\t{lines}\t{code}")
    print(f"total\t{total_lines}\t{total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
