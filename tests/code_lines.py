"""Print each module's total and code lines, then the package's.

Code lines are the lines that hold a token of a statement: docstrings
(a string that opens a module, class or function body), comments and
blank lines are not counted. A statement that spans lines counts each
of them.

    python tests/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdmkit"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n, c = len(source.splitlines()), code_lines(source)
        total, code = total + n, code + c
        print(f"{path.name:<16}{n:>8}{c:>8}")
    print(f"{'total':<16}{total:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
