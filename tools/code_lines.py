"""Count the code lines of polymat's modules.

A code line is a non-blank line that holds something other than a
comment or a module, class or function docstring.  One line per module
is printed, then the total:

    python3 tools/code_lines.py              # every src/polymat/*.py
    python3 tools/code_lines.py FILE [FILE]  # the files given
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    spans = docstrings(ast.parse(source))
    text = source.splitlines()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE or any(a <= token.start and token.end <= b for a, b in spans):
            continue
        # a string literal over several lines counts each of its non-blank lines
        lines.update(i for i in range(token.start[0], token.end[0] + 1) if text[i - 1].strip())
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "polymat").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
