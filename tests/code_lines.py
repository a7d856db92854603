"""Count the code lines of src/tropfit, outside tier-1.

A code line holds a token that is not a comment and not part of a
module, class or function docstring, so blank, comment and docstring
lines do not count. pytest does not collect this file. Run it from the
repository root:

    python tests/code_lines.py

It prints the count of each module and the total.
"""

import ast
import io
import pathlib
import tokenize

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropfit"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
