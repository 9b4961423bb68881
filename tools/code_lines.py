"""Print the line count and the code-line count of each module of ``src/genform``.

Code lines are the lines that are not blank, not only a comment and not
part of a docstring (the string that opens a module, class or function
body).  Run from the repository root::

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(text.splitlines()), len(code)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(Path("src/genform").glob("*.py")):
        lines, code = counts(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:20} {lines:6} {code:6}")
    print(f"{'total':20} {total_lines:6} {total_code:6}")


if __name__ == "__main__":
    main()
