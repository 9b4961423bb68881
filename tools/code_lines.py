"""Print the line count, the code-line count and the defined-name count of each
module of ``src/genform``.

Code lines are the lines that are not blank, not only a comment and not
part of a docstring (the string that opens a module, class or function
body).  Defined names are the ``def``s, ``class``es and assignment targets,
annotated fields included, at module level and directly in a class body,
each counted once per module or class; they measure how many concepts a
module introduces.  Run from the repository root::

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


def target_names(target: ast.expr) -> list[str]:
    """The plain names an assignment target binds (``a``, or ``a, b``)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in target_names(elt)]
    return []  # an attribute or a subscript binds no new name


def defined_names(body: list[ast.stmt]) -> int:
    """The names one module or class body defines, plus those of the classes in it."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(name for target in node.targets for name in target_names(target))
        elif isinstance(node, ast.AnnAssign):
            names.update(target_names(node.target))
    return len(names) + sum(defined_names(node.body) for node in body
                            if isinstance(node, ast.ClassDef))


def counts(path: Path) -> tuple[int, int, int]:
    """(all lines, code lines, defined names) of one source file."""
    text = path.read_text()
    tree = ast.parse(text)
    skip = docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(text.splitlines()), len(code), defined_names(tree.body)


def main() -> None:
    totals = [0, 0, 0]
    for path in sorted(Path("src/genform").glob("*.py")):
        row = counts(path)
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path.name:20}" + "".join(f" {n:6}" for n in row))
    print(f"{'total':20}" + "".join(f" {n:6}" for n in totals))


if __name__ == "__main__":
    main()
