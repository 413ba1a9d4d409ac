"""Shape of the serving layer: no function in ``src/repro/serve`` is long.

A function's size is its code lines: blank lines, comment-only lines and
docstrings do not count; every line of a multi-line statement does.  A
function past the bound is a loop body doing several jobs — split it into
named steps, as ``serve/cluster.py``'s round phases are.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SERVE = Path(__file__).resolve().parents[1] / "src" / "repro" / "serve"
MAX_CODE_LINES = 85

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def function_sizes(source: str) -> dict[str, int]:
    """Qualified name -> code lines, for every function in ``source``."""
    tree = ast.parse(source)
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstrings
    sizes: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sizes[name[:-1]] = sum(1 for line in code
                                       if child.lineno <= line <= child.end_lineno)
            visit(child, name)

    visit(tree, "")
    return sizes


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = (
        "class C:\n"
        "    def f(self, x):\n"
        '        """Doc.\n'
        "\n"
        '        More doc."""\n'
        "        # a comment\n"
        "\n"
        "        y = (x +\n"
        "             1)\n"
        "        return y\n")
    assert function_sizes(source) == {"C.f": 4}


def test_no_serve_function_exceeds_the_bound():
    long = {f"{path.name}:{name}": size
            for path in sorted(SERVE.glob("*.py"))
            for name, size in function_sizes(path.read_text()).items()
            if size > MAX_CODE_LINES}
    assert not long, f"functions over {MAX_CODE_LINES} code lines: {long}"
