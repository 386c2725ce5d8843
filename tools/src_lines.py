"""Count the source lines of each src/tits27 module, in all and outside docstrings.

    python3 tools/src_lines.py [package directory]

A docstring is the first statement of a module, class or function when it
is a string constant; its lines, from the opening to the closing quotes,
are left out of the second count.
"""

import ast
import pathlib
import sys

DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
    pathlib.Path(__file__).resolve().parents[1] / "src" / "tits27"
total = code = 0
for path in sorted(root.glob("*.py")):
    text = path.read_text()
    doc = 0
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, DEFS) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            doc += first.end_lineno - first.lineno + 1
    lines = len(text.splitlines())
    total, code = total + lines, code + lines - doc
    print(f"{path.name:20} {lines:6} {lines - doc:6}")
print(f"{'total':20} {total:6,} {code:6,}")
