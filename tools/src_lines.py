"""Print the line count of src/hoplite split into docstring and other lines.

    python3 tools/src_lines.py [PACKAGE_DIR]

It prints one line per module, then the package's summary line. A
docstring line is any line of the string literal that opens a module, a
class or a function body (by the AST). Every other line, blank lines and
comments included, counts as other, so total is what `wc -l` prints.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(source: str) -> int:
    tree = ast.parse(source)
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                count += first.end_lineno - first.lineno + 1
    return count


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "hoplite"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = docs = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, doc = len(source.splitlines()), docstring_lines(source)
        print(f"{path.name:<16} total {lines:4d}  docstring {doc:3d}  other {lines - doc:4d}")
        total += lines
        docs += doc
    print(f"total {total}  docstring {docs}  other {total - docs}  ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
