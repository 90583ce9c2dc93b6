"""Every name the package and the tests import is referenced where it is imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The flipr_score re-import in hoplite.retriever stays although the retriever
# never calls it: perfbench/spans.py patches `flipr_score` on that module by name.
ALLOWED = {"hoplite.retriever.flipr_score"}


def _unused_imports(path: Path, module: str) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{module}.{name}" for name in imported - used if f"{module}.{name}" not in ALLOWED
    )


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "hoplite").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    package = "hoplite" if path.parent.name == "hoplite" else "tests"
    assert _unused_imports(path, f"{package}.{path.stem}") == []
