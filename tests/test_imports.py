"""Every name the package and the tests import is referenced where it is imported,
and every name the benchmark's tracer binds by name still exists."""

import ast
import importlib
import inspect
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


# What perfbench/spans.py looks up by name: (module, attribute, parameters the
# tracer reads, each with the position it reads it from).
TRACED = [
    ("corpus", "load_corpus", {}),
    ("corpus", "load_queryset", {}),
    ("index", "build_index", {}),
    ("index", "save_index", {}),
    ("index", "load_index", {}),
    ("retriever", "candidates_for", {"index": 1}),
    ("retriever", "flipr_score", {"eq": 0, "passage_rows": 1}),
    ("retriever", "retrieve", {"eq": 0, "exclude": 3}),
    ("pipeline", "retrieve", {"eq": 0, "exclude": 3}),
    ("pipeline", "condense", {"passages": 1}),
    ("pipeline", "merge_hybrid", {}),
    ("pipeline", "run_queries", {}),
    ("pipeline", "write_traces", {"path": 0}),
    ("supervision", "latent_hop_ordering", {}),
    ("supervision", "discover_positives", {}),
    ("supervision", "write_supervision", {}),
]


@pytest.mark.parametrize(
    "module, name, params", [pytest.param(*t, id=f"{t[0]}.{t[1]}") for t in TRACED]
)
def test_names_the_benchmark_tracer_binds(module, name, params):
    fn = getattr(importlib.import_module(f"hoplite.{module}"), name)
    names = list(inspect.signature(fn).parameters)
    assert {p: names.index(p) for p in params if p in names} == params


def test_idf_table_from_corpus_stays_a_classmethod():
    from hoplite.condenser import IdfTable

    assert isinstance(IdfTable.__dict__["from_corpus"], classmethod)
