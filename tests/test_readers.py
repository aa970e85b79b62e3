"""Every function, class and method defined in src/astra has a reader: its
name is read somewhere in src/astra outside its own body, or astra exports
it (`astra.__all__`), or the benchmark patches it (`bench/spans.py`
TRACE_POINTS).  Dunder methods are left out: Python itself calls them."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import astra

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "astra").glob("*.py"))
SPANS = ROOT / "bench" / "spans.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`, alone or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def trace_point_attributes() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr for _, attr, _ in spans.TRACE_POINTS}


def unread_definitions(paths) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in paths}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    exempt = set(astra.__all__) | trace_point_attributes()
    return [f"{path.name}:{node.lineno}: {node.name}"
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and not node.name.startswith("__")
            and node.name not in exempt
            and everywhere[node.name] == reads(node)[node.name]]


def test_every_definition_has_a_reader():
    assert unread_definitions(MODULES) == []
