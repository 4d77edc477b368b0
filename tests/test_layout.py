"""Every top-level definition in the library is reached from code that runs:
another library module, a script or the scenario bench, not only tests."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypersample"


def test_every_library_definition_has_a_caller_outside_tests():
    trees, refs = {}, defaultdict(set)
    for base in (PACKAGE, ROOT / "scripts", ROOT / "scenario_bench"):
        for path in sorted(base.rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.Name):
                    refs[node.id].add(id(node))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].add(id(node))
    unreached = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not refs[node.name] - {id(inner) for inner in ast.walk(node)}
    ]
    assert unreached == []
