"""The library holds what runs.  Every top-level definition, and every
method, property and dataclass field of its classes, is reached from code
that runs: another library module, a script or the scenario bench, not only
tests.  Every module's __all__ names what the module defines and lists all
of its public functions and classes."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypersample"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _scan():
    """Parsed trees of the package, and the ids of the Name and Attribute
    nodes of the package, scripts/ and scenario_bench/, by the name used."""
    trees, refs = {}, defaultdict(set)
    for base in (PACKAGE, ROOT / "scripts", ROOT / "scenario_bench"):
        for path in sorted(base.rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.Name):
                    refs[node.id].add(id(node))
                elif isinstance(node, ast.Attribute):
                    refs[node.attr].add(id(node))
    return trees, refs


def _unread(name, node, refs):
    """No reference to name outside node itself."""
    return not refs[name] - {id(inner) for inner in ast.walk(node)}


def test_every_library_definition_has_a_caller_outside_tests():
    trees, refs = _scan()
    unreached = [
        f"{path.stem}.{node.name}"
        for path in MODULES for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and _unread(node.name, node, refs)
    ]
    assert unreached == []


def test_every_class_member_is_read_outside_tests():
    # methods and properties by their def, dataclass fields by their
    # annotation; dunder methods are called by the language
    trees, refs = _scan()
    unread = []
    for path in MODULES:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("__") and _unread(name, node, refs):
                    unread.append(f"{cls.name}.{name}")
    assert unread == []


def test_module_all_lists_exactly_the_public_definitions():
    trees, _ = _scan()
    unknown, unlisted = [], []
    for path in MODULES:
        defined, public, listed = set(), set(), None
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    listed = set(ast.literal_eval(node.value))
                defined |= names
        if listed is not None:
            unknown += [f"{path.stem}.{n}" for n in sorted(listed - defined)]
            unlisted += [f"{path.stem}.{n}" for n in sorted(public - listed)]
    assert unknown == []
    assert unlisted == []
