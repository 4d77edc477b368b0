"""The library holds what runs.  Every top-level definition, and every
method, property and dataclass field of its classes, is reached from code
that runs: another library module, a script or the scenario bench, not only
tests.  A dataclass field is read only through an attribute, x.field: a
local variable of the same name does not read it.  Every module's __all__
names what the module defines and lists all of its public functions and
classes.  Every parameter or dataclass field with a default is set by some
program: one that none sets is a constant."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypersample"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _scan(attributes_only=False):
    """Parsed trees of the package, and the ids of the Name and Attribute
    nodes (the Attribute nodes alone if attributes_only) of the package,
    scripts/ and scenario_bench/, by the name used."""
    trees, refs = {}, defaultdict(set)
    for base in (PACKAGE, ROOT / "scripts", ROOT / "scenario_bench"):
        for path in sorted(base.rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.Name) and not attributes_only:
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
    # annotation and only through x.field; dunder methods are called by
    # the language
    trees, refs = _scan()
    _, attrs = _scan(attributes_only=True)
    unread = []
    for path in MODULES:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                    used = refs
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    name = node.target.id
                    used = attrs
                else:
                    continue
                if not name.startswith("__") and _unread(name, node, used):
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


def _defaulted(node, method):
    """(position, name) of node's parameters with a default; the position
    counts the arguments of a call, None for keyword-only ones.  A method's
    first parameter is its instance or class, passed before the call's
    arguments (not so for a static method)."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(first + i, a.arg) for i, a in enumerate(positional[first:])]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _field(node):
    """(init, default) of a dataclass field's annotation: whether the
    constructor takes the field, and whether it has a default there."""
    value = node.value
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return True, value is not None
    kw = {k.arg: k.value for k in value.keywords}
    init = not (isinstance(kw.get("init"), ast.Constant)
                and kw["init"].value is False)
    return init, init and ("default" in kw or "default_factory" in kw)


def test_every_parameter_default_is_set_by_a_program():
    # a default that no program overrides is a constant.  Each parameter
    # with a default must be passed at some call in the package, scripts/
    # or scenario_bench/, matched by the callee's name: by keyword, by
    # position or through a * or ** argument.  A dataclass field is set
    # through its class's constructor or dataclasses.replace.
    trees, _ = _scan()
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls[name].append(node)

    def passed(callee, position, name):
        for call in calls[callee]:
            keywords = {k.arg for k in call.keywords}
            if name in keywords or None in keywords \
                    or any(isinstance(a, ast.Starred) for a in call.args) \
                    or position is not None and position < len(call.args):
                return True
        return False

    unset = []
    for path in MODULES:
        for top in trees[path].body:
            if isinstance(top, ast.FunctionDef):
                unset += [f"{path.stem}.{top.name}({name})"
                          for position, name in _defaulted(top, False)
                          if not passed(top.name, position, name)]
            if not isinstance(top, ast.ClassDef):
                continue
            index = 0
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    callee = top.name if node.name == "__init__" else node.name
                    unset += [f"{path.stem}.{top.name}.{node.name}({name})"
                              for position, name in _defaulted(node, True)
                              if not passed(callee, position, name)]
                elif isinstance(node, ast.AnnAssign) and _is_dataclass(top) \
                        and isinstance(node.target, ast.Name):
                    name = node.target.id
                    init, default = _field(node)
                    if default and not passed(top.name, index, name) \
                            and not passed("replace", None, name):
                        unset.append(f"{path.stem}.{top.name}.{name}")
                    index += init
    assert unset == []
