"""Every public name, member and parameter in the package is used.

Three rules, read from the syntax trees of the `src/dampedwaves` modules
(the package `__init__` aside):

- A public module-level def or class must be named somewhere in the package
  outside its own def line, in the benchmark scripts, or in the acceptance
  gate.  Names that only the other tests use belong in the tests (see
  tests/oracles.py).
- A public method or property counts as used only where an attribute load
  `.name` reads it in the package, the benchmark scripts or the acceptance
  gate; a local variable of the same spelling is not a use.
- A defaulted parameter of a public function or method must be passed, by
  keyword or by position, by some call in the package, the benchmark
  scripts or the tests: a default no call overrides is a constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "dampedwaves").glob("*.py")
                 if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
USERS = MODULES + BENCH + [ROOT / "tests" / "test_acceptance.py"]
CALLERS = MODULES + BENCH + sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public(node: ast.AST) -> bool:
    return not node.name.startswith("_")


def public_names(tree: ast.Module) -> list[ast.AST]:
    """The module's public top-level functions and classes."""
    return [n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and _public(n)]


def public_members(tree: ast.Module) -> list[tuple[ast.ClassDef, ast.FunctionDef]]:
    """(class, def) of the public methods and properties of the module's
    public classes."""
    return [(cls, n) for cls in public_names(tree) if isinstance(cls, ast.ClassDef)
            for n in cls.body if isinstance(n, ast.FunctionDef) and _public(n)]


def names_used(tree: ast.Module) -> set[str]:
    """Identifiers the module names or imports; a def's own name is not a
    Name node."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def attributes_read(tree: ast.Module) -> set[str]:
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unused_names(modules: list[Path], users: list[Path]) -> list[str]:
    used = set().union(*(names_used(_tree(path)) for path in users))
    return [f"{module.name}: {node.name} (line {node.lineno})"
            for module in modules for node in public_names(_tree(module))
            if node.name not in used]


def unread_members(modules: list[Path], users: list[Path]) -> list[str]:
    read = set().union(*(attributes_read(_tree(path)) for path in users))
    return [f"{module.name}: {cls.name}.{fn.name} (line {fn.lineno})"
            for module in modules for cls, fn in public_members(_tree(module))
            if fn.name not in read]


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of fn's defaulted parameters, the
    index counted as a caller passes them (self or cls dropped)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    drop = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - drop) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls(trees: list[ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call, by the called name (f(...) or x.f(...))."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):       # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_parameters(modules: list[Path], callers: list[Path]) -> list[str]:
    calls = _calls([_tree(path) for path in callers])
    unpassed = []
    for module in modules:
        tree = _tree(module)
        defs = [(None, fn) for fn in public_names(tree) if isinstance(fn, ast.FunctionDef)]
        defs += public_members(tree)
        for cls, fn in defs:
            qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
            for name, index in _defaulted(fn, method=cls is not None):
                if not any(_passes(c, name, index) for c in calls.get(fn.name, ())):
                    unpassed.append(f"{module.name}: {qualname}({name}=) (line {fn.lineno})")
    return unpassed


def test_every_public_name_is_used_outside_the_tests():
    assert unused_names(MODULES, USERS) == []


def test_every_public_member_is_read_outside_the_tests():
    assert unread_members(MODULES, USERS) == []


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert unpassed_parameters(MODULES, CALLERS) == []


def test_checker_flags_a_constant_parameter_and_a_test_only_property(tmp_path):
    module = tmp_path / "box.py"
    module.write_text(
        "class Box:\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 1.0\n"
        "\n"
        "    @property\n"
        "    def height(self):\n"
        "        return 2.0\n"
        "\n"
        "\n"
        "def area(box, scale=1.0, rounding=None):\n"
        "    width = box.height * scale   # a local spelled like the property\n"
        "    return width\n"
        "\n"
        "\n"
        "print(area(Box(), 2.0))\n")
    user_test = tmp_path / "test_box.py"
    user_test.write_text("from box import Box\n\nassert Box().width == 1.0\n")

    assert unused_names([module], [module]) == []
    assert unread_members([module], [module]) == ["box.py: Box.width (line 3)"]
    assert unread_members([module], [module, user_test]) == []
    assert unpassed_parameters([module], [module, user_test]) == [
        "box.py: area(rounding=) (line 11)"]
