"""Every public name in the package is used by what runs.

A public def, class, method or property of a `src/dampedwaves` module (the
package `__init__` aside) must be named somewhere in the package outside its
own def line, in the benchmark scripts, or in the acceptance gate.  Names
that only the other tests use belong in the tests (see tests/oracles.py).
Names are NAME tokens, so a word in a string or comment does not count.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "dampedwaves").glob("*.py")
                 if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def public_defs(path: Path):
    """(name, line) of the module's public functions and classes and of the
    public methods and properties of its classes."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    yield child.name, child.lineno
                if isinstance(child, ast.ClassDef):
                    yield from walk(child)
    return list(walk(ast.parse(path.read_text(encoding="utf-8"))))


def name_tokens(path: Path) -> set[tuple[str, int]]:
    with path.open("rb") as fh:
        return {(tok.string, tok.start[0]) for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME}


def test_every_public_name_is_used_outside_the_tests():
    tokens = {path: name_tokens(path) for path in USERS}
    unused = []
    for module in MODULES:
        for name, line in public_defs(module):
            if not any(tok == name and (path, tok_line) != (module, line)
                       for path, toks in tokens.items() for tok, tok_line in toks):
                unused.append(f"{module.name}: {name} (line {line})")
    assert unused == []
