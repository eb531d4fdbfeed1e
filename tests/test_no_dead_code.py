"""Every public module-level function and class in src/dickelat must be reached
by the package itself: referenced somewhere in src/ outside its own body,
exported through dickelat.__all__, or named as a console script in
pyproject.toml.  Code that only tests call is deleted or moved into the test
oracles, not kept."""

import ast
import re
from pathlib import Path

import dickelat

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dickelat"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _uses(tree):
    """(name, enclosing top-level function or class, or None) for every name
    load and attribute access in a module."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
    return out


def _exported():
    """(module, name) pairs reachable from outside the package."""
    out = set()
    for name in dickelat.__all__:
        obj = getattr(dickelat, name)
        out.add((obj.__module__.rsplit(".", 1)[-1], name))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    out.update(re.findall(r'"dickelat\.(\w+):(\w+)"', scripts))
    return out


def unreached(kinds):
    """module.name of every public top-level definition of the given AST
    kinds that nothing in src/ reaches."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uses = [(mod, name, owner) for mod, tree in trees.items() for name, owner in _uses(tree)]
    exported = _exported()
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            if node.name.startswith("_") or (mod, node.name) in exported:
                continue
            # a definition's references to itself (recursion, annotations) do not count
            if not any(
                name == node.name and (m, owner) != (mod, node.name) for m, name, owner in uses
            ):
                dead.append(f"{mod}.{node.name}")
    return dead


def test_every_public_function_is_reached():
    dead = unreached(FUNCTIONS)
    assert not dead, f"public functions nothing in src/ reaches: {dead}"


def test_every_public_class_is_reached():
    dead = unreached((ast.ClassDef,))
    assert not dead, f"public classes nothing in src/ reaches: {dead}"
