"""Every public module-level function, class and constant in src/dickelat, and
every public method, property and field of its classes, must be reached by
the package itself: referenced somewhere in src/ outside its own body,
exported through dickelat.__all__, or named as a console script in
pyproject.toml.  Code that only tests call is deleted or moved into the test
oracles, not kept.

References are matched by name, so a method counts as reached when anything
in src/ reads an attribute of that name, and a field only when anything reads
an attribute of that name (a local variable or argument of the same name does
not count).

Likewise every defaulted parameter of a public function or method must be
passed by some call that a run makes or that a paper's claim needs: one in
src/, in perfbench/, or in the acceptance criteria.  A parameter that only
unit tests set is one value in use, and becomes a constant."""

import ast
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

import dickelat

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dickelat"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _uses(tree):
    """(name, enclosing definitions as a tuple of names, whether it is an
    attribute read) for every name load and attribute read in a module; the
    tuple is empty at module level."""
    out = []

    def walk(node, owner):
        if isinstance(node, DEFINITIONS):
            owner = (*owner, node.name)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, owner, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, owner, True))
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, ())
    return out


def _definitions(tree, kinds):
    """(path, name) of every public definition of the given kinds: "function",
    "class", "constant" at module level, and "method" (properties included)
    and "field" (an annotated assignment in the class body, as a dataclass
    declares its fields) inside top-level classes.  path is the tuple of
    enclosing names plus the definition's own."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if "class" in kinds:
                out.append(((node.name,), node.name))
            if "method" in kinds:
                out += [
                    ((node.name, item.name), item.name)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                ]
            if "field" in kinds:
                out += [
                    ((node.name, item.target.id), item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
        elif isinstance(node, FUNCTIONS) and "function" in kinds:
            out.append(((node.name,), node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and "constant" in kinds:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [((), t.id) for t in targets if isinstance(t, ast.Name)]
    return [(path, name) for path, name in out if not name.startswith("_")]


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


def unreached(*kinds):
    """Dotted names of every public definition of the given kinds that
    nothing in src/ reaches."""
    trees = _trees()
    uses = [(mod, *use) for mod, tree in trees.items() for use in _uses(tree)]
    exported = _exported()
    dead = []
    for mod, tree in trees.items():
        fields = {path for path, _ in _definitions(tree, ("field",))}
        for path, name in _definitions(tree, kinds):
            if len(path) == 1 and (mod, name) in exported:
                continue
            # a definition's references from inside itself (recursion,
            # annotations) do not count; a constant has no inside
            if not any(
                use == name
                and (attr or path not in fields)
                and not (path and m == mod and owner[: len(path)] == path)
                for m, use, owner, attr in uses
            ):
                dead.append(".".join((mod, *path) if path else (mod, name)))
    return dead


# The code whose calls may keep a defaulted parameter: the package, the
# benchmark harness (which this suite only reads) and the acceptance
# criteria, which test the paper's claims.
CALLERS = (
    *sorted(SRC.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
)


def _calls():
    """{callee name: [(positional argument count, keyword names)]} of every
    call in CALLERS whose callee is a name or an attribute.  A starred
    argument counts as every position, and a **mapping shows as the keyword
    None."""
    out = defaultdict(list)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            out[name].append(
                (math.inf if starred else len(node.args), {k.arg for k in node.keywords})
            )
    return out


def _defaulted_parameters(tree):
    """(dotted path, function name, position, parameter name) of every
    defaulted parameter of the module's public functions and of the public
    methods of its public classes.  position counts the arguments a call
    passes (a method's self excluded); it is None for a keyword-only one."""
    functions = [((), node) for node in tree.body if isinstance(node, FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            functions += [((cls.name,), node) for node in cls.body if isinstance(node, FUNCTIONS)]
    out = []
    for owner, fn in functions:
        if fn.name.startswith("_"):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        offset = 0 if static or not owner else 1
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        path = ".".join((*owner, fn.name))
        out += [
            (path, fn.name, i - offset, positional[i].arg) for i in range(first, len(positional))
        ]
        out += [
            (path, fn.name, None, arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
    return out


def test_every_defaulted_parameter_is_passed():
    """A defaulted parameter that no call in CALLERS passes, by position or
    by keyword, has one value in every run: it goes, and the value becomes a
    module constant."""
    calls = _calls()
    unpassed = [
        f"{mod}.{path}({param})"
        for mod, tree in _trees().items()
        for path, name, position, param in _defaulted_parameters(tree)
        if not any(
            (position is not None and n_positional > position)
            or param in keywords or None in keywords
            for n_positional, keywords in calls[name]
        )
    ]
    assert not unpassed, f"defaulted parameters only tests pass: {unpassed}"


def test_every_public_function_is_reached():
    dead = unreached("function")
    assert not dead, f"public functions nothing in src/ reaches: {dead}"


def test_every_public_class_is_reached():
    dead = unreached("class")
    assert not dead, f"public classes nothing in src/ reaches: {dead}"


def test_every_public_method_is_reached():
    dead = unreached("method")
    assert not dead, f"public methods and properties nothing in src/ reaches: {dead}"


def test_every_public_constant_is_reached():
    dead = unreached("constant")
    assert not dead, f"public module constants nothing in src/ reaches: {dead}"


def test_every_public_field_is_reached():
    """Name matching cannot see a field whose name other code reads: a
    dataclass field named `params` or `config` counts as reached wherever any
    object's `.params` or `.config` is read."""
    dead = unreached("field")
    assert not dead, f"public class fields nothing in src/ reaches: {dead}"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    """What one module of the package takes from another is public: no module
    imports another's _name or reads it off the module it imported, so a name
    two modules share (basis.blocks, hamiltonian.check_capacity) says so."""
    reads = []
    for mod, tree in _trees().items():
        modules = {}  # local name -> the package module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dickelat"
            ):
                source = (node.module or "").removeprefix("dickelat").lstrip(".")
                for alias in node.names:
                    if _private(alias.name):
                        reads.append(f"{mod} imports {source or 'dickelat'}.{alias.name}")
                    elif not source:
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                modules.update(
                    (alias.asname, alias.name.split(".", 1)[1]) for alias in node.names
                    if alias.asname and alias.name.startswith("dickelat.")
                )
        reads += [
            f"{mod} reads {modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert not reads, f"private names read across modules: {reads}"


def test_analysis_imports_only_errors():
    """analysis works on plain arrays: it needs no model, basis, solver or
    observable type, so of the package it imports the errors alone."""
    tree = ast.parse((SRC / "analysis.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "dickelat":
                continue
            module = module.removeprefix("dickelat").lstrip(".")
            if module:
                imported.add(module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("dickelat.")
            )
    assert imported == {"errors"}, f"analysis imports {sorted(imported)} from dickelat"


def test_src_imports_only_the_standard_library_numpy_and_itself():
    """numpy is a run's only dependency: no module of the package imports
    scipy or any other package outside the standard library."""
    allowed = {*sys.stdlib_module_names, "numpy", "dickelat"}
    foreign = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{mod} imports {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports from outside the standard library and numpy: {foreign}"
