"""Static checks on the package source, by `ast` alone, and on the names the
benchmark's tracer wraps and the README cites."""
import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stealthpath"


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    """Every name read in the module, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict:
    """Name of each module-level `_name` (not dunder) defined or assigned -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in bound
                      if name.startswith("_") and not name.startswith("__")})
    return names


def test_no_unused_private_names():
    # a private name nothing in its module reads is dead code
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _private_definitions(tree).items() if name not in used]
    assert unused == []


def test_no_unused_private_methods():
    # a `_method` of a module-level class, or any method of a `_Class`, that
    # no attribute read in its module names
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{item.lineno} {cls.name}.{item.name}"
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for item in cls.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not item.name.startswith("__")
                   and (item.name.startswith("_") or cls.name.startswith("_"))
                   and item.name not in read]
    assert unused == []


def test_no_id_calls_in_the_package():
    # cache keys name content; an id() key outlives its object and can be reused
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id"]
    assert calls == []


def test_every_traced_name_exists():
    # bench/tracing.py wraps these through getattr: a missing one crashes a
    # traced benchmark run, and the bench suite is not collected here
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for targets, _, _ in tracing.TARGETS.values()
               for module, name in targets
               if not callable(getattr(importlib.import_module(f"stealthpath.{module}"),
                                       name, None))]
    assert tracing.TARGETS and missing == []


def _strategy_classes(tree: ast.Module) -> set:
    """JammingStrategy and its subclasses in a module, by their base names."""
    names = {"JammingStrategy"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and \
                any(isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names


def test_no_unused_parameters():
    # a parameter no line of its function reads is plumbing for nothing; a
    # method's receiver, and the methods of the strategy interface, whose
    # signature every strategy shares, are exempt
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        strategies = _strategy_classes(tree)
        exempt = {id(item) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name in strategies
                  for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                    or id(fn) in exempt:
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and p.arg not in ("self", "cls")]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unused += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p})"
                       for p in params if p not in read]
    assert unused == []


def test_readme_code_references_resolve():
    # a backticked `module.name` in README.md names a stealthpath attribute
    # that exists, so renaming or deleting one leaves no stale reference
    modules = {path.stem for path in SRC.glob("*.py") if path.stem != "__init__"}
    refs = [ref for ref in re.findall(r"`(\w+(?:\.\w+)+)`", (ROOT / "README.md").read_text())
            if ref.split(".")[0] in modules]
    missing = []
    for ref in refs:
        module, *path = ref.split(".")
        try:
            functools.reduce(getattr, path, importlib.import_module(f"stealthpath.{module}"))
        except AttributeError:
            missing.append(ref)
    assert refs and missing == []
