"""Every name a module exports resolves, so ``from module import *`` works,
the package re-exports only names its modules export, no module or test
imports a name it never uses, no module calls ``is_infinity`` and mobius
sets no field through ``object.__setattr__``, no module reads the
environment (``os.environ``, ``os.environb`` or ``os.getenv``), no
module defines a private name nothing uses, no module calls ``np.dot``,
no metric kernel re-derives what the validating wrapper measured or
computes with numpy, no function that runs on every metric call defines
a closure, a domain's point methods are defined once over one coercion,
every field of a catalog declaration is read, and only geometry decides
what a number is."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import hypmetrics
from hypmetrics.suite import InequalityCase, SharpnessProbe


@pytest.mark.parametrize("module", ["geometry", "metrics", "mobius", "suite"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"hypmetrics.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(hypmetrics.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"hypmetrics.{node.module}").__all__
    ]
    assert stale == []


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports (``from __future__`` aside) and never uses; a
    name listed in the file's ``__all__`` counts as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(imported - used)


def test_no_file_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export, which the test above checks
    package = Path(hypmetrics.__file__).parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"] + list(Path(__file__).parent.glob("*.py"))
    assert len(files) > 10
    unused = {f"{p.parent.name}/{p.name}": names for p in sorted(files) if (names := _unused_imports(p))}
    assert unused == {}


def _uses(path: Path, name: str) -> list[int]:
    """Lines where ``path`` reads ``name``, bare or as an attribute of
    anything: a call, or the function passed on, as to ``map``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def test_one_spelling_of_the_infinity_test_and_of_a_generator_field():
    # the package tests INFINITY by identity, which the singleton makes
    # exact; is_infinity is for callers.  Generators assign their fields.
    package = Path(hypmetrics.__file__).parent
    files = sorted(package.glob("*.py"))
    assert len(files) > 4
    uses = {p.name: lines for p in files if (lines := _uses(p, "is_infinity"))}
    assert uses == {}
    assert _uses(package / "mobius.py", "__setattr__") == []


_ENVIRONMENT = ("environ", "environb", "getenv")


def _environment_reads(path: Path) -> list[int]:
    """Lines where ``path`` reads the environment: one of ``_ENVIRONMENT``
    used, bare or as an attribute, or imported under any name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name in _ENVIRONMENT for alias in node.names)
    ]
    return sorted(set(imported).union(*(_uses(path, name) for name in _ENVIRONMENT)))


def test_no_module_reads_the_environment():
    # every input comes from the arguments, so the command that made a
    # report states everything it depends on, its seed included
    package = Path(hypmetrics.__file__).parent
    files = sorted(package.glob("*.py"))
    assert len(files) > 4
    assert {p.name: lines for p in files if (lines := _environment_reads(p))} == {}


def _top_level_definitions(tree: ast.Module):
    """(name, statement) for each name a module's top-level ``def``,
    ``class`` or assignment binds; imports bind none here."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        yield node.id, stmt


def _referenced_names(node: ast.AST) -> set[str]:
    """Names ``node`` reads, bare or as an attribute of anything."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
    }


def _unreferenced_names(package: Path, modules: list[str]) -> list[str]:
    """``module.name`` for each top-level definition of the modules that
    is not in the module's ``__all__`` and that no statement of the
    package, its own definition aside, refers to."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    reads = {id(stmt): _referenced_names(stmt) for stmt in statements}
    unreferenced = []
    for module in modules:
        exported = set(getattr(importlib.import_module(f"hypmetrics.{module}"), "__all__", ()))
        for name, definition in _top_level_definitions(trees[module]):
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in reads[id(stmt)] for stmt in statements if stmt is not definition):
                unreferenced.append(f"{module}.{name}")
    return unreferenced


# perfbench/tracing.py binds these two stubs, which no package code calls;
# they go when ROADMAP item 1 unhooks the tracer from them
_UNREFERENCED_ALLOWED = ["geometry._golden_max", "suite.sup_refinement"]


def test_no_module_defines_a_name_nothing_uses():
    # cli.main is the console entry point, which pyproject.toml names
    unreferenced = _unreferenced_names(
        Path(hypmetrics.__file__).parent, ["geometry", "metrics", "mobius", "suite", "cli"]
    )
    assert [name for name in unreferenced if name != "cli.main"] == _UNREFERENCED_ALLOWED


def _numpy_dots(path: Path) -> list[int]:
    """Lines of ``path`` that use ``np.dot`` or ``numpy.dot``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "dot"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ]


def test_no_module_calls_np_dot():
    # v.dot(v) is the same routine, with the same bits, without np.dot's
    # __array_function__ dispatch, which costs about as much again
    package = Path(hypmetrics.__file__).parent
    dots = {p.name: lines for p in sorted(package.glob("*.py")) if (lines := _numpy_dots(p))}
    assert dots == {}


# what the metric wrapper computes once per call and hands to the kernel
_WRAPPER_WORK = {
    "distance_to_boundary",
    "contains",
    "_checked",
    "_coerced",
    "_distance_row",
}


def _is_kernel(node: ast.AST) -> bool:
    """Whether ``node`` is a function decorated with ``_validated(...)``."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_validated" for d in node.decorator_list
    )


def _kernel_rederivations(path: Path) -> dict[str, list[str]]:
    """For each function of ``path`` decorated with ``_validated(...)``,
    the names in ``_WRAPPER_WORK`` that its body calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if not _is_kernel(node):
            continue
        found[node.name] = sorted(
            name
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and (name := getattr(call.func, "id", None) or getattr(call.func, "attr", None)) in _WRAPPER_WORK
        )
    return found


def test_no_metric_kernel_rederives_what_validation_measured():
    # the wrapper checks membership, compares the points and builds a
    # complement's distance rows once; a kernel takes them as arguments
    found = _kernel_rederivations(Path(hypmetrics.__file__).parent / "metrics.py")
    assert len(found) == 10
    assert {name: calls for name, calls in found.items() if calls} == {}


def _gauge_decodings(path: Path) -> dict[str, list[int]]:
    """For each function of ``path``, the lines where it adds a gauge
    (``gx`` or ``gy``) to 1 or subtracts one from 1."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        lines = [
            node.lineno
            for node in ast.walk(fn)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and {type(node.left), type(node.right)} == {ast.Constant, ast.Name}
            and {getattr(node.left, "value", None), getattr(node.right, "value", None)} & {1}
            and {getattr(node.left, "id", None), getattr(node.right, "id", None)} & {"gx", "gy"}
        ]
        if lines:
            found[fn.name] = lines
    return found


def test_no_metric_decodes_a_gauge():
    # d(x) and the ball's 1 - |x|^2 are read from a gauge in geometry
    # only (each domain class's _distance, and _one_minus_square)
    assert _gauge_decodings(Path(hypmetrics.__file__).parent / "metrics.py") == {}


def _body_nodes(fn: ast.FunctionDef):
    """Every node of the body of ``fn``, its decorators left out."""
    for stmt in fn.body:
        yield from ast.walk(stmt)


def _numpy_uses(fn: ast.FunctionDef) -> list[str]:
    """Where the body of ``fn`` uses numpy: the names ``np`` and
    ``numpy``, and the array methods ``dot`` and ``vecdot``."""
    nodes = list(_body_nodes(fn))
    return sorted(
        {n.id for n in nodes if isinstance(n, ast.Name) and n.id in ("np", "numpy")}
        | {n.attr for n in nodes if isinstance(n, ast.Attribute) and n.attr in ("dot", "vecdot")}
    )


def _reached(fn: ast.FunctionDef, functions: dict[str, ast.FunctionDef]) -> list[ast.FunctionDef]:
    """``fn`` and every function of ``functions`` that its body names,
    directly or through those it reaches."""
    seen, todo = {fn.name: fn}, [fn]
    while todo:
        for n in _body_nodes(todo.pop()):
            if isinstance(n, ast.Name) and n.id in functions and n.id not in seen:
                seen[n.id] = functions[n.id]
                todo.append(functions[n.id])
    return list(seen.values())


def test_no_metric_kernel_computes_with_numpy():
    # the kernels take every length with math.dist or math.hypot from the
    # coordinate lists; the point arrays only reach boundary_sup and
    # _in_order, which read them without numpy arithmetic
    package = Path(hypmetrics.__file__).parent
    functions = {
        node.name: node
        for name in ("geometry", "metrics")
        for node in ast.parse((package / f"{name}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    kernels = [fn for fn in functions.values() if _is_kernel(fn)]
    assert len(kernels) == 10
    uses = {
        f"{kernel.name} -> {fn.name}": found
        for kernel in kernels
        for fn in _reached(kernel, functions)
        if (found := _numpy_uses(fn))
    }
    assert uses == {}


# the per-point pass (the coercion and each domain class's checked
# pass) and the ball's root solve, which run on every call
_PER_CALL = {
    "geometry": (
        "as_point",
        "_coerced",
        "UnitBall._checked",
        "UpperHalfSpace._checked",
        "FiniteComplement._checked",
        "boundary_sup",
    )
}


def _functions_and_methods(tree: ast.Module):
    """The module's functions by name and its classes' methods as
    ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _nested_functions(package: Path) -> dict[str, list[str]]:
    """For each function of ``_PER_CALL`` and each metric kernel, the
    functions its body defines: a nested ``def`` by its name, a
    ``lambda`` as "lambda"."""
    found = {}
    for module in ("geometry", "metrics"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for name, fn in _functions_and_methods(tree):
            if not (name in _PER_CALL.get(module, ()) or _is_kernel(fn)):
                continue
            found[f"{module}.{name}"] = sorted(
                "lambda" if isinstance(n, ast.Lambda) else n.name
                for n in _body_nodes(fn)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            )
    return found


def test_no_per_call_function_defines_a_closure():
    # a nested def or lambda is a new function object on every call
    found = _nested_functions(Path(hypmetrics.__file__).parent)
    assert len(found) == len(_PER_CALL["geometry"]) + 10
    assert {name: nested for name, nested in found.items() if nested} == {}


def test_domain_point_methods_are_defined_once_over_one_coercion():
    # contains and distance_to_boundary read each class's checked pass, and
    # every point reaches the array conversion through _coerced; a second
    # method body or a second caller would be a second, laxer check
    tree = ast.parse((Path(hypmetrics.__file__).parent / "geometry.py").read_text(encoding="utf-8"))
    methods = [
        name
        for name, fn in _functions_and_methods(tree)
        if "." in name and fn.name in ("contains", "distance_to_boundary")
    ]
    assert methods == ["Domain.contains", "Domain.distance_to_boundary"]
    callers = [
        name
        for name, fn in _functions_and_methods(tree)
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_real_array" for n in ast.walk(fn))
    ]
    assert callers == ["_coerced"]


def _attribute_reads(package: Path) -> set[str]:
    """Every ``name`` that some module of the package reads as ``.name``."""
    return {
        node.attr
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


# declared for what is still to be built on them: ROADMAP item 2 reads the
# formulas and constants, and item 5 needs a probe's direction to compute
# its convergence order
_UNREAD_FIELDS_ALLOWED = ["constant", "direction", "formula"]


def test_every_declaration_field_is_read():
    # a field nothing reads restates what its declaration already says
    fields = {f.name for cls in (InequalityCase, SharpnessProbe) for f in dataclasses.fields(cls)}
    unread = fields - _attribute_reads(Path(hypmetrics.__file__).parent)
    assert sorted(unread.difference(_UNREAD_FIELDS_ALLOWED)) == []
    # an allowed field that gains a reader leaves the list
    assert sorted(unread.intersection(_UNREAD_FIELDS_ALLOWED)) == _UNREAD_FIELDS_ALLOWED


def _number_rule_uses(package: Path) -> dict[str, list[str]]:
    """For each module, what decides a number there: the ``numbers``
    module named, a dtype ``.kind`` read, an ``np.asarray`` call, and a
    definition of one of the three number rules."""
    rules = {"_is_real", "_is_integer", "_real_array"}
    found = {}
    for path in sorted(package.glob("*.py")):
        uses = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                uses += [a.name for a in node.names if a.name == "numbers"]
            elif isinstance(node, ast.Name) and node.id == "numbers":
                uses.append("numbers")
            elif isinstance(node, ast.Attribute) and node.attr in ("kind", "asarray"):
                uses.append(f".{node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name in rules:
                uses.append(f"def {node.name}")
        if uses:
            found[path.stem] = sorted(set(uses))
    return found


def test_only_geometry_decides_what_a_number_is():
    # a second rule for a real number, an integer or a real array drifts
    # from the first: a bool taken in one module and refused in another
    assert _number_rule_uses(Path(hypmetrics.__file__).parent) == {
        "geometry": [".asarray", ".kind", "def _is_integer", "def _is_real", "def _real_array", "numbers"],
    }
