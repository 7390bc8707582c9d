"""The package holds only code the program runs.

A name graph of ``src/uamsim``, parsed with ``ast``: its roots are the
console script's ``cli.main`` and every module's top-level statements but
its imports and ``__all__``, such as ``scenarios.BUILTIN`` or
``engine.DARK``.  A reached definition reaches every top-level function and
class, in any module, whose name it mentions as a name or an attribute, and
every method or property whose name it mentions as an attribute, since a
bare name never calls one.  A class brings its own statements and its
dunder methods, which Python calls for it.  A shared name counts as a call,
so the graph can miss dead code (a method called ``run`` reaches
``engine.run``), but it never flags live code.
"""

import ast
from pathlib import Path

import uamsim

PACKAGE = Path(uamsim.__file__).parent

# Reached by no program path, kept on purpose (argued in CHANGES.md): the
# particle swarm the exact planner is tested against, which the benchmark's
# tracer binds in ``engine`` and counts as ``planner.pso_minimize.calls``;
# and the curve's point read, which the benchmark's delay scan calls.
ALLOWED = {"planner.pso_minimize", "planner.PsoParams", "netcalc.Ccdf.at"}


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(nodes):
    """The names, and the attribute names, anywhere under ``nodes``."""
    walk = [n for node in nodes for n in ast.walk(node)]
    return ({n.id for n in walk if isinstance(n, ast.Name)},
            {n.attr for n in walk if isinstance(n, ast.Attribute)})


def _is_method(stmt):
    return isinstance(stmt, _FUNCTIONS) and not (stmt.name.startswith("__") and stmt.name.endswith("__"))


def _graph():
    """Every top-level definition, keyed "module.name", and every method,
    keyed "module.class.name", with whether the graph reaches it; and
    ``__init__``'s ``__all__`` with the names the graph reaches."""
    top, methods, roots, exports = {}, {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, _FUNCTIONS):
                top[f"{path.stem}.{stmt.name}"] = (stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                key = f"{path.stem}.{stmt.name}"
                own = [s for s in stmt.body if not _is_method(s)]
                top[key] = (stmt.name, [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *own])
                methods |= {f"{key}.{s.name}": (s.name, [s]) for s in stmt.body if _is_method(s)}
            elif _is_all(stmt):
                exports += [elt.value for elt in stmt.value.elts]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    by_name, by_attr = {}, {}
    for name, nodes in top.values():
        by_name.setdefault(name, []).extend(nodes)
        by_attr.setdefault(name, []).extend(nodes)
    for name, nodes in methods.values():
        by_attr.setdefault(name, []).extend(nodes)
    names, attrs, todo = {"main"}, set(), [top["cli.main"][1], roots]
    while todo:
        new_names, new_attrs = _mentions(todo.pop())
        todo += [by_name.get(name, []) for name in new_names - names]
        todo += [by_attr.get(name, []) for name in new_attrs - attrs]
        names |= new_names
        attrs |= new_attrs
    reached = {key: name in names | attrs for key, (name, _) in top.items()}
    reached |= {key: name in attrs for key, (name, _) in methods.items()}
    return reached, names | attrs, exports


def test_every_definition_and_export_is_reached_from_the_program():
    reached, seen, exports = _graph()
    unreached = {key for key, hit in reached.items() if not hit}
    dead = sorted(unreached - ALLOWED)
    assert not dead, f"defined but reached by no program path: {dead}"
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"allowed but reached, or gone: {stale}"
    idle = sorted(set(exports) - seen)
    assert not idle, f"exported but reached by no program path: {idle}"
