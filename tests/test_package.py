"""The package holds only code the program runs.

A name graph of ``src/uamsim``, parsed with ``ast``: its roots are the
console script's ``cli.main`` and every module's top-level statements but
its imports and ``__all__``, such as ``scenarios.BUILTIN`` or
``engine.DARK``.  A reached definition reaches every top-level function and
class, in any module, whose name it mentions as a name or an attribute.  A
shared name counts as a call, so the graph can miss dead code (a method
called ``run`` reaches ``engine.run``), but it never flags live code.
"""

import ast
from pathlib import Path

import uamsim

PACKAGE = Path(uamsim.__file__).parent

# Reached by no program path, kept on purpose (argued in CHANGES.md): the
# particle swarm the exact planner is tested against, which the benchmark's
# tracer binds in ``engine`` and counts as ``planner.pso_minimize.calls``.
ALLOWED = {"planner.pso_minimize", "planner.PsoParams"}


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]


def _mentions(node):
    """The names and attribute names anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _graph():
    """Every top-level definition, keyed "module.name"; the names the graph
    reaches from its roots; and ``__init__``'s ``__all__``."""
    defs, roots, exports = {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{stmt.name}"] = stmt
            elif _is_all(stmt):
                exports += [elt.value for elt in stmt.value.elts]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    by_name = {}
    for node in defs.values():
        by_name.setdefault(node.name, []).append(node)
    seen, todo = {"main"}, [defs["cli.main"], *roots]
    while todo:
        for name in _mentions(todo.pop()) - seen:
            seen.add(name)
            todo += by_name.get(name, [])
    return defs, seen, exports


def test_every_definition_and_export_is_reached_from_the_program():
    defs, seen, exports = _graph()
    unreached = {key for key, node in defs.items() if node.name not in seen}
    dead = sorted(unreached - ALLOWED)
    assert not dead, f"defined but reached by no program path: {dead}"
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"allowed but reached, or gone: {stale}"
    idle = sorted(set(exports) - seen)
    assert not idle, f"exported but reached by no program path: {idle}"
