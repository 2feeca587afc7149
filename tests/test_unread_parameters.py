"""Every parameter of a function in the package is read by its body.

A parameter no body reads is an option no caller can use: the guard parses
each module of ``src/membrane_homog`` and names every such parameter.  Two
protocols are exempt: the commands ``cmd_*(cfg, out, jobs)``, which all take
the same arguments whether they run a pool or not, and the ``apply`` and
``jacobian`` stubs of ``geometry.DeformationMap``, which only raise.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "membrane_homog"
COMMAND_PARAMS = ["cfg", "out", "jobs"]
STUBS = {("geometry.py", "DeformationMap", "apply"), ("geometry.py", "DeformationMap", "jacobian")}


def functions(tree):
    """(enclosing class name or None, function node) of every function and
    lambda in ``tree``."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield owner, child
                yield from walk(child, None)
            else:
                yield from walk(child, child.name if isinstance(child, ast.ClassDef) else owner)
    yield from walk(tree, None)


def parameters(fn):
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [x.arg for x in (a.vararg, a.kwarg) if x is not None]


def unread(path):
    """``module:function:parameter`` of each parameter of ``path``'s functions
    that its body never loads, the first parameter of a method apart."""
    found = []
    for owner, fn in functions(ast.parse(path.read_text())):
        name = getattr(fn, "name", "<lambda>")
        params = parameters(fn)
        if (path.name, owner, name) in STUBS:
            continue
        if name.startswith("cmd_") and params == COMMAND_PARAMS:
            params = [p for p in params if p != "jobs"]
        if owner is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.stem}:{name}:{p}" for p in params if p not in loaded]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread(path) == []


def test_guard_names_an_unread_parameter(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class C:\n    def f(self, a, b):\n        return a\n\n"
                   "def cmd_x(cfg, out, jobs):\n    return cfg, out\n\n"
                   "def cmd_y(cfg, out, extra):\n    return cfg, out\n\n"
                   "g = lambda x, y: x\n")
    assert unread(src) == ["mod:f:b", "mod:cmd_y:extra", "mod:<lambda>:y"]
