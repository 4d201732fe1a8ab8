"""Every parameter of every function under src/raftsim is read by its body.

A parameter that nothing reads still has to be passed by every caller, and
it suggests a dependence the function does not have."""

import ast
from pathlib import Path

import raftsim

SRC = Path(raftsim.__file__).parent
# `_` names a parameter that a caller's fixed signature forces on a callback
EXEMPT = {"self", "cls", "_"}


def _unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        where = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read and param not in EXEMPT:
                yield f"{path.relative_to(SRC)}:{node.lineno} {where}({param})"


def test_every_parameter_is_read():
    unread = [item for path in sorted(SRC.rglob("*.py"))
              for item in _unread_parameters(path)]
    assert not unread
