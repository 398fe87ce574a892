"""Every parameter of the library is read: a value a caller can set changes
something, or it is not there to set.

The walk covers every def and lambda in src/pinvkit. A parameter counts as
read when its name is loaded anywhere in the function's body, nested
functions included. The bound first parameter of a method (self, cls) and
a parameter named _ are exempt; so is each entry of ALLOWED, with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).parent.parent / "src" / "pinvkit"

# (module, function, parameter) -> why the parameter stays unread
ALLOWED = {
    ("matrix.py", "scaled_for", "a"): "perfbench/worker.py still calls Tolerance.scaled_for(a)",
    ("linalg.py", "__setattr__", "value"): "Python fixes the signature of __setattr__",
}


def _methods(tree: ast.Module) -> set[ast.AST]:
    """The functions defined directly in a class body."""
    return {
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def unread_parameters() -> list[tuple[str, str, str]]:
    """(module, function, parameter) for every parameter its body never loads."""
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = _methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if node in methods:
                params = params[1:]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            function = getattr(node, "name", "<lambda>")
            unread += [(path.name, function, p) for p in params if p != "_" and p not in loaded]
    return unread


def test_every_parameter_is_read():
    assert sorted(set(unread_parameters()) - set(ALLOWED)) == []


def test_each_allowed_parameter_is_still_unread():
    # an entry whose parameter is now read, or gone, would exempt nothing
    assert set(ALLOWED) <= set(unread_parameters())
