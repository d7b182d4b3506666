"""No knob that nobody sets: every defaulted parameter of the package is
passed by some call in the package or in the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cyclesense").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def defaulted_parameters(tree):
    """(function name, parameter, call position or None, line) of every
    parameter with a default; a method's position skips self or cls."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    found.append((child.name, positional[i].arg, i - skip, child.lineno))
                found.extend((child.name, arg.arg, None, child.lineno)
                             for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def passed_arguments(paths):
    """Per called name: the keywords passed, the most positional arguments
    passed, and whether some call unpacks *args or **kwargs."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords, most, unpacked = calls.get(name, (set(), 0, False))
            calls[name] = (
                keywords | {k.arg for k in node.keywords if k.arg},
                max(most, len(node.args)),
                unpacked or any(k.arg is None for k in node.keywords)
                or any(isinstance(a, ast.Starred) for a in node.args))
    return calls


def test_every_default_is_overridden_by_some_caller():
    """Calls are matched to functions by name alone (the last attribute of
    the callee), so functions that share a name share their calls, and a call
    that unpacks *args or **kwargs counts as passing every parameter.  Calls
    from tests do not count: a value that only a test sets is a knob that no
    run of the program uses."""
    calls = passed_arguments(CALLERS)
    unset = []
    for path in PACKAGE:
        for name, param, position, line in defaulted_parameters(ast.parse(path.read_text())):
            keywords, most, unpacked = calls.get(name, (set(), 0, False))
            if not (unpacked or param in keywords
                    or (position is not None and position < most)):
                unset.append(f"{path.name}:{line} {name}({param})")
    assert unset == []
