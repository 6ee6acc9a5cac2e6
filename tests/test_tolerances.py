"""Every tolerance in tolerances.py is read by the library.

A tolerance that nothing reads documents a decision the code no longer
takes; this keeps retired ones from lingering or coming back.  A name
counts as read when a module of the package other than tolerances.py
loads it, or when it is loaded inside a tolerances.py function that is
itself read elsewhere (EPS_ZERO through zero_guard).
"""

import ast
from pathlib import Path

import slicereg

PACKAGE = Path(slicereg.__file__).parent


def _loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_tolerance_is_read_outside_its_definition():
    tolerances = ast.parse((PACKAGE / "tolerances.py").read_text())
    defined, through = [], {}
    for node in tolerances.body:
        if isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.FunctionDef):
            defined.append(node.name)
            for name in _loaded(node):
                through.setdefault(name, set()).add(node.name)
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "tolerances.py":
            read |= _loaded(ast.parse(path.read_text()))
    assert len(defined) > 10
    unread = [name for name in defined
              if name not in read and not through.get(name, set()) & read]
    assert unread == []
