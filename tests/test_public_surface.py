"""Every public attribute of the core values is read by the library.

An attribute that nothing in the package reads is a second way to reach
a quantity, or a helper kept for tests; this keeps such aliases from
lingering or coming back.  The attributes are the fields (`__slots__`)
and the public methods and properties defined in the class bodies of
Quaternion, Sphere and SlicePoly.  One counts as read when a module of
the package loads it outside its own definition.  The few that the
paper defines but the package does not call are listed with their
reason.
"""

import ast
from pathlib import Path

import slicereg

PACKAGE = Path(slicereg.__file__).parent

CLASSES = {"Quaternion": "quaternion.py", "Sphere": "quaternion.py",
           "SlicePoly": "polynomial.py"}

ALLOWED = {
    "im": "Im q, the imaginary part the paper's slice decomposition names",
    "linear_factor": "the paper's factor q - p of a zero p",
    "sphere_quadratic": "the paper's (q - x0)^2 + y0^2 of a sphere",
    "quadratic_div": "the paper's division by that quadratic, a timed "
                     "layer of the benchmark",
}


def _defined():
    """name -> class for each public attribute of the classes above."""
    defined = {}
    for cls, filename in CLASSES.items():
        tree = ast.parse((PACKAGE / filename).read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        for node in body.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif (isinstance(node, ast.Assign)
                  and node.targets[0].id == "__slots__"):
                names = [elt.value for elt in node.value.elts]
            else:
                continue
            defined.update((name, cls) for name in names
                           if not name.startswith("_"))
    return defined


def _read(node, inside=()):
    """Names loaded under `node`, each outside any function of that name."""
    if isinstance(node, ast.FunctionDef):
        inside = (*inside, node.name)
    names = set()
    if isinstance(node, ast.Attribute) and node.attr not in inside:
        names.add(node.attr)
    elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
          and node.id not in inside):
        names.add(node.id)
    for child in ast.iter_child_nodes(node):
        names |= _read(child, inside)
    return names


def test_every_public_attribute_is_read_outside_its_definition():
    defined = _defined()
    read = set()
    for path in PACKAGE.glob("*.py"):
        read |= _read(ast.parse(path.read_text()))
    assert len(defined) > 15
    unread = sorted(name for name in defined
                    if name not in read and name not in ALLOWED)
    assert unread == []
    # The list stays short: an entry is a defined name nothing reads.
    assert set(ALLOWED) <= set(defined) - read
