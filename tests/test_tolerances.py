"""Every tolerance in tolerances.py is read by the library, and `guard`
is the plain threshold eps (1 + a + b) wherever that is finite.

A tolerance that nothing reads documents a decision the code no longer
takes; this keeps retired ones from lingering or coming back.  A name
counts as read when a module of the package other than tolerances.py
loads it.
"""

import ast
import math
import random
from pathlib import Path

import slicereg
from slicereg.tolerances import (BOUND_SAMPLES, EPS_BOUNDARY,
                                 EPS_CONJ_FACTOR, EPS_NODE, EPS_ROOT,
                                 EPS_SAMPLE_ON_SPHERE, EPS_ZERO,
                                 LOOP_RESOLUTION, guard)

PACKAGE = Path(slicereg.__file__).parent

# The eps of every guard in the package.
_GUARDED = (EPS_ZERO, EPS_SAMPLE_ON_SPHERE, EPS_ROOT, EPS_BOUNDARY, EPS_NODE,
            EPS_CONJ_FACTOR, LOOP_RESOLUTION * math.sqrt(BOUND_SAMPLES))


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
    defined = []
    for node in tolerances.body:
        if isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.FunctionDef):
            defined.append(node.name)
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "tolerances.py":
            read |= _loaded(ast.parse(path.read_text()))
    assert len(defined) > 10
    assert [name for name in defined if name not in read] == []


def test_guard_is_the_plain_threshold_wherever_it_is_finite():
    # Scales from the least subnormal to the largest finite float, 0 and
    # inf; bit for bit against eps * (1.0 + a [+ b]), summed left to right.
    rng = random.Random(29)
    scales = [0.0, 5e-324, 1.7e308, math.inf]
    scales += [2.0 ** rng.uniform(-1074.0, 1023.99) for _ in range(400)]
    finite = 0
    for eps in _GUARDED:
        for _ in range(2000):
            a, b = rng.choice(scales), rng.choice(scales)
            for got, want in ((guard(eps, a), eps * (1.0 + a)),
                              (guard(eps, a, b), eps * (1.0 + a + b))):
                if math.isfinite(want):
                    assert got == want, (eps, a, b)
                    finite += 1
                elif math.inf in (a, b):
                    assert got == math.inf
                else:
                    assert math.isfinite(got), (eps, a, b)
    assert finite > 20000


def test_guard_is_finite_at_the_top_of_the_float_range():
    for eps in _GUARDED:
        assert eps * (1.0 + 1.7e308 + 1.7e308) == math.inf
        assert math.isfinite(guard(eps, 1.7e308, 1.7e308))
