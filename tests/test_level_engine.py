"""Every caller of the sphere-level engine, `polynomial._sphere_levels`,
pinned by a digest of its outputs.

The engine divides f repeatedly by a sphere's quadratic and reads each
remainder; a change to how it reads them must leave every value, signed
zeros and last bits included, and every refusal as it was.  The digest is
a sha256 over the repr of each output, or the class and message of each
refusal, of seeded calls whose inputs cover signed-zero components and
coefficients, remainders that end in exact zeros (x0 = +-0 with y0 = 0,
and exact planted quadratic factors), centres 0, -0.0 and +-400, radii 0,
1e-9 and O(1), and scales 1e-150 to 1e150, and 1e300 and 1e306, where
levels, expansion coefficients and derivatives overflow and are refused.
"""

import hashlib
import random

from slicereg import (Quaternion, SlicePoly, SliceRegError, Sphere,
                      analyze_sphere, cullen_derivative,
                      directional_derivative, expand_at, expand_pair,
                      expansion_multiplicity)
from oracles import random_quaternion, random_unit

# sha256 of `_outputs(1200)`: a changed value, signed zero or refusal of
# any caller of the engine changes it.
DIGEST = "881a0427bc02f785e35c4dbbcaded1428b74e0cc7eb606ac44fdf0dd01e440eb"


def _case(rng: random.Random) -> tuple[SlicePoly, Sphere]:
    """A polynomial and a sphere.  A quarter of the polynomials are
    multiples Q^m g of the sphere's quadratic Q, with integer g and a
    power-of-two scale, so their first m remainders are exact zeros; half
    of those carry a factor q - p with p on the sphere as well."""
    x0 = rng.choice((0.0, -0.0, 400.0, -400.0, rng.uniform(-2, 2)))
    y0 = rng.choice((0.0, 1e-9, 0.5, 1.0, rng.uniform(0.25, 3)))
    sphere = Sphere(x0, y0)
    if rng.random() < 0.25:
        quad = SlicePoly.sphere_quadratic(sphere)
        f = SlicePoly(Quaternion(*(rng.randint(-9, 9) for _ in range(4)))
                      for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(1, 2)):
            f = f * quad
        if rng.random() < 0.5:
            f = f * SlicePoly.linear_factor(sphere.point(random_unit(rng)))
        return f * 2.0 ** rng.choice((-498, 0, 498)), sphere
    scale = rng.choice((1e-150, 1.0, 1e150, 1e300, 1e306))
    coeffs = [[rng.choice((0.0, -0.0)) if rng.random() < 0.2
               else rng.uniform(-scale, scale) for _ in range(4)]
              for _ in range(rng.randint(0, 14))]
    for c in coeffs:
        if rng.random() < 0.15:
            c[:] = (rng.choice((0.0, -0.0)) for _ in range(4))
    return SlicePoly(Quaternion(*c) for c in coeffs), sphere


def _outputs(count: int) -> list[str]:
    """One line per call: the repr of its output, or its refusal."""
    rng = random.Random(2611)
    lines = []
    for _ in range(count):
        f, sphere = _case(rng)
        q0 = sphere.point(random_unit(rng))
        real = Quaternion(sphere.x0, 0.0, 0.0, 0.0)
        order = rng.randint(0, 2 * max(len(f.coeffs), 1) + 2)
        v = random_quaternion(rng)
        calls = (
            (f.quadratic_div, sphere),
            (expand_at, f, q0, order),
            (expand_at, f, real, order),
            (expand_pair, f, sphere, q0, q0.conj(), order),
            (analyze_sphere, f, sphere),
            (expansion_multiplicity, f, sphere),
            (directional_derivative, f, q0, v / abs(v)),
            (cullen_derivative, f, q0),
        )
        for fn, *args in calls:
            try:
                out = repr(fn(*args))
            except (SliceRegError, ArithmeticError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            lines.append(f"{fn.__name__} {out}")
    return lines


def test_engine_callers_match_pinned_digest():
    lines = _outputs(1200)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
