"""Verdicts that must not change under the transformations that leave a
zero set fixed.

Scaling f by a nonzero real c keeps every zero and its multiplicity.
Conjugation by a unit u is an automorphism of H that fixes every sphere
x0 + y0 S: f_u = sum q^n (u a_n u^-1) has f_u(u q u^-1) = u f(q) u^-1, so
f_u has the multiplicities of f on each sphere, at the rotated points.

The inputs are planted f = Q^m * (q - p1) * ... * (q - pn) * g, built by
the star product, on spheres with small centres, where the relative
threshold of the zeros layer holds.  Verdicts (counts and refusals)
must match exactly; points are values and are not compared here.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from slicereg import (UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      SliceRegError, Sphere, analyze_sphere,
                      classical_multiplicity)
from oracles import exact_rotation

# No two are opposite, so consecutive planted points are never conjugate.
_UNITS = (UNIT_I, UNIT_J, UNIT_K, (UNIT_I + UNIT_J) / math.sqrt(2),
          (UNIT_I - UNIT_K) / math.sqrt(2))

_SCALES = (3.0, -1.0, 1e-200, 1e200)


def _verdicts(f: SlicePoly, sphere: Sphere, point: Quaternion) -> tuple:
    """(spherical, isolated) multiplicities of `analyze_sphere` and the
    count of `classical_multiplicity` at `point`, each or its refusal."""
    try:
        report = analyze_sphere(f, sphere)
        sphere_verdict = (report.spherical_mult, report.isolated_mult)
    except SliceRegError as exc:
        sphere_verdict = (type(exc).__name__, str(exc))
    try:
        point_verdict = classical_multiplicity(f, point)
    except SliceRegError as exc:
        point_verdict = (type(exc).__name__, str(exc))
    return sphere_verdict, point_verdict


def _planted(sphere: Sphere, m: int, points: list, g: list) -> SlicePoly:
    f = SlicePoly([Quaternion(*c) for c in g])
    for p in reversed(points):
        f = SlicePoly.linear_factor(p) * f
    for _ in range(m):
        f = SlicePoly.sphere_quadratic(sphere) * f
    return f


_planted_cases = dict(
    x0=st.sampled_from((0.5, -1.25, 2.0)),
    y0=st.sampled_from((0.3, 1.0, 2.0)),
    m=st.integers(0, 2),
    units=st.lists(st.sampled_from(_UNITS), max_size=3),
    g=st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=1,
               max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True,
          database=None)
@given(**_planted_cases)
def test_verdicts_invariant_under_real_scaling(x0, y0, m, units, g):
    sphere = Sphere(x0, y0)
    points = [sphere.point(unit) for unit in units]
    f = _planted(sphere, m, points, g)
    assume(f.coeffs)
    point = points[0] if points else sphere.point(UNIT_I)
    want = _verdicts(f, sphere, point)
    for c in _SCALES:
        scaled = [a * c for a in f.coeffs]
        # Within range: no component of c * a_n overflows or underflows.
        assert all(abs(v * c) >= 2.0 ** -1022 and math.isfinite(v * c)
                   for a in f.coeffs for v in a.to_list() if v)
        assert _verdicts(SlicePoly(scaled), sphere, point) == want


@settings(max_examples=100, deadline=None, derandomize=True,
          database=None)
@given(**_planted_cases,
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
def test_verdicts_invariant_under_rotation(x0, y0, m, units, g, u):
    assume(math.hypot(*u) > 0.1)
    u = Quaternion(*u)
    sphere = Sphere(x0, y0)
    points = [sphere.point(unit) for unit in units]
    f = _planted(sphere, m, points, g)
    assume(f.coeffs)
    point = points[0] if points else sphere.point(UNIT_I)
    rotated = SlicePoly(exact_rotation(a, u) for a in f.coeffs)
    assert _verdicts(rotated, sphere, exact_rotation(point, u)) == \
        _verdicts(f, sphere, point)
