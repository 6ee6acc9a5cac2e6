"""Verdicts that must not change under the transformations that leave a
zero set fixed.

Scaling f by a nonzero real c keeps every zero and its multiplicity.
Conjugation by a unit u is an automorphism of H that fixes every sphere
x0 + y0 S: f_u = sum q^n (u a_n u^-1) has f_u(u q u^-1) = u f(q) u^-1, so
f_u has the multiplicities of f on each sphere, at the rotated points.

The verdicts' inputs are planted f = Q^m * (q - p1) * ... * (q - pn) * g,
built by the star product, on spheres with small centres, where the
relative threshold of the zeros layer holds.  Verdicts (counts and
refusals) must match exactly; points are values and are not compared
there.  Values (expansion coefficients, directional derivatives,
coefficient integrals and Cauchy's formula) rotate within first-order
roundoff bounds derived below.
"""

import cmath
import math
import random

from hypothesis import assume, given, settings, strategies as st

from slicereg import (UNIT_I, UNIT_J, UNIT_K, LemniscateDomain, Quaternion,
                      SlicePoly, SliceRegError, Sphere, analyze_sphere,
                      cauchy_eval, circle_contour, classical_multiplicity,
                      coefficient_integral, directional_derivative,
                      embed_complex, expand_at, lemniscate_contour)
from oracles import exact_rotation, random_quaternion, random_unit

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


# Value relations.  f_u(u q0 u^-1) = u f(q0) u^-1 for all q gives
# A_n(f_u, u q0 u^-1) = u A_n(f, q0) u^-1 and the same for the derivative
# along u e u^-1; both sides are computed in floats from inputs rounded
# once (exact_rotation), and the right side is rounded once more.
#
# The levels.  `_sphere_levels` divides each dividend g by
# Q = q^2 - t q + s (t = 2 x0, s = x0^2 + y0^2) one real component at a
# time: the entry at position p is V_p = (g_p - s V_p+2) + t V_p+1, four
# roundings, each within u of its result (u the unit roundoff; the
# moduli bound the four components at once).  So the computed quotient
# and remainder divide g + delta exactly, with
#     |delta_p| <= u (|g_p| + 2 s |V_p+2| + t |V_p+1| + |V_p|),
# and level L's delta enters C_n as Q^L q^p does: through c_(n-2L)(q^p),
# the level coefficients of q^p, from q (b + q c) = -s c + q (b + t c) + Q c.
# The inputs add u |a_p| c_n(q^p) for the coefficients, and
# 8 u s (m + 1) |C_(n+2)| for s (y0 = |Im q0| within 3u after its
# components are rounded, s within 8u): dividing by Q + eps instead of Q
# moves level m by eps (m + 1) times level m + 1, to first order.
# A_2m = C_2m + q0 C_2m+1 adds |q0| times the error of C_2m+1,
# u |q0| |C_2m+1| for q0, and 2 gamma_5 |q0| |C_2m+1| + u |A_2m| for the
# product written out inside the sum (Cauchy-Schwarz over the four pairs
# of each component, as for the star product).
#
# The derivative e A1 + w A2, w = q0 e - e conj(q0), adds 2 gamma_5
# (|e| |A1| + |w| |A2|) for its two products and their sum,
# 4 gamma_5 |q0| |e| |A2| for w, and u |e| (|A1| + 2 |q0| |A2|) +
# 2 u |q0| |e| |A2| for e and q0.  Second-order terms are far below
# u |A| here: degree <= 48 and |x0|, y0 <= 2.

U = 2.0 ** -53
GAMMA_5 = 5 * U / (1 - 5 * U)


def _power_levels(sphere: Sphere, degree: int, count: int) -> list:
    """|c_n(q^p)| for p <= degree, n < count."""
    t, s = 2.0 * sphere.x0, sphere.x0 ** 2 + sphere.y0 ** 2
    width = count // 2 + 1
    b, c = [1.0] + [0.0] * width, [0.0] * (width + 1)
    rows = []
    for _ in range(degree + 1):
        rows.append([abs(v) for pair in zip(b, c) for v in pair][:count])
        b, c = ([-s * c[m] + (c[m - 1] if m else 0.0)
                 for m in range(width + 1)],
                [b[m] + t * c[m] for m in range(width + 1)])
    return rows


def _level_bounds(f: SlicePoly, q0: Quaternion, count: int) -> tuple:
    """Bounds on |C_n - exact C_n| for n < count, and C_0..C_count+1."""
    sphere = Sphere.through(q0)
    t, s = abs(2.0 * sphere.x0), sphere.x0 ** 2 + sphere.y0 ** 2
    table = _power_levels(sphere, max(f.degree, 0), count)
    levels = expand_at(f, q0, count + 1).sphere_coeffs
    bounds = [U * math.fsum(abs(a) * row[n]
                            for a, row in zip(f.coeffs, table))
              + 8 * U * s * (n // 2 + 1) * abs(levels[n + 2])
              for n in range(count)]
    g, lo = f, 0
    while lo < count and g.coeffs:
        quotient, rest = g.quadratic_div(sphere)
        v = [abs(c) for c in (*rest.coeffs, *[0.0] * (2 - len(rest.coeffs)),
                              *quotient.coeffs, 0.0, 0.0)]
        for p, a in enumerate(g.coeffs):
            delta = U * (abs(a) + 2 * s * v[p + 2] + t * v[p + 1] + v[p])
            for n in range(lo, count):
                bounds[n] += delta * table[p][n - lo]
        g, lo = quotient, lo + 2
    return bounds, levels


def _coefficient_bounds(f: SlicePoly, q0: Quaternion, order: int) -> list:
    """Bounds on |A_n - exact A_n| for n <= order."""
    level, c = _level_bounds(f, q0, order + 2)
    size = abs(q0)
    return [level[n] if n % 2 else
            level[n] + size * level[n + 1]
            + (2 * GAMMA_5 + U) * size * abs(c[n + 1])
            + U * abs(c[n] + q0 * c[n + 1])
            for n in range(order + 1)]


def _derivative_bound(f: SlicePoly, q0: Quaternion, e: Quaternion) -> float:
    """Bound on |df(q0)[e] - exact| along a unit e."""
    level, c = _level_bounds(f, q0, 4)
    size = abs(q0)
    a1, a2 = abs(c[1]), abs(c[2] + q0 * c[3])
    w = abs(q0 * e - e * q0.conj())
    err2 = (level[2] + size * level[3]
            + (2 * GAMMA_5 + U) * size * abs(c[3]) + U * a2)
    return (level[1] + w * err2 + 2 * GAMMA_5 * (a1 + w * a2)
            + 4 * GAMMA_5 * size * a2 + U * (a1 + 2 * size * a2)
            + 2 * U * size * a2)


def _rotation_case(seed: int, x0: float, y0: float, degree: int) -> tuple:
    """f, q0 on the sphere (x0, y0), a unit e, and a unit u."""
    rng = random.Random(seed)
    f = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    q0 = Sphere(x0, y0).point(random_unit(rng))
    e, u = (q / abs(q) for q in (random_quaternion(rng),
                                 random_quaternion(rng)))
    return f, q0, e, u


_rotation_cases = dict(
    seed=st.integers(0, 2 ** 32),
    x0=st.sampled_from((0.5, -1.25, 2.0)),
    y0=st.sampled_from((0.3, 1.0, 2.0)),
    degree=st.sampled_from((4, 16, 48)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_rotation_cases)
def test_expansion_rotates_with_f(seed, x0, y0, degree):
    f, q0, _, u = _rotation_case(seed, x0, y0, degree)
    rotated = SlicePoly(exact_rotation(a, u) for a in f.coeffs)
    q0_u = exact_rotation(q0, u)
    got = expand_at(rotated, q0_u, 8).coeffs
    want = expand_at(f, q0, 8).coeffs
    for a_u, a, b_u, b in zip(got, want, _coefficient_bounds(rotated, q0_u, 8),
                              _coefficient_bounds(f, q0, 8)):
        assert abs(a_u - exact_rotation(a, u)) <= b_u + b + U * abs(a)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_rotation_cases)
def test_directional_derivative_rotates_with_f(seed, x0, y0, degree):
    f, q0, e, u = _rotation_case(seed, x0, y0, degree)
    rotated = SlicePoly(exact_rotation(a, u) for a in f.coeffs)
    q0_u, e_u = exact_rotation(q0, u), exact_rotation(e, u)
    got = directional_derivative(rotated, q0_u, e_u)
    want = directional_derivative(f, q0, e)
    bound = (_derivative_bound(rotated, q0_u, e_u)
             + _derivative_bound(f, q0, e) + U * abs(want))
    assert abs(got - exact_rotation(want, u)) <= bound



# Quadrature.  The contour's points and weights are the same complex
# numbers in the plane of I and in that of I_u = u I u^-1, and
# f_u(u s u^-1) = u f(s) u^-1 at every node, so the exact discrete sums
# rotate: P(f_u, z0, I_u) = u P(f, z0, I) u^-1, with
# P = (1 / 2 pi i) sum_m c_m f(z_m) and c_m = k(z_m) w_m the kernel of
# `coefficient_integral` about the plane image z0 of q0.  Each side is
# computed from its own inputs; with
#     B = (1 / 2 pi) sum_m |c_m| sum_n |a_n| |z_m|^n,
# to first order in u:
#   - a complex sum, product or quotient is within 6 u of its result,
#     so the kernel of index 2p or 2p - 1, p >= 1, from two differences,
#     their product, the division by s - z0 and p divisions by
#     Q = (s - z0)(s - conj z0), is within 6 (4 + p) u of c_m, and that
#     of index 0, one difference and one division, within 12 u;
#   - the moment mu_n = sum_m c_m z_m^n takes 6 u per power of z_m
#     and u per level of the pairwise sum, ceil(log2 N) levels;
#   - the split a_n = alpha_n + beta_n J forms each part from dot
#     products of three terms, within 3 u |a_n|, and the products
#     alpha_n mu_n, the sum over the d + 1 of them, the scale and the
#     reassembly with J add 6 u + d u + 6 u + 4 u;
# so each side is within gamma u B, gamma = k + 6 d + ceil(log2 N) + 19
# with k the kernel's bound in units of u.  The inputs add u B for the
# coefficients of f_u, rounded once by exact_rotation, and 4 u B for
# I_u, rounded once, whose components enter every split and embedding.
# The plane images z0 of q0 and of q0_u differ by at most 8 u |q0| (q0_u
# is rounded once, each image is a rounded dot product of three terms),
# and c_m moves by at most (index + 1) |c_m| / delta per unit of z0,
# delta the least distance from a node to a pole of the kernel: that
# adds 8 u |q0| (index + 1) / delta times B.  Rounding the rotated
# reference once more adds u |value| <= u B.


def _integral_bound(f: SlicePoly, contour, z0: complex, index: int) -> float:
    """Bound on |integral of f_u - u (integral of f) u^-1| at the pole z0
    of the kernel of `coefficient_integral`, from one side's f and B
    (the two sides' B agree to first order in u)."""
    powers, odd = divmod(index, 2)
    poles = (z0, z0.conjugate()) if index else (z0,)
    magnitude = math.fsum(
        abs(w) / abs(z - z0) ** (1 - odd)
        / (abs(z - z0) * abs(z - z0.conjugate())) ** (powers + odd)
        * math.fsum(abs(a) * abs(z) ** n for n, a in enumerate(f.coeffs))
        for z, w in zip(contour.points, contour.weights))
    b = magnitude / (2.0 * math.pi)
    delta = min(abs(z - pole) for z in contour.points for pole in poles)
    kernel = 6 * (4 + (index + 1) // 2) if index else 12
    gamma = kernel + 6 * f.degree + math.ceil(math.log2(len(contour))) + 19
    return ((2 * gamma + 1 + 4 + 1) * U
            + 8 * U * abs(z0) * (index + 1) / delta) * b


_integral_cases = dict(
    seed=st.integers(0, 2 ** 32),
    x0=st.sampled_from((0.5, -1.25, 2.0)),
    y0=st.sampled_from((0.3, 1.0, 2.0)),
    degree=st.sampled_from((4, 16)),
    family=st.sampled_from(("circle", "lemniscate")))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_integral_cases)
def test_coefficient_integrals_rotate_with_f(seed, x0, y0, degree, family):
    # A circle of radius 1.5 y0 about x0 around both sphere points, or the
    # two loops of U(x0 + y0 S, y0 / 2) around them; the Cauchy point sits
    # at a third of the loop radius from q0 (a sixth of y0 on circles).
    rng = random.Random(seed)
    f = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    unit = random_unit(rng)
    u = random_quaternion(rng)
    u = u / abs(u)
    if family == "circle":
        reach = y0 / 6.0

        def build(plane):
            return circle_contour(x0, 1.5 * y0, plane, 64)
    else:
        domain = LemniscateDomain(x0, y0, 0.5 * y0)
        reach = y0 / 24.0

        def build(plane):
            return lemniscate_contour(domain, plane, 64)
    unit_u = exact_rotation(unit, u)
    contour, contour_u = build(unit), build(unit_u)
    rotated = SlicePoly(exact_rotation(a, u) for a in f.coeffs)
    z0 = complex(x0, y0)
    zc = z0 + reach * cmath.exp(1j * rng.uniform(0.0, math.tau))
    q0, point = embed_complex(z0, unit), embed_complex(zc, unit)
    cases = [(lambda g, q, c, i=i: coefficient_integral(g, q, i, c), q0, z0,
              i) for i in range(4)]
    cases.append((cauchy_eval, point, zc, 0))
    for call, q, pole, index in cases:
        want = call(f, q, contour)
        got = call(rotated, exact_rotation(q, u), contour_u)
        bound = _integral_bound(f, contour, pole, index)
        assert abs(got - exact_rotation(want, u)) <= bound
