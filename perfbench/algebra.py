"""Algebra workload: a seeded request mix over degrees 4, 16 and 48.

The seed picks one input set per degree; every round sends the same
requests, so the mix is identical across seeds and only the values
change.  Degree 4 is dominated by
per-call overhead (coercion, trimming), degree 48 by the inner loops of
`polynomial` and `expansion`.  No contour is built.
"""

import math
import random

from refmath import (EPS, ONE, ZERO, close, coeffs_close, fd_directional,
                     fd_error_model, Outputs, qabs, qadd, qconj, qmul, qscale,
                     qsub, rand_poly, rand_quat, rand_unit, ref_eval,
                     ref_eval_expansion, ref_sphere_quadratic, ref_star,
                     roundoff_tol, scale_sum, sphere_point)
from spans import Raised

DEGREES = (4, 16, 48)
SMOKE_DEGREES = (4,)
BATCH = 8          # points per Horner evaluation request
# Planted structure per degree: (m, k, deg g) for
# f = [(q-x0)^2+y0^2]^m * (q-p1) * ... * (q-pk) * g.
PLANTED = {4: (1, 1, 1), 16: (2, 2, 10), 48: (3, 2, 40)}


def rand_point(rng, radius=0.9):
    """A random quaternion of modulus at most `radius`."""
    q = rand_quat(rng)
    return qscale(q, radius * rng.uniform(0.3, 1.0) / max(qabs(q), 1e-300))


def rand_sphere(rng):
    return rng.uniform(-0.3, 0.3), rng.uniform(0.6, 0.85)


def sphere_root_distance(coeffs, x0, y0, unit):
    """Distance from the sphere of the root of the affine restriction
    b + q*c of the polynomial (inf when c vanishes)."""
    q1 = sphere_point(x0, y0, unit)
    q2 = qconj(q1)
    v1, v2 = ref_eval(coeffs, q1), ref_eval(coeffs, q2)
    diff = qsub(q1, q2)
    inv = qscale(qconj(diff), 1.0 / (qabs(diff) ** 2))
    c = qmul(inv, qsub(v1, v2))
    b = qsub(v1, qmul(q1, c))
    if qabs(c) == 0.0:
        return math.inf
    cinv = qscale(qconj(c), 1.0 / qabs(c) ** 2)
    root = qscale(qmul(b, cinv), -1.0)
    return abs(math.hypot(root[1], root[2], root[3]) - y0) + abs(root[0] - x0)


class Input:
    """All operands of one round at one degree."""

    def __init__(self, lib, rng, degree):
        self.degree = degree
        Q = lib.Quaternion
        self.a = rand_poly(rng, degree)
        self.b = rand_poly(rng, degree)
        self.f = lib.SlicePoly(Q(*c) for c in self.a)
        self.g = lib.SlicePoly(Q(*c) for c in self.b)
        self.x0, self.y0 = rand_sphere(rng)
        self.unit = rand_unit(rng)
        self.sphere = lib.Sphere(self.x0, self.y0)
        q0 = sphere_point(self.x0, self.y0, self.unit)
        self.q0_t, self.q0 = q0, Q(*q0)
        self.points_t = [rand_point(rng) for _ in range(BATCH)]
        self.points = [Q(*p) for p in self.points_t]
        self.probe_t = rand_point(rng)
        self.probe = Q(*self.probe_t)
        self.real_t = (rng.uniform(-0.5, 0.5), 0.0, 0.0, 0.0)
        self.real = Q(*self.real_t)
        # Series are checked near their base point, where the terms decay
        # and the rounding error of the sum stays small.
        self.near_t = qadd(q0, rand_point(rng, 0.25))
        self.near = Q(*self.near_t)
        self.near_real_t = qadd(self.real_t, rand_point(rng, 0.25))
        self.expansion = lib.expand_at(self.f, self.q0, degree)
        direction = rand_quat(rng)
        self.v_t = qscale(direction, 1.0 / qabs(direction))
        self.v = Q(*self.v_t)
        # Representation formula: two sampled sphere points and a target.
        units = [rand_unit(rng) for _ in range(3)]
        while qabs(qsub(units[0], units[1])) < 0.5:
            units[1] = rand_unit(rng)
        self.rep_t = [sphere_point(self.x0, self.y0, u) for u in units]
        q1, q2, q = (Q(*p) for p in self.rep_t)
        f1 = Q(*ref_eval(self.a, self.rep_t[0]))
        f2 = Q(*ref_eval(self.a, self.rep_t[1]))
        self.rep_args = (q1, f1, q2, f2, self.sphere, q)
        self.fd_step = lib.tolerances.FD_STEP
        self.plant(lib, rng)

    def plant(self, lib, rng):
        m, k, deg_g = PLANTED[self.degree]
        x0, y0 = self.x0, self.y0
        while True:
            g = rand_poly(rng, deg_g, decay=0.9)
            # g must keep the sphere zero-free with margin, so that the
            # planted multiplicities are the true ones.
            if sphere_root_distance(g, x0, y0, rand_unit(rng)) > 0.05:
                break
        points = [sphere_point(x0, y0, rand_unit(rng))]
        while len(points) < k:
            # Consecutive conjugate factors would form a quadratic.
            p = sphere_point(x0, y0, rand_unit(rng))
            if qabs(qsub(points[-1], qconj(p))) > 0.1:
                points.append(p)
        coeffs = [ONE]
        for _ in range(m):
            coeffs = ref_star(coeffs, ref_sphere_quadratic(x0, y0))
        for p in points:
            coeffs = ref_star(coeffs, [qscale(p, -1.0), ONE])
        self.planted_t = ref_star(coeffs, g)
        self.planted = lib.SlicePoly(lib.Quaternion(*c)
                                     for c in self.planted_t)
        self.planted_mult = (2 * m, k, deg_g, points)


class Algebra:
    def setup(self, lib, seed, smoke):
        rng = random.Random(seed)
        self.lib = lib
        degrees = SMOKE_DEGREES if smoke else DEGREES
        self.inputs = [Input(lib, rng, d) for d in degrees]
        self.outputs = Outputs()

    def run_round(self, rec):
        lib = self.lib
        for d, inp in enumerate(self.inputs):
            f = inp.f
            calls = (
                ("polynomial.star", f.__mul__, inp.g),
                ("polynomial.horner", horner_batch, f, inp.points),
                ("polynomial.remainder_div", f.remainder_div, inp.q0),
                ("polynomial.quadratic_div", f.quadratic_div, inp.sphere),
                ("expansion.expand_pair", lib.expand_pair, f, inp.sphere,
                 inp.q0, inp.q0.conj(), inp.degree),
                ("expansion.expand_at", lib.expand_at, f, inp.q0, inp.degree),
                ("request.expand_real", self.expand_real, rec, f, inp.real,
                 inp.degree),
                ("expansion.eval_expansion", lib.eval_expansion,
                 inp.expansion, inp.near),
                ("zeros.analyze_sphere", lib.analyze_sphere, inp.planted,
                 inp.sphere),
                ("zeros.expansion_multiplicity", lib.expansion_multiplicity,
                 inp.planted, inp.sphere),
                ("calculus.directional_derivative",
                 lib.directional_derivative, f, inp.probe, inp.v),
                ("calculus.complex_jacobian", lib.complex_jacobian, f,
                 inp.probe),
                ("quaternion.representation_eval", lib.representation_eval,
                 *inp.rep_args),
            )
            for kind, fn, *args in calls:
                out = rec.request(kind, fn, *args)
                rec.count("products", products(kind, inp))
                self.outputs.add((d, kind), out)

    def expand_real(self, rec, f, q0, order):
        """The expansion request at a real base point: the two-point form
        refuses the degenerate sphere and the base-point form takes over."""
        lib = self.lib
        try:
            rec.call("expansion.expand_pair_refused", lib.expand_pair, f,
                     lib.Sphere(q0.w, 0.0), q0, q0.conj(), order)
        except lib.DegenerateSphere:
            return True, rec.call("expansion.expand_at", lib.expand_at, f,
                                  q0, order)
        return False, None

    def check(self, corrupt=False):
        """Failed requests.  `corrupt` shifts the constant coefficient of
        one reference polynomial, which must then be counted as failures."""
        if corrupt:
            inp = self.inputs[0]
            inp.a = [qadd(inp.a[0], ONE)] + inp.a[1:]

        def check(key, out):
            d, kind = key
            return not isinstance(out, Raised) and \
                CHECKS[kind](self.inputs[d], out)

        return self.outputs.failed(check)


def horner_batch(f, points):
    return [f(q) for q in points]


def as_t(q):
    return (q.w, q.x, q.y, q.z)


def poly_t(p):
    return [as_t(c) for c in p.coeffs]


def tol_for(coeffs, *points):
    r = max([1.0] + [qabs(p) for p in points])
    return 64.0 * roundoff_tol(coeffs, r)


def check_star(inp, out):
    tol = 8.0 * (len(inp.a) + len(inp.b)) * EPS \
        * scale_sum(inp.a, 1.0) * scale_sum(inp.b, 1.0)
    return coeffs_close(poly_t(out), ref_star(inp.a, inp.b), tol)


def check_horner(inp, out):
    return len(out) == len(inp.points_t) and all(
        close(as_t(v), ref_eval(inp.a, p), tol_for(inp.a, p))
        for v, p in zip(out, inp.points_t))


def check_remainder(inp, out):
    value, rem = out
    q0 = inp.q0_t
    # f = value + (q - q0) * R, rebuilt coefficientwise.
    rebuilt = ref_star([qscale(q0, -1.0), ONE], poly_t(rem) or [ZERO])
    rebuilt[0] = qadd(rebuilt[0], as_t(value))
    return coeffs_close(rebuilt, inp.a, tol_for(inp.a, q0))


def check_quadratic(inp, out):
    quot, rem = out
    rebuilt = ref_star(poly_t(quot) or [ZERO],
                       ref_sphere_quadratic(inp.x0, inp.y0))
    rest = poly_t(rem)
    for n, c in enumerate(rest):
        rebuilt[n] = qadd(rebuilt[n], c)
    return len(rest) <= 2 and coeffs_close(rebuilt, inp.a,
                                           tol_for(inp.a, inp.q0_t))


def series_matches(inp, coeffs, x0, y0, base, p, value=None):
    """The series with these coefficients sums to f(p), and so does
    `value` when given, within the rounding error of the series."""
    series, size = ref_eval_expansion([as_t(c) for c in coeffs], x0, y0,
                                      base, p)
    tol = 64.0 * (len(coeffs) + 4) * EPS * size + tol_for(inp.a, p)
    expected = ref_eval(inp.a, p)
    return close(series, expected, tol) and (
        value is None or close(value, expected, tol))


def check_expand_pair(inp, out):
    args = (inp.x0, inp.y0)
    return (out.sphere_coeffs is not None
            and series_matches(inp, out.coeffs, *args, inp.q0_t, inp.near_t)
            and series_matches(inp, out.sphere_coeffs, *args, ZERO,
                               inp.near_t))


def check_expand_at(inp, out):
    return series_matches(inp, out.coeffs, inp.x0, inp.y0, inp.q0_t,
                          inp.near_t)


def check_expand_real(inp, out):
    fell_back, exp = out
    return fell_back and series_matches(inp, exp.coeffs, inp.real_t[0], 0.0,
                                        inp.real_t, inp.near_real_t)


def check_eval_expansion(inp, out):
    return series_matches(inp, inp.expansion.coeffs, inp.x0, inp.y0,
                          inp.q0_t, inp.near_t, value=as_t(out))


def check_analyze(inp, out):
    two_m, k, deg_g, points = inp.planted_mult
    tol = 1e-6
    return (out.spherical_mult == two_m and out.isolated_mult == k
            and len(out.factors) == k
            and all(close(as_t(got), want, tol)
                    for got, want in zip(out.factors, points))
            and close(as_t(out.isolated_point), points[0], tol)
            and out.residual.degree == deg_g)


def check_expansion_mult(inp, out):
    two_m, k, _, points = inp.planted_mult
    return (out.spherical_mult == two_m and out.has_isolated == (k > 0)
            and close(as_t(out.isolated_point), points[0], 1e-6))


def split_t(q, unit_i, unit_j):
    ij = qmul(unit_i, unit_j)

    def dot(u):
        return q[1] * u[1] + q[2] * u[2] + q[3] * u[3]

    return complex(q[0], dot(unit_i)), complex(dot(unit_j), dot(ij))


def check_directional(inp, out):
    h = inp.fd_step
    expected = fd_directional(inp.a, inp.probe_t, inp.v_t, h)
    return close(as_t(out), expected, fd_error_model(inp.a, inp.probe_t, h))


def check_jacobian(inp, out):
    h = inp.fd_step
    q0 = inp.probe_t
    im = math.hypot(q0[1], q0[2], q0[3])
    unit_i = (0.0, q0[1] / im, q0[2] / im, q0[3] / im)
    unit_j = as_t(out.normal_unit)
    if not (close(as_t(out.slice_unit), unit_i, 1e-12)
            and abs(qabs(unit_j) - 1.0) <= 1e-12 and abs(unit_j[0]) <= 1e-12
            and abs(sum(a * b for a, b in zip(unit_i, unit_j))) <= 1e-12):
        return False
    basis = (ONE, unit_i, unit_j, qmul(unit_i, unit_j))
    partials = [split_t(fd_directional(inp.a, q0, e, h), unit_i, unit_j)
                for e in basis]
    tol = fd_error_model(inp.a, q0, h)
    for comp in (0, 1):
        holo = (partials[0][comp], partials[2][comp])
        for got, want in zip(out.holo[comp], holo):
            if abs(got - want) > tol:
                return False
        if max(abs(c) for c in out.antiholo[comp]) > tol:
            return False
    return True


def check_representation(inp, out):
    q1, q2, target = inp.rep_t
    # The formula divides by q2 - q1, which amplifies rounding in the
    # sampled values by up to this factor.
    gain = 4.0 * (qabs(q1) + qabs(q2) + qabs(target)) / qabs(qsub(q2, q1))
    return close(as_t(out), ref_eval(inp.a, target),
                 gain * tol_for(inp.a, target))


CHECKS = {
    "polynomial.star": check_star,
    "polynomial.horner": check_horner,
    "polynomial.remainder_div": check_remainder,
    "polynomial.quadratic_div": check_quadratic,
    "expansion.expand_pair": check_expand_pair,
    "expansion.expand_at": check_expand_at,
    "request.expand_real": check_expand_real,
    "expansion.eval_expansion": check_eval_expansion,
    "zeros.analyze_sphere": check_analyze,
    "zeros.expansion_multiplicity": check_expansion_mult,
    "calculus.directional_derivative": check_directional,
    "calculus.complex_jacobian": check_jacobian,
    "quaternion.representation_eval": check_representation,
}


# -- computed quaternion-product counts ----------------------------------

def expansion_products(length, order, pair):
    """Hamilton products of the alternating remainder-division loop."""
    total = 0
    for _ in range(order // 2 + 1):
        total += max(length - 1, 0) + max(length - 2, 0)
        if pair:
            total += 2 * max(length - 1, 0) + 4
        length = max(length - 2, 0)
    return total


def products(kind, inp):
    """Hamilton products a request performs, computed from operand sizes
    (a model count, not a measurement)."""
    n = inp.degree + 1
    if kind == "polynomial.star":
        return n * n
    if kind == "polynomial.horner":
        return BATCH * (n - 1)
    if kind == "polynomial.remainder_div":
        return n - 1
    if kind == "polynomial.quadratic_div":
        return 0
    if kind == "expansion.expand_pair":
        return expansion_products(n, inp.degree, True)
    if kind in ("expansion.expand_at", "request.expand_real"):
        return expansion_products(n, inp.degree, False)
    if kind == "expansion.eval_expansion":
        return 2 * n + 1
    if kind == "zeros.analyze_sphere":
        _, k, deg_g, _ = inp.planted_mult
        return (k + 1) * 3 * (k + deg_g + 1)
    if kind == "zeros.expansion_multiplicity":
        return expansion_products(n, inp.degree + 1, True)
    if kind == "calculus.directional_derivative":
        return 3 * n
    if kind == "calculus.complex_jacobian":
        return 11 * n
    return 6
