"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are pinned here and nowhere else.
"""

import contextlib
import math
import random
import time

from slicereg import (ONE, UNIT_I, UNIT_J, Quaternion, SlicePoly,
                      Sphere, LemniscateDomain, analyze_sphere,
                      boundary_parameterization, cauchy_eval, circle_contour,
                      classical_multiplicity, coefficient_bound_report,
                      coefficient_integral, complex_jacobian,
                      cullen_derivative, directional_derivative,
                      embed_complex, eval_expansion, expand_at, expand_pair,
                      expansion_multiplicity, orthogonal_unit,
                      representation_eval)
from oracles import (finite_difference_directional, poly_close, quat_close,
                     random_poly, random_quaternion, random_unit,
                     sphere_point)
from test_calculus import _finite_difference_holo


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def _random_sphere_point(rng, x_max=2.0, y_max=2.0):
    x0 = rng.uniform(-x_max, x_max)
    y0 = rng.uniform(0.0, y_max)
    return Sphere(x0, y0), Quaternion(x0, 0, 0, 0) + random_unit(rng) * y0


def test_criterion_1_expansion_exactness():
    with criterion(1, "expansion exactness at random spheres"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(50):
            f = random_poly(rng, 10, scale=5.0)
            _, q0 = _random_sphere_point(rng)
            expansion = expand_at(f, q0, max(int(f.degree), 0) + 1)
            for _ in range(20):
                q = random_quaternion(rng, 1.5)
                exact = f(q)
                got = eval_expansion(expansion, q)
                assert abs(got - exact) <= 1e-9 * (1 + abs(exact))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_2_golden_values():
    with criterion(2, "golden worked examples"):
        # (q-i)*(q+i) = q^2 + 1, exactly
        prod = SlicePoly.linear_factor(UNIT_I) * SlicePoly([UNIT_I, ONE])
        assert prod == SlicePoly([1.0, 0.0, 1.0])

        quad = SlicePoly([1.0, 0.0, 1.0])
        assert classical_multiplicity(quad, UNIT_I) == 1
        assert analyze_sphere(quad, Sphere(0, 1)).spherical_mult == 2

        two_factor = SlicePoly.linear_factor(UNIT_I) * \
            SlicePoly.linear_factor(UNIT_J)
        found = expansion_multiplicity(two_factor, Sphere(0, 1))
        assert found.has_isolated and found.isolated_point == UNIT_I
        report = analyze_sphere(two_factor, Sphere(0, 1))
        assert report.spherical_mult == 0
        assert report.isolated_mult == 2
        assert report.isolated_point == UNIT_I
        # degree sum: deg f = spherical + isolated + deg residual
        assert two_factor.degree == 0 + 2 + report.residual.degree


def test_criterion_3_integral_algebra_agreement():
    with criterion(3, "quadrature coefficients match the algebraic ones"):
        rng = random.Random(103)
        for _ in range(20):
            f = random_poly(rng, 8, scale=2.0)
            sphere, q0 = _random_sphere_point(rng)
            contour = circle_contour(sphere.x0, 2 * sphere.y0 + 1,
                                     UNIT_I if sphere.y0 == 0
                                     else q0.im / q0.im_norm(), 256)
            reference = expand_at(f, q0, max(int(f.degree), 0))
            for n, want in enumerate(reference.coeffs):
                got = coefficient_integral(f, q0, n, contour)
                assert abs(got - want) <= 1e-8 * (1 + abs(want))
        # quadrature error decays at least 10x from 64 to 128 nodes
        f = random_poly(rng, 5)
        z = embed_complex(complex(0.72, 0.54), UNIT_I)  # |z| = 0.9
        exact = f(z)
        errors = {}
        for count in (64, 128):
            contour = circle_contour(0.0, 1.0, UNIT_I, count)
            errors[count] = abs(cauchy_eval(f, z, contour) - exact)
        assert errors[128] > 0
        assert errors[64] / errors[128] >= 10.0


def test_criterion_4_cauchy_estimates():
    with criterion(4, "coefficient bounds hold on lemniscate domains"):
        rng = random.Random(104)
        for _ in range(20):
            f = random_poly(rng, 8, scale=2.0)
            for radius in (0.5, 1.5, 3.0):
                report = coefficient_bound_report(
                    f, LemniscateDomain(0, 1, radius), UNIT_I,
                    int(f.degree) + 2)
                assert report.min_margin >= -1e-6


def test_criterion_5_derivative_correctness():
    with criterion(5, "directional derivatives match finite differences"):
        rng = random.Random(105)
        for _ in range(200):
            f = random_poly(rng, 6, scale=5.0)
            q0 = random_quaternion(rng, 0.6)
            raw = random_quaternion(rng, 1.0)
            if abs(raw) < 0.1:
                raw = UNIT_I
            v = raw / abs(raw)
            got = directional_derivative(f, q0, v)
            want = finite_difference_directional(f, q0, v, step=1e-5)
            assert abs(got - want) <= 1e-7
        # in-slice special case: derivative = v * cullen derivative
        for _ in range(50):
            f = random_poly(rng, 6)
            unit = random_unit(rng)
            q0 = embed_complex(complex(rng.uniform(-1, 1),
                                       rng.uniform(0.1, 1.5)), unit)
            phi = rng.uniform(0, 2 * math.pi)
            v = embed_complex(complex(math.cos(phi), math.sin(phi)), unit)
            got = directional_derivative(f, q0, v)
            want = v * cullen_derivative(f, q0)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))
        # tangent special case: derivative = v * A1
        for _ in range(50):
            f = random_poly(rng, 6)
            unit = random_unit(rng)
            q0 = embed_complex(complex(rng.uniform(-1, 1),
                                       rng.uniform(0.1, 1.5)), unit)
            other = orthogonal_unit(unit)
            phi = rng.uniform(0, 2 * math.pi)
            v = other * math.cos(phi) + (unit * other) * math.sin(phi)
            got = directional_derivative(f, q0, v)
            want = v * expand_at(f, q0, 1).coeffs[1]
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_criterion_6_complex_jacobian():
    with criterion(6, "complex Jacobian blocks"):
        rng = random.Random(106)
        for _ in range(50):
            f = random_poly(rng, 6, scale=2.0)
            q0 = random_quaternion(rng, 0.75)
            jac = complex_jacobian(f, q0)
            fd = _finite_difference_holo(f, q0)
            for row in range(2):
                for col in range(2):
                    assert abs(jac.antiholo[row][col]) <= 1e-7
                    assert abs(jac.holo[row][col] - fd[row][col]) <= 1e-7
        # hand-worked case: f = q^2 at i
        jac = complex_jacobian(SlicePoly([0.0, 0.0, 1.0]), UNIT_I)
        assert abs(jac.holo[0][0] - 2j) <= 1e-10
        assert abs(jac.holo[0][1]) <= 1e-10
        assert abs(jac.holo[1][0]) <= 1e-10
        assert abs(jac.holo[1][1]) <= 1e-10


def test_criterion_7_convergence_dichotomy():
    with criterion(7, "geometric series converge inside, diverge outside"):
        rng = random.Random(107)
        unit_coeff = random_unit(rng)
        sphere = Sphere(0.25, 1.0)
        q0 = sphere.point(UNIT_I)
        quad = SlicePoly.sphere_quadratic(sphere)

        def term_magnitudes(q):
            s = quad(q)
            out = []
            power = ONE
            for _ in range(101):
                out.append(abs(power * unit_coeff))
                out.append(abs(power * ((q - q0) * unit_coeff)))
                power = power * s
            return out[:201]  # indices 0..200

        for _, z, _ in boundary_parameterization(
                LemniscateDomain(sphere.x0, sphere.y0, 0.5), 16)[:6]:
            mags = term_magnitudes(embed_complex(z, UNIT_I))
            assert min(mags) < 1e-8
            # decay is geometric: tail terms keep shrinking
            assert mags[200] < 1e-8 or mags[199] < 1e-8
        for _, z, _ in boundary_parameterization(
                LemniscateDomain(sphere.x0, sphere.y0, 1.5), 16)[:6]:
            mags = term_magnitudes(embed_complex(z, UNIT_I))
            assert max(mags) > 1e6


def test_criterion_8_algebraic_identity_suite():
    with criterion(8, "algebraic identity suite (1000 cases)"):
        rng = random.Random(108)
        start = time.perf_counter()

        for _ in range(200):  # star associativity
            f, g, h = (random_poly(rng, 4) for _ in range(3))
            lhs = (f * g) * h
            rhs = f * (g * h)
            scale = 1 + max(lhs.max_coeff_norm(), rhs.max_coeff_norm())
            assert poly_close(lhs, rhs, 1e-12 * scale)

        for _ in range(200):  # remainder reconstruction
            f = random_poly(rng, 8)
            q0 = random_quaternion(rng, 1.25)
            value, remainder = f.remainder_div(q0)
            recon = SlicePoly([value]) + \
                SlicePoly.linear_factor(q0) * remainder
            assert poly_close(recon, f, 1e-13 * (1 + f.max_coeff_norm()))

        for _ in range(200):  # conjugate-pair quadratic identity
            q0 = random_quaternion(rng, 2.0)
            sphere = Sphere(q0.w, q0.im_norm())
            prod = SlicePoly.linear_factor(q0) * \
                SlicePoly.linear_factor(q0.conj())
            assert poly_close(prod, SlicePoly.sphere_quadratic(sphere),
                              1e-13 * (1 + abs(q0) ** 2))

        for _ in range(200):  # representation formula pair-independence
            sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            f = random_poly(rng, 4)
            q = sphere_point(rng, sphere)
            q1, q2 = sphere_point(rng, sphere), sphere_point(rng, sphere)
            p1, p2 = sphere_point(rng, sphere), sphere_point(rng, sphere)
            if abs(q1 - q2) < 1e-2 or abs(p1 - p2) < 1e-2:
                continue
            a = representation_eval(q1, f(q1), q2, f(q2), sphere, q)
            b = representation_eval(p1, f(p1), p2, f(p2), sphere, q)
            assert quat_close(a, b, 1e-10 * (1 + abs(a)))

        for _ in range(200):  # odd coefficients agree across families
            sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            f = random_poly(rng, 6)
            q1, q2 = sphere_point(rng, sphere), sphere_point(rng, sphere)
            if abs(q1 - q2) < 1e-2:
                continue
            expansion = expand_pair(f, sphere, q1, q2, int(f.degree) + 1)
            scale = 1 + f.max_coeff_norm()
            for n in range(1, len(expansion.coeffs), 2):
                assert quat_close(expansion.coeffs[n],
                                  expansion.sphere_coeffs[n], 1e-9 * scale)

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
