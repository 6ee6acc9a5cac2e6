import math
import random

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      Sphere, DegenerateSphere, LemniscateDomain, Region,
                      Shape, SphericalExpansion, boundary_parameterization,
                      boundary_points, embed_complex, eval_expansion,
                      expand_at, expand_pair, modulus_bounds,
                      radius_of_convergence)
from oracles import (binomial_taylor_coeffs, exact_sphere_levels,
                     oracle_convolution, oracle_eval, quat_close, random_poly,
                     random_quaternion, random_unit, sphere_point,
                     tracked_boundary, two_point_sphere_coeffs)

QSQ = SlicePoly([0.0, 0.0, 1.0])


def test_expand_at_square():
    expansion = expand_at(QSQ, UNIT_I, 4)
    expected = [-ONE, Quaternion(0, 0, 0, 0), ONE,
                Quaternion(0, 0, 0, 0), Quaternion(0, 0, 0, 0)]
    assert list(expansion.coeffs) == expected
    # reconstruction: -1 + (q^2+1)*1 = q^2, by the convolution oracle
    recon = oracle_convolution(SlicePoly([1.0, 0.0, 1.0]).coeffs, (ONE,))
    recon[0] = recon[0] - ONE
    assert SlicePoly(recon) == QSQ


def test_expand_at_constant():
    c = Quaternion(2, -1, 0, 3)
    expansion = expand_at(SlicePoly.constant(c), UNIT_J, 5)
    assert expansion.coeffs[0] == c
    assert all(abs(a) == 0 for a in expansion.coeffs[1:])


def test_expand_at_identity_map():
    expansion = expand_at(SlicePoly.variable(), UNIT_I, 3)
    # q = i + (q - i) * 1
    assert list(expansion.coeffs[:2]) == [UNIT_I, ONE]
    assert all(abs(a) == 0 for a in expansion.coeffs[2:])


def test_expand_pair_square():
    expansion = expand_pair(QSQ, Sphere(0, 1), UNIT_I, UNIT_J, 3)
    expected = [-ONE, Quaternion(0, 0, 0, 0), ONE, Quaternion(0, 0, 0, 0)]
    for got, want in zip(expansion.sphere_coeffs, expected):
        assert quat_close(got, want, 1e-14)


def test_expand_pair_constant_and_identity():
    c = Quaternion(0.5, 1, -1, 2)
    expansion = expand_pair(SlicePoly.constant(c), Sphere(0, 1),
                            UNIT_I, UNIT_J, 3)
    assert quat_close(expansion.sphere_coeffs[0], c, 1e-14)
    assert all(abs(x) <= 1e-14 for x in expansion.sphere_coeffs[1:])

    expansion = expand_pair(SlicePoly.variable(), Sphere(0, 1),
                            UNIT_I, UNIT_J, 3)
    assert quat_close(expansion.sphere_coeffs[0], Quaternion(0, 0, 0, 0), 1e-14)
    assert quat_close(expansion.sphere_coeffs[1], ONE, 1e-14)


def test_expand_pair_rejects_equal_points():
    with pytest.raises(DegenerateSphere):
        expand_pair(QSQ, Sphere(0, 1), UNIT_I, UNIT_I, 2)


def test_eval_expansion_square():
    expansion = expand_at(QSQ, UNIT_I, 4)
    q = Quaternion(1, 0, 0, 1)
    got = eval_expansion(expansion, q)
    assert quat_close(got, oracle_eval(QSQ.coeffs, q), 1e-14)


def test_eval_expansion_at_base_and_conjugate():
    rng = random.Random(30)
    f = random_poly(rng, 6)
    q0 = Quaternion(0.5, 1, -0.5, 0.25)
    expansion = expand_at(f, q0, 8)
    # at q0 every term beyond A_0 vanishes
    assert quat_close(eval_expansion(expansion, q0), expansion.coeffs[0],
                      1e-12 * (1 + abs(expansion.coeffs[0])))
    # at conj(q0) the quadratic vanishes, leaving A_0 + (conj(q0)-q0) A_1
    expected = expansion.coeffs[0] + (q0.conj() - q0) * expansion.coeffs[1]
    assert quat_close(eval_expansion(expansion, q0.conj()), expected,
                      1e-12 * (1 + abs(expected)))


def test_expansion_exactness_random():
    rng = random.Random(31)
    for _ in range(40):
        f = random_poly(rng, 12)
        x0 = rng.uniform(-2, 2)
        y0 = rng.uniform(0, 2)
        q0 = Quaternion(x0, 0, 0, 0) + random_unit(rng) * y0
        expansion = expand_at(f, q0, max(int(f.degree), 0) + 1)
        for _ in range(5):
            q = random_quaternion(rng, 1.5)
            exact = f(q)
            got = eval_expansion(expansion, q)
            assert quat_close(got, exact, 1e-9 * (1 + abs(exact)))


def test_expansion_pair_form_evaluates():
    rng = random.Random(32)
    f = random_poly(rng, 7)
    sphere = Sphere(0.5, 1.25)
    expansion = expand_pair(f, sphere, sphere.point(UNIT_I),
                            sphere.point(UNIT_J), int(f.degree) + 1)
    for _ in range(10):
        q = random_quaternion(rng, 1.5)
        exact = f(q)
        got = eval_expansion(expansion, q, form="pair")
        assert quat_close(got, exact, 1e-9 * (1 + abs(exact)))


def test_reconstruction_at_every_depth():
    # f - partial_sum_n = [(q-x0)^2+y0^2]^(n+1) * remainder, checked
    # coefficientwise by repeated quadratic division
    rng = random.Random(33)
    f = random_poly(rng, 9)
    sphere = Sphere(0.75, 1.1)
    q0 = sphere_point(rng, sphere)
    quad = SlicePoly.sphere_quadratic(sphere)
    expansion = expand_at(f, q0, int(f.degree) + 2)
    linear = SlicePoly.linear_factor(q0)
    partial = SlicePoly.zero()
    for n in range(len(expansion.coeffs) // 2):
        partial = partial + quad ** n * expansion.coeffs[2 * n]
        partial = partial + quad ** n * linear * expansion.coeffs[2 * n + 1]
        diff = f - partial
        scale = 1e-10 * (1 + f.max_coeff_norm())
        for _ in range(n + 1):
            diff, remainder = diff.quadratic_div(sphere)
            assert remainder.max_coeff_norm() <= scale


def test_odd_coefficients_coincide():
    rng = random.Random(34)
    for _ in range(30):
        f = random_poly(rng, 8)
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        q1 = sphere_point(rng, sphere)
        q2 = sphere_point(rng, sphere)
        if abs(q1 - q2) < 1e-3:
            continue
        expansion = expand_pair(f, sphere, q1, q2, int(f.degree) + 1)
        scale = 1 + f.max_coeff_norm()
        for n in range(1, len(expansion.coeffs), 2):
            assert quat_close(expansion.coeffs[n], expansion.sphere_coeffs[n],
                              1e-9 * scale)


def test_pair_coefficients_independent_of_pair():
    rng = random.Random(35)
    for _ in range(20):
        f = random_poly(rng, 7)
        sphere = Sphere(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        results = []
        for _ in range(3):
            q1 = sphere_point(rng, sphere)
            q2 = sphere_point(rng, sphere)
            if abs(q1 - q2) < 1e-2:
                continue
            results.append(expand_pair(f, sphere, q1, q2,
                                       int(f.degree) + 1).sphere_coeffs)
        scale = 1 + f.max_coeff_norm()
        for coeffs in results[1:]:
            for a, b in zip(results[0], coeffs):
                assert quat_close(a, b, 1e-9 * scale)


def test_sphere_coeffs_match_two_point_oracle():
    rng = random.Random(37)
    checked = 0
    for _ in range(30):
        f = random_poly(rng, 8)
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        q1 = sphere_point(rng, sphere)
        q2 = sphere_point(rng, sphere)
        if abs(q1 - q2) < 1e-3 or abs(q1.conj() - q2) < 1e-3:
            continue
        order = int(f.degree) + 1
        expected = two_point_sphere_coeffs(f, sphere, q1, q2, order)
        scale = 1 + f.max_coeff_norm()
        for got in (expand_pair(f, sphere, q1, q2, order).sphere_coeffs,
                    expand_at(f, q1, order).sphere_coeffs):
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert quat_close(a, b, 1e-9 * scale)
        checked += 1
    assert checked >= 20


def test_odd_sphere_coeffs_equal_base_coeffs_exactly():
    rng = random.Random(38)
    for _ in range(20):
        f = random_poly(rng, 8)
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        q0 = sphere_point(rng, sphere)
        for order in (0, 1, int(f.degree) + 1):
            for expansion in (expand_at(f, q0, order),
                              expand_pair(f, sphere, q0, q0.conj(), order)):
                assert len(expansion.sphere_coeffs) == order + 1
                assert expansion.sphere_coeffs[1::2] == expansion.coeffs[1::2]


def test_degenerate_sphere_gives_taylor():
    rng = random.Random(36)
    for _ in range(20):
        f = random_poly(rng, 8)
        x0 = rng.uniform(-1.5, 1.5)
        expansion = expand_at(f, Quaternion(x0, 0, 0, 0), int(f.degree))
        expected = binomial_taylor_coeffs(f, x0)
        scale = 1 + max(abs(c) for c in expected)
        for got, want in zip(expansion.coeffs, expected):
            assert quat_close(got, want, 1e-11 * scale)


def test_radius_of_convergence():
    halves = [Quaternion(2.0 ** -n, 0, 0, 0) for n in range(64)]
    assert abs(radius_of_convergence(halves) - 2.0) <= 0.1  # within 5%

    ones = [ONE for _ in range(64)]
    assert abs(radius_of_convergence(ones) - 1.0) <= 1e-12

    # zero tail in the window also reads as polynomial
    padded = list(QSQ.coeffs) + [Quaternion(0, 0, 0, 0)] * 32
    assert radius_of_convergence(padded) == math.inf


def test_membership_classification():
    domain = LemniscateDomain(0, 1, 1)
    assert domain.classify(UNIT_I) == Region.INSIDE  # on the sphere
    assert domain.classify(Quaternion(0, 0, 0, 0)) == Region.BOUNDARY
    assert domain.classify(Quaternion(3, 0, 0, 0)) == Region.OUTSIDE
    # sphere points are inside for any radius
    tiny = LemniscateDomain(0.5, 1.5, 1e-3)
    assert tiny.classify(Quaternion(0.5, 0, 1.5, 0)) == Region.INSIDE


def test_domain_validation():
    with pytest.raises(ValueError):
        LemniscateDomain(0, -1, 1)
    with pytest.raises(ValueError):
        LemniscateDomain(0, 1, 0)


def test_topology_classification():
    assert LemniscateDomain(0, 1, 0.5).shape() == Shape.TWO_COMPONENTS
    assert LemniscateDomain(0, 1, 1.0).shape() == Shape.FIGURE_EIGHT
    assert LemniscateDomain(0, 1, 2.0).shape() == Shape.CONNECTED
    assert LemniscateDomain(0, 1, 2.0).is_slice_domain
    assert not LemniscateDomain(0, 1, 0.5).is_slice_domain


def test_boundary_pinch_point():
    domain = LemniscateDomain(0, 1, 1)
    samples = boundary_parameterization(domain, 64)
    theta, z, loop = samples[0]
    assert theta == 0 and z == 0 and loop == 0


def test_boundary_degenerate_circle():
    domain = LemniscateDomain(0.5, 0, 2.0)
    points = boundary_points(domain, UNIT_J, 64)
    assert len(points) == 64
    for p in points:
        assert abs(abs(p - 0.5) - 2.0) <= 1e-12


def test_boundary_points_classify_as_boundary():
    for radius in (0.5, 1.0, 2.0):
        domain = LemniscateDomain(0.3, 1.0, radius)
        for p in boundary_points(domain, UNIT_I, 32):
            assert domain.classify(p) == Region.BOUNDARY


def test_boundary_loop_split():
    domain = LemniscateDomain(0, 1, 0.5)
    samples = boundary_parameterization(domain, 64)
    loops = {loop for _, _, loop in samples}
    assert loops == {0, 1}
    assert sum(1 for s in samples if s[2] == 0) == 32
    # connected domain keeps everything in loop 0
    samples = boundary_parameterization(LemniscateDomain(0, 1, 2), 64)
    assert {loop for _, _, loop in samples} == {0}


@pytest.mark.parametrize("x0", [0.0, 0.5, -1.25])
@pytest.mark.parametrize("y0", [0.0, 1e-9, 0.3, 1.0, 2.0])
def test_boundary_closed_form_matches_tracker(x0, y0):
    # R/y0 = 1 is the pinch; y0 = 0 takes the ratios as radii
    for ratio in (0.1, 0.5, 0.99, 1.0, 1.0001, 1.05, 2.0, 7.0):
        radius = ratio * y0 if y0 > 0 else ratio
        tol = 1e-13 * (1.0 + abs(x0) + y0 + radius)
        for count in (8, 16, 64, 1000):
            got = boundary_parameterization(
                LemniscateDomain(x0, y0, radius), count)
            want = tracked_boundary(x0, y0, radius, count)
            assert len(got) == len(want) == count
            for (t, z, loop), (t_ref, z_ref, loop_ref) in zip(got, want):
                assert t == t_ref and loop == loop_ref
                assert abs(z - z_ref) <= tol, (ratio, count, z, z_ref)


def test_boundary_count_validation():
    with pytest.raises(ValueError):
        boundary_parameterization(LemniscateDomain(0, 1, 2), 4)
    with pytest.raises(ValueError):
        boundary_parameterization(LemniscateDomain(0, 1, 2), 17)


def test_modulus_bounds_on_sphere():
    sphere = Sphere(0.5, 1.5)
    q = sphere.point(UNIT_J)
    low, high = modulus_bounds(q, sphere)
    assert abs(low) <= 1e-9
    assert abs(high - 2 * sphere.y0) <= 1e-9


def test_modulus_bounds_degenerate():
    sphere = Sphere(1.0, 0.0)
    q = Quaternion(3, 1, 0, 0)
    low, high = modulus_bounds(q, sphere)
    assert abs(low - abs(q - 1.0)) <= 1e-12
    assert abs(high - abs(q - 1.0)) <= 1e-12


def test_modulus_bounds_random():
    rng = random.Random(37)
    for _ in range(10000):
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0, 2))
        q = random_quaternion(rng, 3.0)
        q0 = sphere_point(rng, sphere)
        low, high = modulus_bounds(q, sphere)
        dist = abs(q - q0)
        assert low - 1e-9 <= dist <= high + 1e-9


def test_lemniscate_geometry_at_large_scale():
    # (q - x0)^2 overflows near |q| ~ 1.3e154; the slice-plane distances
    # to the sphere points do not.
    domain = LemniscateDomain(0, 1, 1e200)
    assert domain.classify(Quaternion(1e200, 0, 0, 0)) == Region.BOUNDARY
    assert domain.classify(Quaternion(0.5e200, 0, 0, 0)) == Region.INSIDE
    assert domain.classify(Quaternion(0, 0, 2e200, 0)) == Region.OUTSIDE
    for q in (Quaternion(1e200, 0, 0, 0), Quaternion(0, 0, 0, 1e200)):
        low, high = modulus_bounds(q, Sphere(0, 1))
        assert math.isclose(low, 1e200, rel_tol=1e-12)
        assert math.isclose(high, 1e200, rel_tol=1e-12)


def test_quadratic_modulus_matches_product():
    rng = random.Random(41)
    for _ in range(200):
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0, 2))
        domain = LemniscateDomain(sphere.x0, sphere.y0, 1.0)
        q = random_quaternion(rng, 3.0)
        shifted = q - sphere.x0
        direct = abs(shifted * shifted + sphere.y0 ** 2)
        assert abs(domain.quadratic_modulus(q) - direct) <= 1e-13 * (1 + direct)


def test_convergence_dichotomy():
    # coefficients a_n = u with |u| = 1 (radius R = 1)
    u = random_unit(random.Random(38))
    sphere = Sphere(0.25, 1.0)
    inner = boundary_parameterization(
        LemniscateDomain(sphere.x0, sphere.y0, 0.5), 16)
    outer = boundary_parameterization(
        LemniscateDomain(sphere.x0, sphere.y0, 1.5), 16)
    quad = SlicePoly.sphere_quadratic(sphere)
    linear_norm = 1.0  # |q - q0| factor only rescales, sign of log unchanged
    for _, z, _ in inner[:4]:
        q = embed_complex(z, UNIT_I)
        s = abs(quad(q))
        terms = [s ** n for n in range(0, 101)]
        assert min(terms) < 1e-8
        assert all(t <= 1.0 + 1e-12 for t in terms)
    for _, z, _ in outer[:4]:
        q = embed_complex(z, UNIT_I)
        s = abs(quad(q))
        terms = [s ** n * linear_norm for n in range(0, 101)]
        assert max(terms) > 1e6


def test_expansion_validation():
    with pytest.raises(ValueError):
        SphericalExpansion(Sphere(0, 1), Quaternion(5, 0, 0, 0), (ONE,))
    with pytest.raises(ValueError):
        SphericalExpansion(Sphere(0, 1), UNIT_I, (ONE, ONE),
                           (ONE, Quaternion(0.5, 0, 0, 0)))


def test_eval_expansion_bounds_check():
    expansion = expand_at(QSQ, UNIT_I, 2)
    with pytest.raises(ValueError):
        eval_expansion(expansion, UNIT_I, up_to=7)


def test_sphere_coeffs_match_exact_division_levels():
    rng = random.Random(41)
    for _ in range(40):
        degree = rng.randint(0, 10)
        f = SlicePoly([Quaternion(*(rng.randint(-9, 9) for _ in range(4)))
                       for _ in range(degree + 1)])
        if f.is_zero():
            continue
        sphere = Sphere(rng.choice((0.0, 0.5, -1.25, 2.0)),
                        rng.choice((0.25, 1.0, 1.5, 3.0)))
        order = int(f.degree) + 2
        # Dyadic x0, y0 on an axis: the long division is exact in binary
        # floating point, so the levels are too.
        q0 = sphere.point(rng.choice((UNIT_I, UNIT_J, UNIT_K)))
        got = expand_at(f, q0, order).sphere_coeffs
        assert list(got) == exact_sphere_levels(f, q0, order)
        q0 = sphere_point(rng, sphere)
        tol = 1e-13 * (1 + f.max_coeff_norm()) * (1 + abs(q0)) ** f.degree
        got = expand_at(f, q0, order).sphere_coeffs
        for a, b in zip(got, exact_sphere_levels(f, q0, order), strict=True):
            assert quat_close(a, b, tol)
