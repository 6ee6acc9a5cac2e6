import math
import random

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      SliceRegError, Sphere, DegenerateSphere,
                      LemniscateDomain, RealPoint, Region, Shape,
                      SphericalExpansion, analyze_sphere,
                      boundary_parameterization, embed_complex,
                      eval_expansion, expand_at, expand_pair,
                      expansion_multiplicity, modulus_bounds,
                      radius_of_convergence, spherical_derivative)
from slicereg.polynomial import _sphere_levels
from slicereg.quaternion import ZERO
from slicereg.tolerances import EPS_ZERO, guard
from oracles import (binomial_taylor_coeffs, division_case,
                     exact_quaternion, exact_sphere_levels,
                     oracle_convolution, oracle_eval, quat_close, random_poly,
                     random_quaternion, random_unit, reference_divide,
                     reference_eval_expansion, reference_expansion,
                     reference_quadratic_div, ring_eval_expansion,
                     sphere_point, tracked_boundary, two_point_sphere_coeffs)

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
    expansion = expand_at(SlicePoly([c]), UNIT_J, 5)
    assert expansion.coeffs[0] == c
    assert all(abs(a) == 0 for a in expansion.coeffs[1:])


def test_expansion_with_non_finite_level_refused():
    # At x0 = 1e155 the quadratic's constant x0^2 + y0^2 overflows, and
    # the remainder -inf + q*2e155 of q^2 used to be trimmed away whole,
    # reading A_0 = 0.
    q0 = Quaternion(1e155, 1.0, 0.0, 0.0)
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        QSQ.quadratic_div(Sphere.through(q0))
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        expand_at(QSQ, q0, 2)


def test_expansion_at_huge_centre_keeps_small_level_coefficient():
    # q^2 at q0 = 1e150 + i: the remainder -(1e300 + 1) + q*2e150 gives
    # A_0 = f(q0) = 1e300 - 1 + 2e150 i and A_1 = 2e150.  Dropping c for
    # being small next to b read A_0 = -1e300, the wrong sign.
    q0 = Quaternion(1e150, 1.0, 0.0, 0.0)
    coeffs = expand_at(QSQ, q0, 3).coeffs
    assert quat_close(coeffs[0], QSQ(q0), 1e-15 * abs(QSQ(q0)))
    assert quat_close(coeffs[0], Quaternion(1e300, 2e150, 0, 0), 1e285)
    assert coeffs[1] == Quaternion(2e150, 0, 0, 0)
    assert coeffs[2:] == (ONE, Quaternion(0, 0, 0, 0))


def test_expand_at_negative_order_refused():
    with pytest.raises(SliceRegError, match="order must be >= 0"):
        expand_at(SlicePoly([0, 1]), UNIT_I, -1)


def test_expand_at_identity_map():
    expansion = expand_at(SlicePoly([0, 1]), UNIT_I, 3)
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
    expansion = expand_pair(SlicePoly([c]), Sphere(0, 1),
                            UNIT_I, UNIT_J, 3)
    assert quat_close(expansion.sphere_coeffs[0], c, 1e-14)
    assert all(abs(x) <= 1e-14 for x in expansion.sphere_coeffs[1:])

    expansion = expand_pair(SlicePoly([0, 1]), Sphere(0, 1),
                            UNIT_I, UNIT_J, 3)
    assert quat_close(expansion.sphere_coeffs[0], Quaternion(0, 0, 0, 0), 1e-14)
    assert quat_close(expansion.sphere_coeffs[1], ONE, 1e-14)


def test_expand_pair_accepts_sampled_points_off_the_sphere():
    # q1 is 5e-7 off the unit sphere: within the tolerance for sampled
    # points, and the expansion is the one at the sphere through q1.
    rng = random.Random(81)
    f = random_poly(rng, 6)
    q1 = Quaternion(0, 0, 1.0000005, 0)
    expansion = expand_pair(f, Sphere(0, 1), q1, q1.conj(), 6)
    assert expansion == expand_at(f, q1, 6)
    for _ in range(10):
        q = random_quaternion(rng)
        want = f(q)
        assert quat_close(eval_expansion(expansion, q), want,
                          1e-13 * (1 + abs(want)))


def test_expand_pair_rejects_equal_points():
    with pytest.raises(DegenerateSphere):
        expand_pair(QSQ, Sphere(0, 1), UNIT_I, UNIT_I, 2)


def test_expand_pair_accepts_antipodal_points_past_the_float_range():
    # |q1 - q2| overflows to inf, and so did |q1| + |q2| in the guard
    # they were tested against: inf <= inf read two distinct points as
    # one.
    sphere = Sphere(0, 1.7e308)
    q1, q2 = sphere.point(UNIT_I), sphere.point(-UNIT_I)
    f = SlicePoly([Quaternion(-1, 2, 0, 0), ONE])
    assert expand_pair(f, sphere, q1, q2, 2) == expand_at(f, q1, 2)


@pytest.mark.parametrize("x0", [0.0, 0.4, -300.0])
def test_one_rule_for_a_degenerate_sphere(x0):
    # Sphere.is_point alone decides: expand_at omits the base-point-free
    # family, expand_pair refuses and spherical_derivative raises
    # RealPoint exactly on the spheres it calls points, however close to
    # the bound, and the two zero readouts read the same level on either
    # side of it.
    bound = guard(EPS_ZERO, abs(x0))
    f = SlicePoly.linear_factor(Quaternion(x0, 0, 0, 0)) * QSQ
    for y0 in (0.0, bound * 0.5, bound, bound * 2.0, 1e-9):
        q0 = Quaternion(x0, 0, y0, 0)
        sphere = Sphere.through(q0)
        assert sphere == Sphere(x0, y0)
        point = sphere.is_point
        assert point == (y0 <= bound)
        assert (expand_at(f, q0, 3).sphere_coeffs is None) == point
        try:
            expand_pair(f, sphere, q0, q0.conj(), 3)
            refused = False
        except DegenerateSphere:
            refused = True
        assert refused == point
        try:
            spherical_derivative(f, q0)
            real = False
        except RealPoint:
            real = True
        assert real == point
        readout = expansion_multiplicity(f, sphere)
        report = analyze_sphere(f, sphere)
        assert (readout.spherical_mult, readout.isolated_point) == \
            (report.spherical_mult, report.isolated_point)


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
    # The base-point-free family is data: the library sums only the base
    # family, and the reference power sum, with bare-q corrections, sums
    # this one to f(q) too.
    rng = random.Random(32)
    f = random_poly(rng, 7)
    sphere = Sphere(0.5, 1.25)
    expansion = expand_pair(f, sphere, sphere.point(UNIT_I),
                            sphere.point(UNIT_J), int(f.degree) + 1)
    for _ in range(10):
        q = random_quaternion(rng, 1.5)
        exact = f(q)
        got = reference_eval_expansion(expansion, q, form="pair")
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
    partial = SlicePoly()
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


def test_radius_of_convergence_trim_is_relative():
    # Only exact zeros are skipped: a floor, absolute or relative to
    # max |a_n|, would call this series, whose top half lies below
    # 1e-12 * |a_0|, a polynomial (R = inf).
    small = [Quaternion(1e-13 * 4.0 ** -n, 0, 0, 0) for n in range(64)]
    assert all(abs(c) < 1e-12 * abs(small[0]) for c in small[32:])
    assert radius_of_convergence(small) == 1.0 / max(
        abs(c) ** (1.0 / n) for n, c in enumerate(small) if n >= 32)
    # exact zeros in the window add nothing; a window of zeros is inf
    zero = Quaternion(0, 0, 0, 0)
    holes = [c if n % 3 else zero for n, c in enumerate(small)]
    assert radius_of_convergence(holes) == 1.0 / max(
        abs(c) ** (1.0 / n) for n, c in enumerate(holes) if n >= 32 and n % 3)
    assert radius_of_convergence(small[:32] + [zero] * 32) == math.inf


def test_membership_classification():
    domain = LemniscateDomain(0, 1, 1)
    assert domain.classify(UNIT_I) == Region.INSIDE  # on the sphere
    assert domain.classify(Quaternion(0, 0, 0, 0)) == Region.BOUNDARY
    assert domain.classify(Quaternion(3, 0, 0, 0)) == Region.OUTSIDE
    # sphere points are inside for any radius
    tiny = LemniscateDomain(0.5, 1.5, 1e-3)
    assert tiny.classify(Quaternion(0.5, 0, 1.5, 0)) == Region.INSIDE


@pytest.mark.parametrize("q", [
    Quaternion(math.nan, 0, 0, 0), Quaternion(0.5, math.nan, 0, 0),
    Quaternion(0, 0, math.inf, 0), Quaternion(0, 0, 0, -math.inf),
], ids=["nan-w", "nan-x", "inf-y", "inf-z"])
def test_classify_refuses_point_that_is_not_finite(q):
    # NaN distances fail both comparisons, which read OUTSIDE.
    with pytest.raises(SliceRegError, match="the point must be finite"):
        LemniscateDomain(0, 1, 2).classify(q)


def test_domain_validation():
    with pytest.raises(ValueError):
        LemniscateDomain(0, -1, 1)
    with pytest.raises(ValueError):
        LemniscateDomain(0, 1, 0)


def test_topology_classification():
    assert LemniscateDomain(0, 1, 0.5).shape() == Shape.TWO_COMPONENTS
    assert LemniscateDomain(0, 1, 1.0).shape() == Shape.FIGURE_EIGHT
    assert LemniscateDomain(0, 1, 2.0).shape() == Shape.CONNECTED
    # U meets the real axis, a slice domain, exactly when it is CONNECTED;
    # within EPS_BOUNDARY (1 + y0 + R) of R = y0 it is the pinch.
    assert LemniscateDomain(0, 1, 1 + 1e-12).shape() == Shape.FIGURE_EIGHT
    assert LemniscateDomain(0, 1, 1 - 1e-12).shape() == Shape.FIGURE_EIGHT
    # 1 + y0 + R overflowed to inf at y0 = 1.7e308, and every domain read
    # as the figure-eight; a tenth of it read right.
    for scale in (1.0, 0.1):
        domain = LemniscateDomain(0, 1.7e308 * scale, 1e307 * scale)
        assert domain.shape() == Shape.TWO_COMPONENTS


def test_boundary_pinch_point():
    domain = LemniscateDomain(0, 1, 1)
    samples = boundary_parameterization(domain, 64)
    theta, z, loop = samples[0]
    assert theta == 0 and z == 0 and loop == 0


def test_boundary_degenerate_circle():
    domain = LemniscateDomain(0.5, 0, 2.0)
    points = [embed_complex(z, UNIT_J)
              for _, z, _ in boundary_parameterization(domain, 64)]
    assert len(points) == 64
    for p in points:
        assert abs(abs(p - 0.5) - 2.0) <= 1e-12


def test_boundary_points_classify_as_boundary():
    for radius in (0.5, 1.0, 2.0):
        domain = LemniscateDomain(0.3, 1.0, radius)
        for _, z, _ in boundary_parameterization(domain, 32):
            assert domain.classify(embed_complex(z, UNIT_I)) == Region.BOUNDARY


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
    # classify reads |(q - x0)^2 + y0^2| as the product of q's distances
    # to x0 +- I y0; against the modulus of the quaternion product, q is
    # on the boundary of the domain whose R^2 is that modulus, and inside
    # or outside one 1e-6 wider or narrower.
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0, 2))
        q = random_quaternion(rng, 3.0)
        shifted = q - sphere.x0
        radius = math.sqrt(abs(shifted * shifted + sphere.y0 ** 2))
        if radius < 1e-2:
            continue
        for factor, region in ((1.0, Region.BOUNDARY),
                               (1.0 + 1e-6, Region.INSIDE),
                               (1.0 - 1e-6, Region.OUTSIDE)):
            domain = LemniscateDomain(sphere.x0, sphere.y0, radius * factor)
            assert domain.classify(q) == region
        checked += 1
    assert checked >= 190


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
    # The sphere is the one through the base point, so a base point off
    # its sphere cannot be given; one that is not finite is refused where
    # the sphere or a value is formed.
    expansion = SphericalExpansion(Quaternion(0.5, 0, 2, 0), (ONE,))
    assert Sphere.through(expansion.base_point) == Sphere(0.5, 2.0)
    broken = SphericalExpansion(Quaternion(math.inf, 0, 0, 0), (ONE, ONE))
    with pytest.raises(SliceRegError, match="sphere x0 must be finite"):
        Sphere.through(broken.base_point)
    with pytest.raises(SliceRegError, match="result is not finite"):
        eval_expansion(broken, UNIT_I)


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
        if not f.coeffs:
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


def test_division_matches_quaternion_loop_bit_for_bit():
    # The in-place float kernel against the long-division loop over
    # Quaternion values it replaced: same floats, same order, same kept
    # coefficients, compared by repr so that -0.0 and the last bit count.
    rng = random.Random(71)
    for _ in range(2000):
        f, q0, order = division_case(rng)
        sphere = Sphere.through(q0)
        assert (repr(f.quadratic_div(sphere))
                == repr(reference_quadratic_div(f, sphere)))
        got = expand_at(f, q0, order)
        base, free = reference_expansion(f, q0, order)
        assert repr(got.coeffs) == repr(base)
        assert repr(got.sphere_coeffs) == repr(None if sphere.is_point
                                               else free)


def test_divide_matches_plain_recurrence_bit_for_bit():
    # The level engine steps the four components in one loop, carrying
    # each one's two live entries in locals and storing each entry once;
    # the plain recurrence runs one component after another and reads and
    # stores the lists at every step.  Same floats in the same order: each
    # level's quotient and remainder are compared by repr, signed zeros
    # included, the remainder kept as SlicePoly keeps coefficients (a
    # dropped one is ZERO), on spans of every length from 0 up and every
    # level below them.  The last 300 cases span whole lists of up to 20
    # entries at scales 1e250 to 1e300, about 30% of the entries whole
    # signed zeros: remainders hold exact zeros (b, c or both), and levels
    # overflow.  At the first remainder entry whose modulus is not finite
    # the engine refuses, and yields no further level.
    rng = random.Random(72)
    for case in range(900):
        size = rng.randint(0, 20)
        scale = 10.0 ** (rng.uniform(-300, 150) if case < 600
                         else rng.uniform(250, 300))
        parts = [[rng.choice((0.0, -0.0)) if rng.random() < 0.2
                  else rng.uniform(-scale, scale) for _ in range(size)]
                 for _ in range(4)]
        if case < 600:
            lo = rng.randint(0, size)
            # Spans of length 0, 1 and 2 come first, then any length.
            length = case % 3 if case < 300 else rng.randint(0, size - lo)
        else:
            for n in range(size):
                if rng.random() < 0.3:
                    for v in parts:
                        v[n] = rng.choice((0.0, -0.0))
            # The whole list, so that long spans reach the float range.
            lo, length = 0, size
        top = min(lo + length, size) - 1
        sphere = Sphere(rng.choice((0.0, -0.0, rng.uniform(-400, 400))),
                        rng.choice((0.0, 1e-9, rng.uniform(0, 3))))
        f = SlicePoly(map(Quaternion, *(v[lo:top + 1] for v in parts)))
        want = [[getattr(c, name) for c in f.coeffs] for name in "wxyz"]
        top = len(f.coeffs) - 1
        levels = _sphere_levels(f, sphere)
        for lo in range(0, max(top, 0) + 1, 2):
            reference_divide(want, lo, top, sphere)
            rest = [v[lo:lo + 2] for v in want]
            if not all(map(math.isfinite, map(math.hypot, *rest))):
                with pytest.raises(SliceRegError,
                                   match="coefficient is not finite"):
                    next(levels)
                break
            kept = SlicePoly(map(Quaternion, *rest))
            b, c, quotient = next(levels)
            assert (repr([v for v in (b, c) if v is not ZERO])
                    == repr(list(kept.coeffs)))
            assert repr(quotient()) == repr([v[lo + 2:] for v in want])
        assert next(levels, None) is None


# Roundoff of eval_expansion against the exact ring.
#
# With Q = (q - x0)^2 + y0^2, c the correction q - q0 and
# T_n = A_2n + c A_2n+1, the sum over n <= N of Q^n T_n runs by Horner in
# Q, g <- T_n + Q g, on the halves, as Horner does (see
# test_polynomial.py): a real component of the new g is
#     (e + ((s1 -+ s2) -+ (s3 -+ s4))) + ((t1 -+ t2) -+ (t3 -+ t4))
# with e a component of A_2n, the s products of one component of c and
# one of A_2n+1, and the t products of one of Q and one of g.  An s carries
# five roundings, a t four and e two, so with Cauchy-Schwarz as for
# Horner the step errs by at most
#     gamma_2 |A_2n| + 2 gamma_5 |c| |A_2n+1| + 2 gamma_4 |Q| |g_n+1|.
# The inputs are rounded too: c by u |c| (one rounding per component),
# and Q by at most 2u |q - x0|^2 (q - x0) + 2 gamma_4 |q - x0|^2 (the
# square) + 2u (y0^2 + the sum) <= 12 u M, M = |q - x0|^2 + y0^2 >= |Q|;
# that costs n 12 u M^n |T_n| in the n-th term.  With
# |g_n+1| <= sum_{m>n} M^(m-n-1) |T_m|, to first order
#     |fl - exact| <= 11 u S + (8 + 12) N u S,
#     S = sum_n M^n (|A_2n| + |c| |A_2n+1|),
# and with the second-order terms, far below u S here,
#     |fl - exact| <= C max(N, 1) u S,   C = 32.
# The expansions are those of f with coefficients uniform(-1, 1) 2^k,
# |k| <= 300, of degree d <= 24; the sphere has |x0| <= 2 and
# 1/4 <= y0 <= 2, and q's components lie within 2, so 1/16 <= M <= 33:
# nothing overflows, and a product that underflows errs by at most
# 2^-1075, far below u S.

U = 2.0 ** -53
EVAL_C = 32


def _eval_case(rng):
    """An expansion of order 0..2d+1 of a degree-d f scaled by 2^k, and a
    point q."""
    degree = rng.choice((rng.randint(0, 12), rng.randint(0, 24), 24))
    scale = 2.0 ** rng.randint(-300, 300)
    f = SlicePoly(Quaternion(*(rng.uniform(-1.0, 1.0) * scale
                               for _ in range(4)))
                  for _ in range(degree + 1))
    sphere = Sphere(rng.uniform(-2.0, 2.0), rng.uniform(0.25, 2.0))
    q0 = sphere.point(random_unit(rng))
    expansion = expand_at(f, q0, rng.randint(0, 2 * degree + 1))
    q = Quaternion(*(rng.uniform(-2.0, 2.0) for _ in range(4)))
    return expansion, q


def _eval_bound(expansion, q, up_to) -> float:
    """max(N, 1) u S for the partial sum through index up_to."""
    coeffs = expansion.coeffs
    last = len(coeffs) - 1 if up_to is None else up_to
    sphere = Sphere.through(expansion.base_point)
    size = abs(q - sphere.x0) ** 2 + sphere.y0 ** 2
    corr = abs(q - expansion.base_point)
    odd = list(coeffs[1:last + 1:2]) + [Quaternion(0, 0, 0, 0)]
    total = math.fsum(size ** n * (abs(a) + corr * abs(b))
                      for n, (a, b) in enumerate(zip(coeffs[:last + 1:2],
                                                     odd)))
    return max(last // 2, 1) * U * total


def _eval_error(expansion, q, up_to, got) -> float:
    """|got - exact| of the partial sum through index up_to."""
    coeffs = expansion.coeffs
    last = len(coeffs) - 1 if up_to is None else up_to
    want = ring_eval_expansion(coeffs[:last + 1], q,
                               Sphere.through(expansion.base_point),
                               expansion.base_point)
    return math.sqrt(sum((x - y) ** 2 for x, y in
                         zip(exact_quaternion(got), want)))


def _up_to_choices(rng, length):
    """None, and an even and an odd index below length when there are."""
    evens, odds = range(0, length, 2), range(1, length, 2)
    return [None] + [rng.choice(r) for r in (evens, odds) if r]


def test_eval_expansion_within_roundoff_of_exact_ring():
    rng = random.Random(73)
    worst, seen = 0.0, set()
    for _ in range(60):
        expansion, q = _eval_case(rng)
        for up_to in _up_to_choices(rng, len(expansion.coeffs)):
            got = eval_expansion(expansion, q, up_to)
            error = _eval_error(expansion, q, up_to, got)
            bound = _eval_bound(expansion, q, up_to)
            worst = max(worst, error / bound)
            seen.add(None if up_to is None else up_to % 2)
    assert len(seen) == 3
    assert worst <= EVAL_C


def test_eval_expansion_power_of_two_scaling_is_bit_identical():
    # Scaling every coefficient by 2^s scales every term of the sum by
    # 2^s exactly, while nothing leaves the normal range.
    rng = random.Random(74)
    for _ in range(40):
        expansion, q = _eval_case(rng)
        scale = 2.0 ** rng.randint(-200, 200)
        scaled = SphericalExpansion(
            expansion.base_point, tuple(c * scale for c in expansion.coeffs))
        assert (repr(eval_expansion(scaled, q))
                == repr(eval_expansion(expansion, q) * scale))


def test_eval_expansion_matches_reference_loop():
    # The power sum over Quaternion values, kept as the reference, raises
    # Q^n by n products of the rounded Q ((8 + 12) n u relative error),
    # forms each term with two or three more products and adds 2(N + 1)
    # terms one by one: to first order it is within (20 N + 19 + 2 N) u S
    # <= 42 max(N, 1) u S of the exact sum, so the two differ by at most
    # (EVAL_C + 42) max(N, 1) u S.  On small integers both are exact.
    rng = random.Random(75)
    for _ in range(40):
        expansion, q = _eval_case(rng)
        for up_to in _up_to_choices(rng, len(expansion.coeffs)):
            got = eval_expansion(expansion, q, up_to)
            want = reference_eval_expansion(expansion, q, up_to)
            bound = (EVAL_C + 42) * _eval_bound(expansion, q, up_to)
            assert abs(got - want) <= bound
    for _ in range(100):
        coeffs = tuple(Quaternion(*(rng.randint(-4, 4) for _ in range(4)))
                       for _ in range(rng.randint(1, 9)))
        sphere = Sphere(rng.randint(-2, 2), rng.choice((0, 1)))
        base = sphere.point(rng.choice((UNIT_I, UNIT_J, UNIT_K)))
        expansion = SphericalExpansion(base, coeffs)
        q = Quaternion(*(rng.randint(-3, 3) for _ in range(4)))
        for up_to in _up_to_choices(rng, len(coeffs)):
            assert (eval_expansion(expansion, q, up_to)
                    == reference_eval_expansion(expansion, q, up_to))


@pytest.mark.parametrize("q", [
    Quaternion(1e200, 0, 0, 0), Quaternion(0, 0, 0, -1e200),
    Quaternion(math.inf, 0, 0, 0), Quaternion(0, 0, -math.inf, 0),
    Quaternion(0, math.nan, 0, 0),
], ids=["huge-w", "huge-z", "inf-w", "inf-y", "nan-x"])
def test_eval_expansion_non_finite_result_refused(q):
    # The sum used to come back as Quaternion(nan, nan, nan, nan).
    expansion = expand_at(SlicePoly([1.0, UNIT_J, 1.0, 2.0]), UNIT_I, 3)
    with pytest.raises(SliceRegError, match="result is not finite"):
        eval_expansion(expansion, q)


def test_eval_expansion_constant_partial_sum_at_any_point():
    # Through index 0 the sum is A_0 alone, which is finite wherever q is.
    expansion = expand_at(SlicePoly([1.0, UNIT_J, 1.0]), UNIT_I, 2)
    for q in (Quaternion(1e200, 0, 0, 0), Quaternion(math.inf, 0, 0, 0)):
        assert eval_expansion(expansion, q, up_to=0) == expansion.coeffs[0]


@pytest.mark.parametrize("coeffs", [
    [Quaternion(math.nan, 0, 0, 0)], [ONE, Quaternion(0, math.inf, 0, 0)],
    [Quaternion(0, 0, math.nan, 0), ONE, ONE],
], ids=["nan", "inf", "nan-first"])
def test_radius_of_convergence_non_finite_refused(coeffs):
    # [nan] used to give an infinite radius.
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        radius_of_convergence(coeffs)


@pytest.mark.parametrize("q, sphere", [
    (Quaternion(math.nan, 0, 0, 0), Sphere(0, 1)),
    (Quaternion(0, 0, math.nan, 0), Sphere(0, 1)),
    (Quaternion(math.inf, 0, 0, 0), Sphere(0, 1)),
    (Quaternion(-1.7e308, 1.7e308, 0, 0), Sphere(1e308, 1e308)),
], ids=["nan-w", "nan-y", "inf-w", "overflow"])
def test_modulus_bounds_non_finite_refused(q, sphere):
    # A NaN point used to give (nan, nan).
    with pytest.raises(SliceRegError, match="result is not finite"):
        modulus_bounds(q, sphere)
