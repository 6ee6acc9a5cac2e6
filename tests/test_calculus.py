import math
import random

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      SliceRegError, Sphere, NonUnitDirection, RealPoint,
                      complex_jacobian, cullen_derivative,
                      directional_derivative, embed_complex, expand_at,
                      orthogonal_unit, partial_derivative, slice_decompose,
                      spherical_derivative)
from oracles import (exact_poly, exact_quadratic_product, exact_quaternion,
                     exact_sphere_levels, finite_difference_directional,
                     finite_difference_holo, quat_close, random_poly,
                     random_quaternion, random_unit, ring_cofactor,
                     ring_horner, ring_sphere_levels)

QSQ = SlicePoly([0.0, 0.0, 1.0])
QCUBE = SlicePoly([0.0, 0.0, 0.0, 1.0])


def test_directional_derivative_square_radial():
    got = directional_derivative(QSQ, UNIT_I, ONE)
    assert quat_close(got, UNIT_I * 2, 1e-14)
    fd = finite_difference_directional(QSQ, UNIT_I, ONE)
    assert quat_close(got, fd, 1e-9)


def test_directional_derivative_square_tangent():
    # j is tangent to the unit sphere at i: the derivative vanishes
    got = directional_derivative(QSQ, UNIT_I, UNIT_J)
    assert abs(got) <= 1e-14
    fd = finite_difference_directional(QSQ, UNIT_I, UNIT_J)
    assert abs(fd) <= 1e-9


def test_directional_derivative_constant():
    f = SlicePoly([Quaternion(1, 2, 3, 4)])
    rng = random.Random(50)
    for _ in range(5):
        v = random_unit(rng)
        assert abs(directional_derivative(f, random_quaternion(rng), v)) == 0


def test_non_unit_direction_rejected():
    with pytest.raises(NonUnitDirection):
        directional_derivative(QSQ, UNIT_I, ONE * 2)
    with pytest.raises(NonUnitDirection):
        directional_derivative(QSQ, UNIT_I, ONE * (1 + 1e-6))


def test_nan_direction_rejected():
    # |v| - 1 is NaN, which fails every comparison: the guard must fail too.
    with pytest.raises(NonUnitDirection):
        directional_derivative(QSQ, UNIT_I, Quaternion(math.nan, 0, 0, 0))


def test_directional_matches_finite_differences():
    rng = random.Random(51)
    for _ in range(60):
        f = random_poly(rng, 6, scale=5.0)
        q0 = random_quaternion(rng, 0.6)
        raw = random_quaternion(rng, 1.0)
        if abs(raw) < 0.1:
            continue
        v = raw / abs(raw)
        got = directional_derivative(f, q0, v)
        fd = finite_difference_directional(f, q0, v)
        assert abs(got - fd) <= 1e-7


def test_in_slice_direction_reduces_to_cullen_form():
    # v in the slice plane of q0: derivative = v * R_{q0} f(q0)
    rng = random.Random(52)
    for _ in range(40):
        f = random_poly(rng, 6)
        x0, y0 = rng.uniform(-1, 1), rng.uniform(0.1, 1.5)
        unit = random_unit(rng)
        q0 = embed_complex(complex(x0, y0), unit)
        phi = rng.uniform(0, 2 * math.pi)
        v = embed_complex(complex(math.cos(phi), math.sin(phi)), unit)
        got = directional_derivative(f, q0, v)
        want = v * cullen_derivative(f, q0)
        assert quat_close(got, want, 1e-10 * (1 + abs(want)))


def test_tangent_direction_reduces_to_bundle_form():
    # v imaginary and perpendicular to the slice unit: q0 v = v conj(q0),
    # so the derivative collapses to v * A1
    rng = random.Random(53)
    for _ in range(40):
        f = random_poly(rng, 6)
        x0, y0 = rng.uniform(-1, 1), rng.uniform(0.1, 1.5)
        unit = random_unit(rng)
        q0 = embed_complex(complex(x0, y0), unit)
        other = orthogonal_unit(unit)
        phi = rng.uniform(0, 2 * math.pi)
        v = other * math.cos(phi) + (unit * other) * math.sin(phi)
        assert quat_close(q0 * v, v * q0.conj(), 1e-12)
        got = directional_derivative(f, q0, v)
        want = v * expand_at(f, q0, 1).coeffs[1]
        assert quat_close(got, want, 1e-10 * (1 + abs(want)))


def test_partial_derivatives_square():
    assert quat_close(partial_derivative(QSQ, UNIT_I, 0), UNIT_I * 2, 1e-14)
    # along e1 = i: (i*i - i*(-i)) * 1 = -2
    got = partial_derivative(QSQ, UNIT_I, 1)
    assert quat_close(got, -ONE * 2, 1e-14)
    fd = finite_difference_directional(QSQ, UNIT_I, UNIT_I)
    assert quat_close(got, fd, 1e-9)


def test_partial_derivative_identity_map():
    rng = random.Random(54)
    f = SlicePoly([0, 1])
    q0 = random_quaternion(rng)
    assert quat_close(partial_derivative(f, q0, 0), ONE, 1e-14)


def test_partial_derivative_invalid_axis():
    with pytest.raises(SliceRegError, match="axis must be 0..3"):
        partial_derivative(QSQ, UNIT_I, 4)


def test_cullen_derivative():
    # R_i(q^2) = q + i evaluated at i gives 2i
    assert quat_close(cullen_derivative(QSQ, UNIT_I), UNIT_I * 2, 1e-14)
    # classical derivative at real points: d/dq q^n = n q^(n-1)
    for n in range(1, 6):
        f = SlicePoly([0.0] * n + [1.0])
        x = 1.3
        got = cullen_derivative(f, Quaternion(x, 0, 0, 0))
        assert quat_close(got, ONE * (n * x ** (n - 1)), 1e-12 * n)
    assert abs(cullen_derivative(SlicePoly([5.0]), UNIT_J)) == 0


def test_spherical_derivative_golden():
    # q^2 takes the same value at i and -i
    assert abs(spherical_derivative(QSQ, UNIT_I)) == 0
    # identity map: (1/2)(-i)(i - (-i)) = 1
    got = spherical_derivative(SlicePoly([0, 1]), UNIT_I)
    assert quat_close(got, ONE, 1e-14)
    # cube: (1/2)(-i)(-i - i) = -1, and it equals y0 * A1
    got = spherical_derivative(QCUBE, UNIT_I)
    assert quat_close(got, -ONE, 1e-14)
    _, remainder = QCUBE.remainder_div(UNIT_I)
    assert quat_close(got, remainder(-UNIT_I), 1e-14)


def test_spherical_derivative_rejects_real_points():
    with pytest.raises(RealPoint):
        spherical_derivative(QSQ, Quaternion(1.5, 0, 0, 0))


def test_spherical_derivative_equals_odd_bundle_coefficient():
    # The definition (1/2) Im(q0)^(-1) (f(q0) - f(conj q0)) solves to A1
    # itself: on the sphere f(conj q0) = f(q0) + (conj(q0) - q0) A1.  (The
    # scaled form y0 * A1 floating around in prose only matches at y0 = 1.)
    rng = random.Random(55)
    for _ in range(50):
        f = random_poly(rng, 7)
        q0 = random_quaternion(rng, 1.5)
        _, y0, _ = slice_decompose(q0)
        if y0 < 0.05:
            continue
        got = spherical_derivative(f, q0)
        want = expand_at(f, q0, 1).coeffs[1]
        assert quat_close(got, want, 1e-10 * (1 + abs(want)))


def test_complex_jacobian_square():
    jac = complex_jacobian(QSQ, UNIT_I)
    assert jac.slice_unit == UNIT_I and jac.normal_unit == UNIT_J
    assert abs(jac.holo[0][0] - 2j) <= 1e-10
    assert abs(jac.holo[0][1]) <= 1e-10
    assert abs(jac.holo[1][0]) <= 1e-10
    assert abs(jac.holo[1][1]) <= 1e-10
    for row in jac.antiholo:
        for entry in row:
            assert abs(entry) <= 1e-7


def test_complex_jacobian_identity_and_constant():
    jac = complex_jacobian(SlicePoly([0, 1]), Quaternion(0.3, 1, -2, 0.5))
    assert abs(jac.holo[0][0] - 1) <= 1e-12
    assert abs(jac.holo[0][1]) <= 1e-12
    assert abs(jac.holo[1][0]) <= 1e-12
    assert abs(jac.holo[1][1] - 1) <= 1e-12

    jac = complex_jacobian(SlicePoly([UNIT_K]), UNIT_I)
    for row in jac.holo:
        for entry in row:
            assert abs(entry) <= 1e-12


def test_complex_jacobian_random():
    rng = random.Random(56)
    for _ in range(30):
        f = random_poly(rng, 6, scale=2.0)
        q0 = random_quaternion(rng, 0.75)
        jac = complex_jacobian(f, q0)
        fd = finite_difference_holo(f, q0)
        for row in range(2):
            for col in range(2):
                assert abs(jac.holo[row][col] - fd[row][col]) <= 1e-7
                assert abs(jac.antiholo[row][col]) <= 1e-7


def test_real_point_derivative():
    # At a real point the Cullen derivative is the full quaternionic one.
    assert quat_close(cullen_derivative(QSQ, Quaternion(1.0, 0, 0, 0)),
                      ONE * 2, 1e-14)
    f = SlicePoly([0.0, 1.0, 0.0, 1.0])  # q^3 + q
    assert quat_close(cullen_derivative(f, Quaternion(0.0, 0, 0, 0)), ONE,
                      1e-14)


def test_real_point_one_sided_quotients_converge():
    rng = random.Random(57)
    for _ in range(10):
        f = random_poly(rng, 6, scale=2.0)
        x = rng.uniform(-1, 1)
        x_quat = Quaternion(x, 0, 0, 0)
        value = cullen_derivative(f, x_quat)
        for direction in (ONE, UNIT_I, UNIT_J, UNIT_K):
            for t in (1e-3, 1e-4, 1e-5):
                h = direction * t
                quotient = h.inverse() * (f(x_quat + h) - f(x_quat))
                assert abs(quotient - value) <= 100 * t  # one-sided is O(t)


def test_real_point_central_quotients_agree_pairwise():
    # the O(t) direction term cancels in the symmetric quotient, so four
    # independent directions agree to O(t^2) at t = 1e-5
    rng = random.Random(58)
    t = 1e-5
    for _ in range(20):
        f = random_poly(rng, 6, scale=2.0)
        x = rng.uniform(-1, 1)
        x_quat = Quaternion(x, 0, 0, 0)
        value = cullen_derivative(f, x_quat)
        quotients = []
        for direction in (ONE, UNIT_I, UNIT_J, UNIT_K):
            h = direction * t
            quotient = h.inverse() * (f(x_quat + h) - f(x_quat - h)) * 0.5
            quotients.append(quotient)
            assert abs(quotient - value) <= 1e-6
        for a in quotients:
            for b in quotients:
                assert abs(a - b) <= 1e-6


THIN_G = SlicePoly([Quaternion(1, 2, 0, 0), Quaternion(0, 0, 3, 1),
                    Quaternion(1, 1, 1, 1)])


@pytest.mark.parametrize("y0", [1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_spherical_derivative_on_thin_spheres(x0, y0):
    rng = random.Random(17)
    sphere = Sphere(x0, y0)
    on_sphere = exact_quadratic_product(THIN_G, sphere.point(UNIT_I))
    units = [UNIT_I, UNIT_J] + [random_unit(rng) for _ in range(3)]
    for f in (THIN_G, on_sphere):
        for unit in units:
            q0 = sphere.point(unit)
            want = exact_sphere_levels(f, q0, 1)[1]
            tol = 1e-13 * (1 + f.max_coeff_norm()) * (1 + abs(q0)) ** f.degree
            assert quat_close(spherical_derivative(f, q0), want, tol)


# Imaginary parts of the dyadic base points: on an axis, or off the axes
# with a dyadic modulus (|(1, 2, 2)/2| = 3/2, |(3, 4, 0)/4| = 5/4), so the
# sphere through q0 has x0 and y0^2 exact in binary64.
_DYADIC_IMAG = ((0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, 1),
                (0.5, 1, 1), (0.75, -1, 0), (0, 0.75, 1), (-0.5, 1, -1))


def _dyadic_point(rng):
    scale = rng.choice((0.5, 1, 1.5, 2))
    return Quaternion(rng.choice((0, 0.25, 0.5, -0.5, 1, -1.5)),
                      *(scale * v for v in rng.choice(_DYADIC_IMAG)))


def _exact_derivatives(f, q0):
    """(C1, C2 + q0 C3, Cullen) in rational arithmetic; the Cullen
    derivative is the cofactor of f by (q - q0) evaluated at q0."""
    point = exact_quaternion(q0)
    levels = ring_sphere_levels(f, q0, 3)
    cofactor = ring_cofactor(exact_poly(f), point)
    return (levels[1], ring_horner(levels[2:4], point),
            ring_horner(cofactor, point))


def test_first_derivatives_match_exact_ring():
    # Integer coefficients and dyadic base points keep every intermediate
    # exact in binary64, so A1, A2 and the Cullen derivative must equal the
    # rational values bit for bit.
    rng = random.Random(72)
    for _ in range(200):
        f = SlicePoly(Quaternion(*(rng.randint(-3, 3) for _ in range(4)))
                      for _ in range(rng.randint(1, 11)))
        q0 = _dyadic_point(rng)
        first, second, cullen = _exact_derivatives(f, q0)
        got_first, got_second = expand_at(f, q0, 2).coeffs[1:3]
        assert exact_quaternion(got_first) == first
        assert exact_quaternion(got_second) == second
        assert exact_quaternion(cullen_derivative(f, q0)) == cullen


def test_first_derivatives_match_exact_ring_on_float_data():
    rng = random.Random(73)
    for _ in range(60):
        f = random_poly(rng, 10, scale=rng.choice((1.0, 3.0)))
        q0 = random_quaternion(rng, rng.choice((0.5, 1.0, 1.5)))
        if not f.coeffs:
            continue
        tol = 1e-13 * (1 + f.max_coeff_norm()) * (1 + abs(q0)) ** f.degree
        got = (*expand_at(f, q0, 2).coeffs[1:3], cullen_derivative(f, q0))
        for value, exact in zip(got, _exact_derivatives(f, q0)):
            want = Quaternion(*(float(v) for v in exact))
            assert quat_close(value, want, tol)
