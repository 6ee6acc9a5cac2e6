import cmath
import math
import random
import tracemalloc

import mpmath
import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      Contour, KernelOffSlice, LemniscateDomain,
                      PinchedContour, PointOnContour, Region, Shape,
                      SliceRegError, boundary_parameterization, cauchy_eval,
                      circle_contour, coefficient_bound_report,
                      coefficient_integral, embed_complex, expand_at,
                      lemniscate_contour, slice_integral)
import slicereg.contour as contour_module
from slicereg.contour import _pairwise_sum, _split_values
from slicereg.tolerances import EPS_BOUNDARY
from slicereg.quaternion import orthogonal_unit
from oracles import (quat_close, random_poly, random_quaternion, random_unit,
                     recursive_pairwise_sum, reference_integrate_split,
                     reference_node_sums, reference_pairwise_sum,
                     reference_split)

QSQ = SlicePoly([0.0, 0.0, 1.0])


def test_circle_nodes():
    contour = circle_contour(0.0, 1.0, UNIT_I, 16)
    assert len(contour) == 16
    # quarter-turn nodes sit at 1, i, -1, -i
    for index, want in ((0, 1 + 0j), (4, 1j), (8, -1 + 0j), (12, -1j)):
        assert abs(contour.points[index] - want) <= 1e-15


def test_circle_length():
    contour = circle_contour(0.5, 2.5, UNIT_J, 64)
    assert abs(contour.total_length - 2 * math.pi * 2.5) <= 1e-10


def test_circle_nodes_in_plane():
    contour = circle_contour(0.0, 1.0, UNIT_K, 32)
    for z, w in zip(contour.points, contour.weights):
        for node in (embed_complex(z, contour.unit),
                     embed_complex(w, contour.unit)):
            assert abs(node.x) <= 1e-15 and abs(node.y) <= 1e-15


def test_circle_validation():
    with pytest.raises(ValueError):
        circle_contour(0.0, 1.0, UNIT_I, 8)
    with pytest.raises(ValueError):
        circle_contour(0.0, -1.0, UNIT_I, 32)


def test_lemniscate_contour_single_loop():
    domain = LemniscateDomain(0, 1, 2)
    contour = lemniscate_contour(domain, UNIT_I, 64)
    assert len(contour) == 64
    for z in contour.points:
        assert domain.classify(embed_complex(z, UNIT_I)) == Region.BOUNDARY


def test_lemniscate_contour_two_loops():
    domain = LemniscateDomain(0, 1, 0.5)
    contour = lemniscate_contour(domain, UNIT_I, 64)
    assert len(contour) == 64
    upper = [z for z in contour.points if z.imag > 0]
    lower = [z for z in contour.points if z.imag < 0]
    assert len(upper) == 32 and len(lower) == 32


def test_lemniscate_degenerate_circle_length():
    domain = LemniscateDomain(0, 0, 1.5)
    contour = lemniscate_contour(domain, UNIT_I, 16384)
    assert abs(contour.total_length - 2 * math.pi * 1.5) <= 1e-6


def _bits(values) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in values]


@pytest.mark.parametrize("radius", [2.0, 0.5], ids=["one-loop", "two-loops"])
def test_lemniscate_weights_are_central_differences(radius):
    # each loop is closed on its own: w_m = (z_{m+1} - z_{m-1}) / 2 with
    # indices cyclic within the loop, and the length sums |w_m| in order
    domain = LemniscateDomain(0.25, 1.0, radius)
    samples = boundary_parameterization(domain, 258)
    points, weights = [], []
    for loop in (0, 1):
        zs = [z for _, z, tag in samples if tag == loop]
        points += zs
        weights += [(zs[(m + 1) % len(zs)] - zs[m - 1]) / 2.0
                    for m in range(len(zs))]
    contour = lemniscate_contour(domain, UNIT_J, 258)
    assert _bits(contour.points) == _bits(points)
    assert _bits(contour.weights) == _bits(weights)
    assert contour.total_length.hex() == sum(abs(w) for w in weights).hex()


def test_pinched_contour_rejected():
    with pytest.raises(PinchedContour):
        lemniscate_contour(LemniscateDomain(0, 1, 1), UNIT_I, 64)


def test_pinch_refusal_follows_shape():
    # Radii a few ulps either side of the figure-eight band's edges
    # y0 +- EPS_BOUNDARY (1 + 2 y0): the contour is refused exactly where
    # shape() reads the figure-eight.
    rng = random.Random(61)
    for y0 in (0.5, 1.0, 2.0, 3.0, 10.0):
        for sign in (-1.0, 1.0):
            edge = y0 + sign * EPS_BOUNDARY * (1.0 + 2.0 * y0)
            for _ in range(40):
                radius = edge
                for _ in range(rng.randint(0, 6)):
                    radius = math.nextafter(radius, rng.choice((0.0, 20.0)))
                domain = LemniscateDomain(0.0, y0, radius)
                pinched = domain.shape() is Shape.FIGURE_EIGHT
                try:
                    lemniscate_contour(domain, UNIT_I, 16)
                except PinchedContour:
                    assert pinched, radius
                else:
                    assert not pinched, radius
    assert LemniscateDomain(0, 3, 3.000000007).shape() is Shape.FIGURE_EIGHT
    with pytest.raises(PinchedContour):
        lemniscate_contour(LemniscateDomain(0, 3, 3.000000007), UNIT_I, 16)


def test_split_horner_matches_quaternion_horner():
    # orthogonal_unit builds J from candidate j for unit i and from
    # candidate i for units j and k; candidate k is never reached, since
    # |u.x| and |u.y| cannot both exceed sqrt(3)/2 on a unit vector
    rng = random.Random(31)
    assert orthogonal_unit(UNIT_I) == UNIT_J
    assert orthogonal_unit(UNIT_J) == orthogonal_unit(UNIT_K) == UNIT_I
    units = [UNIT_I, UNIT_J, UNIT_K] + [random_unit(rng) for _ in range(5)]
    for unit in units:
        unit_j = orthogonal_unit(unit)
        for _ in range(10):
            f = random_poly(rng, 12, scale=2.0)
            values = _split_values(f, unit)
            for _ in range(5):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                comp_f, comp_g = values(z)
                got = (embed_complex(comp_f, unit)
                       + embed_complex(comp_g, unit) * unit_j)
                scale = 1.0 + sum(abs(a) * abs(z) ** n
                                  for n, a in enumerate(f.coeffs))
                assert quat_close(got, f(embed_complex(z, unit)),
                                  1e-13 * scale)


def test_slice_integral_zero_kernel():
    contour = circle_contour(0.0, 1.0, UNIT_I, 64)
    zero = Quaternion(0, 0, 0, 0)
    got = slice_integral(lambda s: zero, SlicePoly([1.0]), contour)
    assert abs(got) == 0


def test_slice_integral_residue():
    # classical residue in L_i: integral of s^-1 ds over |s| = 1 is 2*pi*i
    contour = circle_contour(0.0, 1.0, UNIT_I, 64)
    got = slice_integral(lambda s: s.inverse(), SlicePoly([1.0]),
                         contour)
    assert quat_close(got, UNIT_I * (2 * math.pi), 1e-12)


def test_slice_integral_kernel_off_slice():
    contour = circle_contour(0.0, 1.0, UNIT_I, 64)
    with pytest.raises(KernelOffSlice):
        slice_integral(lambda s: UNIT_J, SlicePoly([1.0]), contour)


def test_slice_integral_in_plane_kernel_kept_at_huge_scale():
    # The value's off-plane part is 1e160 of 1e200: within EPS_UNIT.  Its
    # distance from the plane was inf when formed from squares.
    contour = circle_contour(0.0, 1.0, UNIT_I, 16)
    got = slice_integral(lambda s: Quaternion(0, 1e200, 1e160, 0),
                         SlicePoly([1.0]), contour)
    assert all(map(math.isfinite, got.to_list()))


def test_slice_integral_kernel_far_off_slice_past_the_float_range():
    # |value| overflows, so a guard eps (1 + |value|) read inf and the
    # value, far off the plane, was accepted.
    contour = circle_contour(0.0, 2.0, UNIT_I, 16)
    with pytest.raises(KernelOffSlice):
        slice_integral(lambda s: Quaternion(0, 1, 1.7e308, 1.7e308),
                       SlicePoly([1.0]), contour)


def test_slice_integral_additive_in_f():
    rng = random.Random(40)
    contour = circle_contour(0.0, 2.0, UNIT_I, 64)
    f = random_poly(rng, 4)
    g = random_poly(rng, 4)
    kernel = lambda s: (s - embed_complex(0.5j, UNIT_I)).inverse()
    lhs = slice_integral(kernel, f + g, contour)
    rhs = slice_integral(kernel, f, contour) + slice_integral(kernel, g, contour)
    assert quat_close(lhs, rhs, 1e-10 * (1 + abs(lhs)))


def test_slice_integral_left_linear_in_kernel():
    rng = random.Random(41)
    contour = circle_contour(0.0, 2.0, UNIT_I, 64)
    f = random_poly(rng, 4)
    factor = embed_complex(0.7 - 0.3j, UNIT_I)  # an element of L_I
    kernel = lambda s: (s - embed_complex(0.5 + 0.1j, UNIT_I)).inverse()
    scaled = lambda s: factor * kernel(s)
    lhs = slice_integral(scaled, f, contour)
    rhs = factor * slice_integral(kernel, f, contour)
    assert quat_close(lhs, rhs, 1e-10 * (1 + abs(lhs)))


def test_cauchy_eval_square():
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    got = cauchy_eval(QSQ, UNIT_I, contour)
    assert quat_close(got, QSQ(UNIT_I), 1e-10)


def test_cauchy_eval_constant():
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    c = Quaternion(0.5, -1, 2, 0.25)
    got = cauchy_eval(SlicePoly([c]), UNIT_I * 0.5, contour)
    assert quat_close(got, c, 1e-12)


def test_cauchy_eval_identity():
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    z = embed_complex(0.5 + 0.5j, UNIT_I)
    got = cauchy_eval(SlicePoly([0, 1]), z, contour)
    assert quat_close(got, z, 1e-10)


def test_cauchy_eval_point_on_contour():
    contour = circle_contour(0.0, 1.0, UNIT_I, 64)
    with pytest.raises(PointOnContour):
        cauchy_eval(QSQ, ONE, contour)


def test_index_zero_guards_only_its_own_pole():
    # A circle about i of radius 1.5 passes through -0.5i, the conjugate
    # of q0 = 0.5i: a pole of the quadratic from index 1 on, but not of
    # the Cauchy kernel 1/(s - q0) at index 0.
    step = 2.0 * math.pi / 64
    rots = [cmath.exp(1j * step * m) for m in range(64)]
    weights = tuple(1j * 1.5 * rot * step for rot in rots)
    contour = Contour(UNIT_I, tuple(1j + 1.5 * rot for rot in rots), weights)
    f = SlicePoly([ONE, UNIT_I, ONE])
    q0 = embed_complex(0.5j, UNIT_I)
    got = coefficient_integral(f, q0, 0, contour)
    assert got == cauchy_eval(f, q0, contour)
    assert quat_close(got, f(q0), 1e-14)
    with pytest.raises(PointOnContour):
        coefficient_integral(f, q0, 1, contour)


def test_cauchy_eval_rejects_off_plane_point():
    contour = circle_contour(0.0, 1.0, UNIT_I, 64)
    with pytest.raises(ValueError):
        cauchy_eval(QSQ, UNIT_J * 0.5, contour)


def test_quadrature_error_decays_geometrically():
    rng = random.Random(42)
    f = random_poly(rng, 5)
    z = embed_complex(cmath.rect(0.9, 0.7), UNIT_I)
    exact = f(z)
    errors = {}
    for count in (64, 128):
        contour = circle_contour(0.0, 1.0, UNIT_I, count)
        errors[count] = abs(cauchy_eval(f, z, contour) - exact)
    if errors[128] > 1e-12:
        assert errors[64] / errors[128] >= 10.0
    else:
        assert errors[64] <= 1e-10


def test_value_plus_remainder_kernel_identity():
    # f(z) = f(z0) + (z - z0) * (1/2 pi I) integral of f against the
    # double-pole kernel 1/((s-z)(s-z0)), exercised through the public
    # quaternion kernel interface
    rng = random.Random(46)
    f = random_poly(rng, 6)
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    z = embed_complex(0.4 + 0.9j, UNIT_I)
    z0 = embed_complex(-0.2 + 0.5j, UNIT_I)

    def kernel(s):
        return ((s - z).inverse()) * ((s - z0).inverse())

    integral = slice_integral(kernel, f, contour)
    prefactor = UNIT_I * (-1.0 / (2.0 * math.pi))  # (2 pi I)^-1
    got = f(z0) + (z - z0) * (prefactor * integral)
    assert quat_close(got, f(z), 1e-10 * (1 + abs(f(z))))


def test_coefficient_integral_square():
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    reference = expand_at(QSQ, UNIT_I, 5)
    # even index 2 carries the quadratic coefficient 1
    assert quat_close(coefficient_integral(QSQ, UNIT_I, 2, contour),
                      reference.coeffs[2], 1e-8)
    # odd index 1 vanishes for q^2 at i
    assert abs(coefficient_integral(QSQ, UNIT_I, 1, contour)) <= 1e-8
    # indices beyond the degree vanish
    assert abs(coefficient_integral(QSQ, UNIT_I, 5, contour)) <= 1e-8


def test_coefficient_integral_matches_expansion_on_circles():
    rng = random.Random(43)
    for _ in range(8):
        f = random_poly(rng, 8, scale=2.0)
        x0 = rng.uniform(-2, 2)
        y0 = rng.uniform(0.0, 2.0)
        q0 = Quaternion(x0, y0, 0, 0)
        contour = circle_contour(x0, 2 * y0 + 1, UNIT_I, 256)
        reference = expand_at(f, q0, max(int(f.degree), 0))
        for n, want in enumerate(reference.coeffs):
            got = coefficient_integral(f, q0, n, contour)
            assert quat_close(got, want, 1e-8 * (1 + abs(want)))


def test_coefficient_integral_lemniscate_contours():
    # central-difference weights are second order, so fidelity to the
    # algebraic coefficients at 1e-8 needs a dense contour
    rng = random.Random(44)
    f = random_poly(rng, 4)
    q0 = UNIT_I
    reference = expand_at(f, q0, 4)
    contour = lemniscate_contour(LemniscateDomain(0, 1, 2), UNIT_I, 65536)
    for n, want in enumerate(reference.coeffs):
        got = coefficient_integral(f, q0, n, contour)
        assert quat_close(got, want, 1e-8 * (1 + abs(want)))
    # two-loop boundary: poles sit in different loops
    contour = lemniscate_contour(LemniscateDomain(0, 1, 0.5), UNIT_I, 65536)
    for n in (0, 1, 2):
        got = coefficient_integral(f, q0, n, contour)
        assert quat_close(got, reference.coeffs[n],
                          1e-8 * (1 + abs(reference.coeffs[n])))


def test_coefficient_integral_plane_mismatch():
    contour = circle_contour(0.0, 2.0, UNIT_I, 64)
    with pytest.raises(ValueError):
        coefficient_integral(QSQ, UNIT_J, 0, contour)


def test_coefficient_integral_in_plane_point_kept_at_huge_scale():
    # q0's off-plane part is 1e-40 of |q0|, far inside EPS_IN_PLANE; its
    # distance from the plane was inf when formed from squares.
    contour = circle_contour(0.0, 3e200, UNIT_I, 16)
    got = coefficient_integral(SlicePoly([1.0]),
                               Quaternion(0, 1e200, 1e160, 0), 0, contour)
    assert quat_close(got, ONE, 1e-7)


def test_coefficient_integral_point_far_off_plane_past_the_float_range():
    # |q0| overflows, so a guard eps (1 + |q0|) read inf and the integral
    # of q0's projection, f(i), was returned.
    contour = circle_contour(0.0, 2.0, UNIT_I, 16)
    with pytest.raises(SliceRegError, match="contour's slice plane"):
        coefficient_integral(SlicePoly([1.0, 1.0]),
                             Quaternion(0, 1, 1.7e308, 1.7e308), 0, contour)


def test_coefficient_integral_conjugate_unit():
    # q0 in the lower half of the contour plane is still in the plane
    contour = circle_contour(0.0, 2.0, UNIT_I, 256)
    q0 = Quaternion(0.3, -0.8, 0, 0)
    reference = expand_at(QSQ, q0, 2)
    for n, want in enumerate(reference.coeffs):
        got = coefficient_integral(QSQ, q0, n, contour)
        assert quat_close(got, want, 1e-8 * (1 + abs(want)))


def test_bound_report_zero_polynomial():
    report = coefficient_bound_report(SlicePoly(),
                                      LemniscateDomain(0, 1, 2), UNIT_I, 4)
    assert all(m >= 0 for m in report.margins)


def test_bound_report_square():
    report = coefficient_bound_report(QSQ, LemniscateDomain(0, 1, 2),
                                      UNIT_I, 4)
    # |A_2| = 1 against C * max|f| / R^2
    assert abs(report.coeff_mags[2] - 1.0) <= 1e-12
    assert report.bounds[2] >= 1.0
    assert report.min_margin >= -1e-9


def test_bound_report_random_margins():
    rng = random.Random(45)
    for _ in range(20):
        f = random_poly(rng, 8, scale=2.0)
        radius = rng.choice((0.5, 1.5, 3.0))
        report = coefficient_bound_report(f, LemniscateDomain(0, 1, radius),
                                          UNIT_I, int(f.degree) + 2,
                                          samples=1024)
        assert report.min_margin >= -1e-9


def test_bound_report_rejects_pinched():
    with pytest.raises(PinchedContour):
        coefficient_bound_report(QSQ, LemniscateDomain(0, 1, 1), UNIT_I, 4)


def test_bound_report_constant_at_huge_radius():
    # sqrt(R^2 + y0^2) would overflow; the boundary is nearly the circle
    # of radius R, so the constant tends to 1.  On it q^2 reaches ~1e400,
    # so its boundary maximum is refused; q stays finite there.
    domain = LemniscateDomain(0, 1, 1e200)
    with pytest.raises(SliceRegError, match="result is not finite"):
        coefficient_bound_report(QSQ, domain, UNIT_I, 1, samples=256)
    report = coefficient_bound_report(SlicePoly([0.0, 1.0]), domain, UNIT_I,
                                      1, samples=256)
    assert abs(report.constant - 1.0) <= 1e-3


@pytest.mark.parametrize("x0, y0, radius", [(0.0, 1.0, 1e-5),
                                            (3.0, 2.0, 1e-4),
                                            (-0.5, 1e3, 0.5)])
def test_bound_report_loop_radius_does_not_cancel(x0, y0, radius):
    # sqrt(R^2 + y0^2) - y0 lost ~6 digits to cancellation at R/y0 = 1e-5;
    # R^2 / (sqrt(R^2 + y0^2) + y0) keeps all but a few ulps.
    report = coefficient_bound_report(SlicePoly([1.0]),
                                      LemniscateDomain(x0, y0, radius),
                                      UNIT_I, 0, samples=64)
    loop = 2 * math.pi * report.constant / report.boundary_length
    with mpmath.workdps(40):
        r, b = mpmath.mpf(radius), mpmath.mpf(y0)
        want = (mpmath.sqrt(r * r + b * b) + b) / (r * r)
        assert abs(loop - want) <= 1e-14 * want


@pytest.mark.parametrize("length", list(range(34)) + [8191, 8192])
def test_pairwise_sum_order_is_pinned(length):
    # the bit-identical results rest on this summation tree
    rng = random.Random(1000 + length)
    values = [complex(rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 12),
                      rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 12))
              for _ in range(length)]
    got = _pairwise_sum(values)
    assert _bits([got]) == _bits([recursive_pairwise_sum(values)])


def test_pairwise_sum_matches_level_loop_bit_for_bit():
    # The written-out last levels against one list pass per level, on
    # every length up to 70 and every tail the tree can leave; signed
    # zeros, infinities and NaN included, compared by repr.
    rng = random.Random(1100)
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan)
    for _ in range(3000):
        values = [complex(*(rng.choice(specials) if rng.random() < 0.1
                            else rng.gauss(0, 1) * 10.0 ** rng.randint(-8, 8)
                            for _ in range(2)))
                  for _ in range(rng.randint(0, 70))]
        assert (repr(_pairwise_sum(values))
                == repr(reference_pairwise_sum(values)))


def _hand_built(rng, unit, count: int) -> Contour:
    """A contour of `count` arbitrary nodes in the plane of `unit`."""
    points = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(count))
    weights = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                    for _ in range(count))
    return Contour(unit, points, weights)


def test_integration_matches_per_coefficient_loop_bit_for_bit(monkeypatch):
    # Every integral runs the moment loop once; here each run is checked
    # against the loop that split every coefficient on its own and summed
    # by list passes down to one value, on the weighted kernel values the
    # library formed, compared by repr.
    checked = []
    integrate = contour_module._integrate_split

    def both(factors, f, contour, scale):
        got = integrate(factors, f, contour, scale)
        want = reference_integrate_split(factors, f, contour, scale)
        assert repr(got) == repr(want)
        checked.append(len(contour))
        return got

    monkeypatch.setattr(contour_module, "_integrate_split", both)
    rng = random.Random(1101)
    for case in range(90):
        unit = (UNIT_I, UNIT_J, UNIT_K)[case % 3] if case % 4 else \
            random_unit(rng)
        scale = 10.0 ** rng.choice((-5, 0, 5))
        f = SlicePoly([random_quaternion(rng, scale)
                       for _ in range(rng.randint(0, 12))])
        x0, y0 = rng.uniform(-1, 1), rng.uniform(0.2, 1.5)
        shape = case % 3
        if shape == 0:
            contour = circle_contour(x0, y0 + rng.uniform(0.3, 2), unit,
                                     rng.choice((16, 17, 31, 64, 100)))
        elif shape == 1:
            domain = LemniscateDomain(x0, y0,
                                      y0 * rng.choice((0.5, 1.05, 2.0)))
            contour = lemniscate_contour(domain, unit,
                                         rng.choice((16, 30, 64, 130)))
        else:
            contour = _hand_built(rng, unit, 1 + case // 3 % 9)
        q0 = embed_complex(complex(x0, y0), unit)
        for index in range(5):
            coefficient_integral(f, q0, index, contour)
        cauchy_eval(f, embed_complex(complex(x0, y0 + 0.05), unit), contour)
    assert len(checked) == 90 * 6
    assert set(range(1, 10)) <= set(checked)


def test_split_values_match_per_coefficient_split_bit_for_bit():
    # coefficient_bound_report's boundary values: the one splitter per
    # call against a split that forms I*J for every coefficient.
    rng = random.Random(1102)
    for _ in range(40):
        unit = random_unit(rng)
        f = SlicePoly([random_quaternion(rng)
                       for _ in range(rng.randint(1, 12))])
        unit_j = orthogonal_unit(unit)
        pairs = [reference_split(a, unit, unit_j) for a in reversed(f.coeffs)]
        values = _split_values(f, unit)
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            acc_f = acc_g = 0j
            for alpha, beta in pairs:
                acc_f = acc_f * z + alpha
                acc_g = acc_g * z + beta
            assert repr(values(z)) == repr((acc_f, acc_g))


def _plane_image(q: Quaternion, unit: Quaternion) -> complex:
    """The complex number a point of the plane of `unit` stands for."""
    return complex(q.w, q.x * unit.x + q.y * unit.y + q.z * unit.z)


@pytest.mark.parametrize("degree", [0, 1, 8, 24])
@pytest.mark.parametrize("family", ["circle", "lemniscate"])
def test_quadrature_sums_match_high_precision_oracle(family, degree):
    # Against the same discrete sum at 50 digits, with exact kernel values.
    # The moment form sum_n a_n sum_m c_m z_m^n and the Horner form
    # sum_m c_m f(z_m) both take one rounding per power of z_m and one per
    # level of the pairwise sum over the N nodes, so one bound serves both:
    #   |error| <= gamma * u * sum_m |c_m| sum_n |a_n| |z_m|^n,
    #   gamma = d + ceil(log2 N) + 4,
    # the 4 covering the rounded kernel values, the scale and the
    # reassembly with J.
    rng = random.Random(47 + degree)
    unit = random_unit(rng)     # off the axes, so that G != 0
    f = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    domain = LemniscateDomain(0.25, 1.0, 0.5)
    if family == "circle":
        contour = circle_contour(0.25, 1.5, unit, 100)
    else:
        contour = lemniscate_contour(domain, unit, 130)
    q0 = embed_complex(complex(0.25, 1.0), unit)
    z0 = mpmath.mpc(_plane_image(q0, unit))
    x0, y0 = z0.real, z0.imag
    inside = embed_complex(complex(0.25, 1.0) + 0.1 * cmath.exp(0.7j), unit)
    zc = mpmath.mpc(_plane_image(inside, unit))
    point = embed_complex(0.3 - 0.2j, unit)
    zp = mpmath.mpc(_plane_image(point, unit))

    def coefficient_kernel(index):
        powers, odd = divmod(index, 2)
        if odd:
            return lambda z: 1 / ((z - x0) ** 2 + y0 ** 2) ** (powers + 1)
        return lambda z: 1 / ((z - z0) * ((z - x0) ** 2 + y0 ** 2) ** powers)

    cauchy = 1.0 / (2.0j * math.pi)
    cases = [(lambda i=i: coefficient_integral(f, q0, i, contour),
              coefficient_kernel(i), cauchy) for i in range(6)]
    cases.append((lambda: cauchy_eval(f, inside, contour),
                  lambda z: 1 / (z - zc), cauchy))
    cases.append((lambda: slice_integral(lambda s: (s - point) * s, f,
                                         contour),
                  lambda z: (z - zp) * z, 1.0))
    references = reference_node_sums(f, contour, [k for _, k, _ in cases])
    gamma = degree + math.ceil(math.log2(len(contour))) + 4
    for (call, _, scale), (total, magnitude) in zip(cases, references):
        want = embed_complex(scale, unit) * total
        tol = gamma * 2.0 ** -53 * abs(scale) * magnitude
        assert quat_close(call(), want, tol)


def _peak_bytes(call) -> int:
    """Peak traced allocation while `call` runs, above what was live."""
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - live


def test_integration_memory_flat_in_degree():
    # The node passes keep a fixed number of node-length lists alive, so
    # the peak is the same at degree 4 and 32 and stays below the peak of
    # building the contour.
    rng = random.Random(48)
    polys = [SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
             for degree in (4, 32)]
    domain = LemniscateDomain(0.0, 1.0, 0.5)
    q0 = embed_complex(1j, UNIT_I)
    inside = embed_complex(1.1j, UNIT_I)
    tracemalloc.start()
    try:
        build = _peak_bytes(lambda: lemniscate_contour(domain, UNIT_I, 8192))
        contour = lemniscate_contour(domain, UNIT_I, 8192)
        for integrate in (lambda f: coefficient_integral(f, q0, 5, contour),
                          lambda f: cauchy_eval(f, inside, contour)):
            low, high = (_peak_bytes(lambda: integrate(f)) for f in polys)
            assert abs(high - low) <= 0.01 * low
            assert max(low, high) <= build
    finally:
        tracemalloc.stop()
