import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      SliceRegError, Sphere)
from oracles import (exact_poly, exact_quaternion, oracle_convolution,
                     oracle_eval, poly_close, quat_close, random_poly,
                     random_quaternion, ring_horner, ring_star, ring_sum)

X = SlicePoly.variable()


def test_add():
    assert X + SlicePoly.constant(1.0) == SlicePoly([1.0, 1.0])
    f = SlicePoly([UNIT_I, Quaternion(1, 2, 3, 4)])
    assert f + SlicePoly.zero() == f


def test_right_scale():
    scaled = X * UNIT_I
    assert scaled.coeffs == (Quaternion(0, 0, 0, 0), UNIT_I)
    # left scale multiplies coefficients on the left
    f = SlicePoly([UNIT_J])
    assert (UNIT_I * f).coeffs == (UNIT_K,)
    assert (f * UNIT_I).coeffs == (-UNIT_K,)


def test_star_product_known_factorizations():
    prod = SlicePoly.linear_factor(UNIT_I) * SlicePoly([UNIT_I, ONE])
    assert prod == SlicePoly([1.0, 0.0, 1.0])  # (q-I)*(q+I) = q^2 + 1

    prod = SlicePoly.linear_factor(UNIT_I) * SlicePoly.linear_factor(UNIT_J)
    # (q-I)*(q-J) = q^2 - q(I+J) + IJ
    assert prod == SlicePoly([UNIT_K, -(UNIT_I + UNIT_J), ONE])


def test_star_product_single_terms():
    # (q i) * (q j) = q^2 k
    prod = (X * UNIT_I) * (X * UNIT_J)
    assert prod == SlicePoly([Quaternion(0, 0, 0, 0), Quaternion(0, 0, 0, 0),
                              UNIT_K])


def test_star_matches_convolution_oracle():
    rng = random.Random(20)
    for _ in range(50):
        f = random_poly(rng, 6)
        g = random_poly(rng, 6)
        expected = oracle_convolution(f.coeffs, g.coeffs)
        got = f * g
        for n, c in enumerate(expected):
            assert quat_close(got.coefficient(n), c, 1e-13 * (1 + abs(c)))


def test_eval_zero_set_of_quadratic():
    # q^2 + 1 vanishes at every imaginary unit
    f = SlicePoly([1.0, 0.0, 1.0])
    for unit in (UNIT_I, UNIT_J, UNIT_K, (UNIT_I + UNIT_K) / math.sqrt(2)):
        assert abs(f(unit)) <= 1e-15


def test_eval_noncommutative_example():
    # (q-I)*(q-J) at J: expansion gives 2k, so J is not a zero
    f = SlicePoly.linear_factor(UNIT_I) * SlicePoly.linear_factor(UNIT_J)
    expected = oracle_eval(f.coeffs, UNIT_J)
    assert expected == Quaternion(0, 0, 0, 2)
    assert f(UNIT_J) == expected


def test_eval_at_zero_gives_constant_coefficient():
    rng = random.Random(21)
    f = random_poly(rng, 5)
    assert f(Quaternion(0, 0, 0, 0)) == f.coeffs[0]


def test_eval_matches_oracle():
    rng = random.Random(22)
    for _ in range(50):
        f = random_poly(rng, 8)
        q = random_quaternion(rng, 1.5)
        expected = oracle_eval(f.coeffs, q)
        assert quat_close(f(q), expected, 1e-12 * (1 + abs(expected)))


def test_remainder_div_square():
    value, remainder = SlicePoly([0.0, 0.0, 1.0]).remainder_div(UNIT_I)
    assert value == -ONE
    assert remainder == SlicePoly([UNIT_I, ONE])  # q + i
    # reconstruction through the convolution oracle:
    # -1 + (q-i)*(q+i) = q^2
    recon = oracle_convolution(SlicePoly.linear_factor(UNIT_I).coeffs,
                               remainder.coeffs)
    recon[0] = recon[0] + value
    assert recon[0] == Quaternion(0, 0, 0, 0)
    assert recon[1] == Quaternion(0, 0, 0, 0)
    assert recon[2] == ONE


def test_remainder_div_constant():
    c = Quaternion(1, 2, 3, 4)
    value, remainder = SlicePoly.constant(c).remainder_div(UNIT_J)
    assert value == c
    assert remainder.is_zero()


def test_remainder_div_two_factor_product():
    f = SlicePoly.linear_factor(UNIT_I) * SlicePoly.linear_factor(UNIT_J)
    value, remainder = f.remainder_div(UNIT_I)
    assert abs(value) <= 1e-15
    assert remainder == SlicePoly.linear_factor(UNIT_J)


def test_remainder_reconstruction_property():
    rng = random.Random(23)
    for _ in range(100):
        f = random_poly(rng, 10)
        q0 = random_quaternion(rng, 1.25)
        value, remainder = f.remainder_div(q0)
        recon = SlicePoly.constant(value) + \
            SlicePoly.linear_factor(q0) * remainder
        scale = 1.0 + f.max_coeff_norm()
        assert poly_close(recon, f, 1e-13 * scale)


def test_quadratic_div_exact_factor():
    quotient, remainder = SlicePoly([1.0, 0.0, 1.0]).quadratic_div(Sphere(0, 1))
    assert quotient == SlicePoly.constant(1.0)
    assert remainder.is_zero()


def test_quadratic_div_low_degree():
    quotient, remainder = X.quadratic_div(Sphere(0, 1))
    assert quotient.is_zero()
    assert remainder == X


def test_quadratic_div_cube():
    # q^3 = (q^2+1) q - q, checked against the convolution oracle
    cube = SlicePoly([0.0, 0.0, 0.0, 1.0])
    quotient, remainder = cube.quadratic_div(Sphere(0, 1))
    assert quotient == X
    assert remainder == -X
    recon = oracle_convolution(SlicePoly([1.0, 0.0, 1.0]).coeffs,
                               quotient.coeffs)
    assert SlicePoly(recon) + remainder == cube


def test_quadratic_reconstruction_property():
    rng = random.Random(24)
    for _ in range(100):
        f = random_poly(rng, 9)
        sphere = Sphere(rng.uniform(-1.5, 1.5), rng.uniform(0, 1.5))
        quotient, remainder = f.quadratic_div(sphere)
        recon = SlicePoly.sphere_quadratic(sphere) * quotient + remainder
        assert poly_close(recon, f, 1e-13 * (1 + f.max_coeff_norm()))


def test_star_associative_and_distributive():
    rng = random.Random(25)
    for _ in range(60):
        f, g, h = (random_poly(rng, 4) for _ in range(3))
        scale = 1e-12 * (1 + f.max_coeff_norm() * g.max_coeff_norm()
                         * h.max_coeff_norm())
        assert poly_close((f * g) * h, f * (g * h), scale)
        assert poly_close(f * (g + h), f * g + f * h, scale)


def test_real_polynomial_evaluates_multiplicatively():
    rng = random.Random(26)
    for _ in range(60):
        f = SlicePoly([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
        g = random_poly(rng, 5)
        q = random_quaternion(rng, 1.2)
        left = (f * g)(q)
        right = f(q) * g(q)
        assert quat_close(left, right, 1e-11 * (1 + abs(left)))


def test_conjugate_pair_gives_sphere_quadratic():
    rng = random.Random(27)
    for _ in range(100):
        q0 = random_quaternion(rng, 2.0)
        sphere = Sphere(q0.re, q0.im_norm())
        prod = SlicePoly.linear_factor(q0) * SlicePoly.linear_factor(q0.conj())
        assert poly_close(prod, SlicePoly.sphere_quadratic(sphere),
                          1e-13 * (1 + abs(q0) ** 2))


def test_degree_and_trimming():
    assert SlicePoly.zero().degree == -math.inf
    assert SlicePoly.zero().is_zero()
    f = SlicePoly([1.0, 2.0, 0.0, 0.0])
    assert f.degree == 1
    # interior zeros survive, only the tail is trimmed
    g = SlicePoly([1.0, 0.0, 2.0])
    assert g.degree == 2
    # tiny trailing junk relative to the leading scale is dropped
    h = SlicePoly([1e6, 1.0, 1e-10])
    assert h.degree == 1


def test_trim_keeps_huge_coefficients():
    # the trim threshold scales with max |a_n|; it must stay finite
    f = SlicePoly([1e300, 0.0, 1e300])
    assert len(f.coeffs) == 3
    assert f.degree == 2


def test_non_finite_coefficient_refused():
    # An infinite modulus makes the trim threshold infinite, which would
    # trim every coefficient away and leave the zero polynomial.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(SliceRegError, match="coefficient is not finite"):
            SlicePoly([bad, 1.0])
    big = SlicePoly([1e200, 1e200])
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        big * big


def test_power():
    f = SlicePoly.linear_factor(UNIT_I)
    assert f ** 0 == SlicePoly.constant(1.0)
    assert f ** 2 == f * f
    with pytest.raises(ValueError):
        f ** -1


def test_immutability():
    f = SlicePoly([1.0])
    with pytest.raises(AttributeError):
        f.coeffs = ()


def test_deletion_refused():
    f = SlicePoly([1.0, 2.0])
    with pytest.raises(AttributeError, match="SlicePoly is immutable"):
        del f.coeffs
    assert f.degree == 1
    assert f(ONE) == Quaternion(3.0, 0.0, 0.0, 0.0)


def test_pickle_and_copy():
    f = SlicePoly([ONE, UNIT_J * 1e-300, Quaternion(0.1, 2.0, -3.0, 4e200)])
    clones = [pickle.loads(pickle.dumps(f, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(f), copy.deepcopy(f)]:
        assert type(clone) is SlicePoly
        assert clone.coeffs == f.coeffs


# Exact ring checks: small integer data keeps every intermediate an
# integer well below 2^53, so the library's binary64 results are exact
# and must equal the rational oracle bit for bit.

def _small_quaternion(rng):
    return Quaternion(*(rng.randint(-3, 3) for _ in range(4)))


def _small_poly(rng):
    return SlicePoly(_small_quaternion(rng)
                     for _ in range(rng.randint(1, 9)))


def test_star_and_horner_match_exact_ring():
    rng = random.Random(61)
    for _ in range(150):
        f, g = _small_poly(rng), _small_poly(rng)
        assert exact_poly(f * g) == ring_star(exact_poly(f), exact_poly(g))
        q = _small_quaternion(rng)
        assert exact_quaternion(f(q)) == ring_horner(exact_poly(f),
                                                     exact_quaternion(q))


def test_remainder_div_matches_exact_ring():
    # f = f(q0) + (q - q0) * R has a unique solution, checked exactly.
    rng = random.Random(62)
    for _ in range(150):
        f, q0 = _small_poly(rng), _small_quaternion(rng)
        value, rest = f.remainder_div(q0)
        exact_q0 = exact_quaternion(q0)
        assert exact_quaternion(value) == ring_horner(exact_poly(f), exact_q0)
        factor = [tuple(-v for v in exact_q0), exact_quaternion(ONE)]
        rebuilt = ring_sum(ring_star(factor, exact_poly(rest)),
                           [exact_quaternion(value)])
        assert rebuilt == exact_poly(f)


def test_quadratic_div_matches_exact_ring():
    # f = [(q - x0)^2 + y0^2] * Q + (b + q c) has a unique solution; x0 and
    # y0^2 are integers, with y0 * y0 == y0^2 in binary64.
    squares = [k for k in range(13) if math.sqrt(k) ** 2 == k]
    rng = random.Random(63)
    for _ in range(150):
        f = _small_poly(rng)
        x0, y0_sq = rng.randint(-3, 3), rng.choice(squares)
        quot, rest = f.quadratic_div(Sphere(x0, math.sqrt(y0_sq)))
        assert rest.degree <= 1
        quadratic = [(Fraction(x0 * x0 + y0_sq), 0, 0, 0),
                     (Fraction(-2 * x0), 0, 0, 0), (Fraction(1), 0, 0, 0)]
        rebuilt = ring_sum(ring_star(quadratic, exact_poly(quot)),
                           exact_poly(rest))
        assert rebuilt == exact_poly(f)
