import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, Quaternion, SlicePoly,
                      SliceRegError, Sphere)
from oracles import (coefficient, exact_poly, exact_quaternion,
                     exact_rotation, oracle_convolution, oracle_eval,
                     plain_star, poly_close, quat_close, random_poly,
                     random_quaternion, reference_horner, reference_star,
                     ring_horner, ring_star, ring_sum)

X = SlicePoly([0, 1])


def test_add():
    assert X + SlicePoly([1.0]) == SlicePoly([1.0, 1.0])
    f = SlicePoly([UNIT_I, Quaternion(1, 2, 3, 4)])
    assert f + SlicePoly() == f


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
            assert quat_close(coefficient(got, n), c, 1e-13 * (1 + abs(c)))


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
    value, remainder = SlicePoly([c]).remainder_div(UNIT_J)
    assert value == c
    assert not remainder.coeffs


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
        recon = SlicePoly([value]) + \
            SlicePoly.linear_factor(q0) * remainder
        scale = 1.0 + f.max_coeff_norm()
        assert poly_close(recon, f, 1e-13 * scale)


def test_quadratic_div_exact_factor():
    quotient, remainder = SlicePoly([1.0, 0.0, 1.0]).quadratic_div(Sphere(0, 1))
    assert quotient == SlicePoly([1.0])
    assert not remainder.coeffs


def test_quadratic_div_low_degree():
    quotient, remainder = X.quadratic_div(Sphere(0, 1))
    assert not quotient.coeffs
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


def test_quadratic_div_keeps_small_remainder_coefficient():
    # q^2 = Q + 2 x0 q - (x0^2 + y0^2) on Sphere(1e150, 1): c = 2e150 is
    # 5e-151 times |b|, and no coefficient is dropped for being small.
    quotient, remainder = SlicePoly([0.0, 0.0, 1.0]).quadratic_div(
        Sphere(1e150, 1.0))
    assert quotient == SlicePoly([1.0])
    assert remainder.coeffs == (Quaternion(-(1e150 * 1e150 + 1.0), 0, 0, 0),
                                Quaternion(2e150, 0, 0, 0))


def test_remainder_div_keeps_small_cofactor_coefficient():
    # q^2 + 1 = (1e26 + 1) + (q - 1e13)(q + 1e13): R's leading 1 is
    # 1e-13 times its constant term.
    value, rest = SlicePoly([1.0, 0.0, 1.0]).remainder_div(
        Quaternion(1e13, 0, 0, 0))
    assert value == Quaternion(1e26 + 1.0, 0, 0, 0)
    assert rest.coeffs == (Quaternion(1e13, 0, 0, 0), ONE)


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
        sphere = Sphere(q0.w, q0.im_norm())
        prod = SlicePoly.linear_factor(q0) * SlicePoly.linear_factor(q0.conj())
        assert poly_close(prod, SlicePoly.sphere_quadratic(sphere),
                          1e-13 * (1 + abs(q0) ** 2))


def test_degree_and_trimming():
    assert SlicePoly().degree == -math.inf
    assert SlicePoly().coeffs == ()
    f = SlicePoly([1.0, 2.0, 0.0, 0.0])
    assert f.degree == 1
    # interior zeros survive, only the tail is trimmed
    g = SlicePoly([1.0, 0.0, 2.0])
    assert g.degree == 2
    # only exact zeros are trimmed: a small coefficient is a coefficient
    h = SlicePoly([1e6, 1.0, 1e-10])
    assert h.degree == 2


def test_trim_keeps_huge_coefficients():
    # huge coefficients are kept: nothing is compared with max |a_n|
    f = SlicePoly([1e300, 0.0, 1e300])
    assert len(f.coeffs) == 3
    assert f.degree == 2


def test_non_finite_coefficient_refused():
    # An infinite or NaN coefficient is refused, neither kept nor
    # dropped as a trailing zero.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(SliceRegError, match="coefficient is not finite"):
            SlicePoly([bad, 1.0])
    big = SlicePoly([1e200, 1e200])
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        big * big


def test_power():
    f = SlicePoly.linear_factor(UNIT_I)
    assert f ** 0 == SlicePoly([1.0])
    assert f ** 2 == f * f
    with pytest.raises(SliceRegError, match="negative star powers"):
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


# Roundoff of the star product against the exact ring at benchmark scale.
#
# Each coefficient is split as A1 + A2 j with complex halves, and
# c_n = (sum_k A1 B1 - sum_k A2 conj B2) + (sum_k A1 B2 + sum_k A2 conj B1) j
# over the K terms k of c_n.  A real component of one complex product is
# fl(fl(p) -+ fl(q)), within gamma_2 (|p| + |q|); summing K of them from 0
# adds at most K - 1 roundings, and the final difference or sum of two
# dot products one more.  So each real component of c_n is within
# gamma_{K+2} T, where T sums |a_k,r b_{n-k},s| over the four component
# pairs (r, s) of that component and over k.  The pairs of one component
# match each component of a_k with one of b_{n-k}, so by Cauchy-Schwarz
# T <= S_n = sum_k |a_k| |b_{n-k}|, and the four components give
#     |fl(c_n) - c_n| <= 2 gamma_{K+2} S_n <= c (K + 4) u S_n,   c = 2,
# since gamma_m = m u / (1 - m u) and (K + 2) / (1 - (K + 2) u) <= K + 4
# for every K below 10^7.  No product underflows or overflows on the data
# below: random.uniform(-1, 1) is -1 + 2 random(), a multiple of 2^-52,
# so a nonzero component is at least 2^-52 times its scale 2^k, and with
# |k| <= 400 every product and sum stays within 2^-904 .. 2^806.

U = 2.0 ** -53
STAR_C = 2


def _star_terms(a, b):
    """(K, S_n) for each coefficient c_n of the star product of the
    coefficient lists a and b: its number of terms and sum_k |a_k||b_{n-k}|."""
    la, lb = len(a), len(b)
    for n in range(la + lb - 1):
        ks = range(max(0, n - lb + 1), min(n + 1, la))
        yield len(ks), math.fsum(abs(a[k]) * abs(b[n - k]) for k in ks)


def _star_ratios(f, g, got):
    """|got_n - exact_n| / ((K + 4) u S_n) for every n, with exact_n from
    the Fraction ring on the float inputs (0 where S_n = 0 and the
    coefficient is exactly 0)."""
    exact = ring_star(exact_poly(f), exact_poly(g))
    ratios = []
    for n, (terms, s_n) in enumerate(_star_terms(f.coeffs, g.coeffs)):
        want = exact[n] if n < len(exact) else (Fraction(0),) * 4
        diff_sq = sum((x - y) ** 2 for x, y in
                      zip(exact_quaternion(coefficient(got, n)), want))
        if s_n == 0.0:
            assert diff_sq == 0
            ratios.append(0.0)
            continue
        unit = Fraction((terms + 4) * U) * Fraction(s_n)
        ratios.append(math.sqrt(diff_sq / unit ** 2))
    return ratios


def _scaled_poly(rng, degree, k):
    return SlicePoly(Quaternion(*(rng.uniform(-1.0, 1.0) * 2.0 ** k
                                  for _ in range(4)))
                     for _ in range(degree + 1))


def test_star_within_roundoff_of_exact_ring():
    rng = random.Random(64)
    cases = [(rng.randint(0, 24), rng.randint(0, 24)) for _ in range(40)]
    cases += [(48, 48), (48, rng.randint(0, 48)), (rng.randint(0, 48), 48)]
    worst = 0.0
    for deg_f, deg_g in cases:
        f = _scaled_poly(rng, deg_f, rng.randint(-400, 400))
        g = _scaled_poly(rng, deg_g, rng.randint(-400, 400))
        worst = max(worst, *_star_ratios(f, g, f * g))
    assert worst <= STAR_C


def test_star_scalar_operands_within_roundoff():
    rng = random.Random(65)
    for _ in range(60):
        f = _scaled_poly(rng, rng.randint(0, 12), rng.randint(-400, 400))
        k = rng.randint(-400, 400)
        quat = random_quaternion(rng, 2.0 ** k)
        real = rng.uniform(-1.0, 1.0) * 2.0 ** k
        for scalar in (quat, real):
            const = SlicePoly([scalar])
            assert max(_star_ratios(f, const, f * scalar)) <= STAR_C
            assert max(_star_ratios(const, f, scalar * f)) <= STAR_C
    assert SlicePoly([1.0, UNIT_J]) * 3 == SlicePoly([3.0, UNIT_J * 3.0])
    assert 3 * SlicePoly([1.0, UNIT_J]) == SlicePoly([3.0, UNIT_J * 3.0])


def test_star_power_of_two_scaling_is_bit_identical():
    # Every product and sum of (2^s f) * g is 2^s times the one of f * g,
    # exactly, while nothing leaves the normal range.
    rng = random.Random(66)
    for _ in range(60):
        f = _scaled_poly(rng, rng.randint(0, 16), rng.randint(-200, 200))
        g = _scaled_poly(rng, rng.randint(0, 16), rng.randint(-200, 200))
        scale = 2.0 ** rng.randint(-300, 300)
        scaled_f = SlicePoly(c * scale for c in f.coeffs)
        assert repr(scaled_f * g) == repr(scale * (f * g))
        assert repr(g * scaled_f) == repr((g * f) * scale)


def test_star_overflow_refused():
    # A product past the float range is refused, whichever half of the
    # split it lands in and whichever side a scalar stands on.
    for big in (SlicePoly([1e200, 1e200]), SlicePoly([UNIT_J * 1e200]),
                SlicePoly([UNIT_K * 1e200, UNIT_I * 1e200])):
        for product in (lambda: big * big, lambda: big * 1e200,
                        lambda: 1e200 * big, lambda: big * (UNIT_J * 1e200),
                        lambda: (UNIT_K * 1e200) * big):
            with pytest.raises(SliceRegError,
                               match="coefficient is not finite"):
                product()


def test_star_matches_reference_loop():
    # The Quaternion double loop, kept as the reference, differs only in
    # how each coefficient's sums are grouped: on integer data not at all.
    rng = random.Random(67)
    for _ in range(100):
        f, g = _small_poly(rng), _small_poly(rng)
        assert repr(f * g) == repr(reference_star(f, g))
    for _ in range(40):
        f = _scaled_poly(rng, rng.randint(0, 16), 0)
        g = _scaled_poly(rng, rng.randint(0, 16), 0)
        assert max(_star_ratios(f, g, reference_star(f, g))) <= STAR_C


def _zeroed_poly(rng, degree, k):
    """`_scaled_poly` with about a third of its coefficients whole
    signed zeros."""
    return SlicePoly(Quaternion(*(rng.choice((0.0, -0.0)) for _ in range(4)))
                     if rng.random() < 0.3 else c
                     for c in _scaled_poly(rng, degree, k).coeffs)


def _underflowing_poly(rng, degree):
    """Coefficients at 2^-500 below a top one or two at 2^-560: the top
    of a product of two is 2^-1120, below the least subnormal."""
    tops = rng.randint(1, 2)
    return SlicePoly(c * 2.0 ** (-500 if n < degree + 1 - tops else -560)
                     for n, c in enumerate(_scaled_poly(rng, degree, 0).coeffs))


def test_star_matches_plain_star_bit_for_bit():
    # plain_star cuts both windows exactly for every coefficient, the
    # library one: every value, signed zero, subnormal and trimmed top
    # must be the same.
    rng = random.Random(68)
    pairs = [(_scaled_poly(rng, rng.randint(0, 20), rng.randint(-500, 500)),
              _scaled_poly(rng, rng.randint(0, 20), rng.randint(-500, 500)))
             for _ in range(150)]
    pairs += [(_zeroed_poly(rng, rng.randint(0, 20), rng.randint(-500, 500)),
               _zeroed_poly(rng, rng.randint(0, 20), rng.randint(-500, 500)))
              for _ in range(60)]
    pairs += [(_scaled_poly(rng, d, rng.randint(-500, 500)),
               _scaled_poly(rng, e, rng.randint(-500, 500)))
              for d, e in ((48, 48), (48, 2), (2, 48))]
    underflow = [(_underflowing_poly(rng, rng.randint(1, 12)),
                  _underflowing_poly(rng, rng.randint(1, 12)))
                 for _ in range(40)]
    assert any((f * g).degree < f.degree + g.degree for f, g in underflow)
    for f, g in pairs + underflow:
        assert repr(f * g) == repr(plain_star(f, g))
        k = rng.randint(-500, 500)
        for scalar in (random_quaternion(rng, 2.0 ** k), 2.5):
            const = SlicePoly([scalar])
            assert repr(f * scalar) == repr(plain_star(f, const))
            assert repr(scalar * f) == repr(plain_star(const, f))


# Roundoff of Horner evaluation and remainder_div against the exact ring.
#
# Each step g <- a + q g runs on the halves q = p + r j and g = A + B j:
# A <- a1 + (p A - r conj B) and conj B <- conj a2 + (conj p conj B +
# conj r A).  A real component of the new g is
# a_c + ((t1 -+ t2) -+ (t3 -+ t4)) over four products t of one component
# of q and one of g, each of q's and g's components used once.  Each
# product carries four roundings (its own, two combinations, the addition
# of a_c) and a_c one, so the component errs by at most
# u |a_c| + gamma_4 sum |q_r| |g_s| <= u |a_c| + gamma_4 |q| |g|
# (Cauchy-Schwarz), and the step, a quaternion, by
# e_n <= u |a_n| + 2 gamma_4 |q| |g_{n+1}|.  The errors add up as
# sum_n q^n e_n, and |g_{n+1}| <= sum_{m>n} |a_m| |q|^(m-n-1), so to first
# order
#     |fl(f(q)) - f(q)| <= u S + 2 gamma_4 sum_m m |a_m| |q|^m
#                       <= (8.0001 d + 1) u S,      S = sum_n |a_n| |q|^n,
# with gamma_4 = 4u / (1 - 4u) < 4.00005 u.  The second-order terms are
# below (10 d u)^2 S, so for every degree d >= 1 (d = 0 is exact)
#     |fl(f(q)) - f(q)| <= c d u S,   c = 10.
# The coefficient R_m of remainder_div's R is the Horner value of the
# tail a_{m+1}, ..., a_d at q, of degree d - m - 1, under the same bound
# with its own S; every coefficient SlicePoly keeps is checked.
# Coefficients are uniform(-1, 1) 2^k with |k| <= 400, multiples of
# 2^(k-52), and the components of q are uniform(-1, 1) 2^j with
# |j| d <= 400, so S >= |a_0| >= 2^-452 and every term of S stays below
# 2^900: a product that underflows errs by at most 2^-1075, far below u S.

HORNER_C = 10


def _horner_ratio(tail: list, q: Quaternion, got: Quaternion) -> float:
    """|got - h| / (d u S) for the exact Horner value h of the
    coefficients `tail` at q, d their degree, S = sum_n |a_n| |q|^n."""
    want = ring_horner([exact_quaternion(a) for a in tail],
                       exact_quaternion(q))
    diff_sq = sum((x - y) ** 2 for x, y in zip(exact_quaternion(got), want))
    degree = len(tail) - 1
    if degree <= 0:
        assert diff_sq == 0
        return 0.0
    size = math.fsum(abs(a) * abs(q) ** n for n, a in enumerate(tail))
    unit = Fraction(degree * U) * Fraction(size)
    return math.sqrt(diff_sq / unit ** 2)


def _horner_case(rng, degree, k_max=400):
    """f with coefficients of scale 2^k, |k| <= k_max, and q with
    components of scale 2^j, |j| degree <= k_max."""
    f = _scaled_poly(rng, degree, rng.randint(-k_max, k_max))
    reach = k_max // max(degree, 1)
    q = Quaternion(*(rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-reach, reach)
                     for _ in range(4)))
    return f, q


def test_horner_within_roundoff_of_exact_ring():
    rng = random.Random(68)
    degrees = [rng.randint(0, 24) for _ in range(40)] + [48, 48, 47, 1, 0]
    worst = 0.0
    for degree in degrees:
        f, q = _horner_case(rng, degree)
        coeffs = list(f.coeffs)
        worst = max(worst, _horner_ratio(coeffs, q, f(q)))
        value, rest = f.remainder_div(q)
        assert repr(value) == repr(f(q))
        # SlicePoly drops only R's trailing coefficients that are exactly 0.
        for m, got in enumerate(rest.coeffs):
            worst = max(worst, _horner_ratio(coeffs[m + 1:], q, got))
    assert worst <= HORNER_C


def test_horner_power_of_two_scaling_is_bit_identical():
    # Every product and sum of Horner on 2^s f is 2^s times the one on f,
    # exactly, while nothing leaves the normal range: with |k|, |j| d and
    # |s| at most 200, 200 and 300 every term stays within 2^-800 .. 2^740.
    rng = random.Random(69)
    for _ in range(60):
        f, q = _horner_case(rng, rng.randint(0, 16), 200)
        scale = 2.0 ** rng.randint(-300, 300)
        scaled = SlicePoly(c * scale for c in f.coeffs)
        assert repr(scaled(q)) == repr(f(q) * scale)
        value, rest = scaled.remainder_div(q)
        assert repr(value) == repr(f(q) * scale)
        assert repr(rest) == repr(f.remainder_div(q)[1] * scale)


def test_horner_matches_reference_loop():
    # The Quaternion loop, kept as the reference, groups each step's sums
    # differently: on integer data not at all, signed zeros included.  On
    # random data its four-term components carry five roundings per term,
    # so it is within (10.0002 d + 1) u S <= 12 d u S of the exact value,
    # and the two differ by at most (HORNER_C + 12) d u S.
    rng = random.Random(70)
    for _ in range(200):
        f, q = _small_poly(rng), _small_quaternion(rng)
        assert repr(f(q)) == repr(reference_horner(f, q))
    for _ in range(40):
        f = _scaled_poly(rng, rng.randint(0, 16), 0)
        q = random_quaternion(rng, 1.5)
        size = math.fsum(abs(a) * abs(q) ** n for n, a in enumerate(f.coeffs))
        bound = (HORNER_C + 12) * max(f.degree, 1) * U * size
        assert abs(f(q) - reference_horner(f, q)) <= bound


@pytest.mark.parametrize("coeffs, q", [
    ([1.0, UNIT_J, 1.0], Quaternion(1e200, 0, 0, 0)),
    ([1.0, UNIT_J, 1.0], Quaternion(0, 0, 0, -1e200)),
    ([1.0, UNIT_J, 1.0], Quaternion(math.inf, 0, 0, 0)),
    ([1.0, UNIT_J, 1.0], Quaternion(0, 0, -math.inf, 0)),
    ([1.0, UNIT_J, 1.0], Quaternion(0, math.nan, 0, 0)),
    ([1.0, 1e308, 1e308], Quaternion(10.0, 0, 0, 0)),
], ids=["huge-w", "huge-z", "inf-w", "inf-y", "nan-x", "partial-sum"])
def test_horner_non_finite_result_refused(coeffs, q):
    # The value overflows, or q is not finite: refused once per call with
    # the message the CLI prints, not returned as inf or NaN.  In
    # "partial-sum" q is moderate and the partial sum 1e308 + 10 * 1e308
    # overflows: a component that is not finite carries through to the
    # value, so `remainder_div` refuses it as the value, not as a
    # coefficient of its quotient.
    f = SlicePoly(coeffs)
    with pytest.raises(SliceRegError, match="result is not finite"):
        f(q)
    with pytest.raises(SliceRegError, match="result is not finite"):
        f.remainder_div(q)


def test_remainder_div_partial_sum_modulus_overflow_refused():
    # The partial sum a_1 + q0 a_2 = (1.32e308, 1.32e308, 0, 0) has finite
    # components but a modulus past the float range, while the value
    # f(q0) ~ (1.32e307, 1.32e307, 0, 0) is finite: R cannot be a
    # SlicePoly, and is refused as a coefficient that is not finite.
    big = Quaternion(1.2e308, 1.2e308, 0, 0)
    f, q0 = SlicePoly([1.0, big, big]), Quaternion(0.1, 0, 0, 0)
    value = f(q0)
    assert all(map(math.isfinite, (value.w, value.x, value.y, value.z)))
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        f.remainder_div(q0)


# Conjugation by a unit u is a ring automorphism, so it commutes with the
# star: u (f g) u^-1 = (u f u^-1)(u g u^-1).  Both sides are computed from
# rotations done exactly and rounded once (`exact_rotation`): the left
# rotates the computed f * g, the right multiplies the rotated f and g.
# Rotation keeps moduli, so each side is one star product within
# c (K + 4) u S_n of its exact value, and the three roundings of rotated
# values add (1 + u) u S_n on the left and (2 + u) u S_n on the right:
#     |left_n - right_n| <= (2 c (K + 4) + 4) u S_n,
# the last u S_n covering the O(u^2) terms.  Components are 0 or at least
# 2^-100 in modulus and leading coefficients at least 2^-10, so no product
# underflows and neither side trims a coefficient.

_components_st = st.floats(-1.0, 1.0).filter(
    lambda v: v == 0.0 or abs(v) >= 2.0 ** -100)
_quaternions = st.builds(Quaternion, _components_st, _components_st,
                         _components_st, _components_st)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.lists(_quaternions, min_size=1, max_size=13),
       b=st.lists(_quaternions, min_size=1, max_size=13), u=_quaternions)
def test_star_commutes_with_conjugation_by_a_unit(a, b, u):
    assume(min(abs(a[-1]), abs(b[-1])) >= 2.0 ** -10 and abs(u) >= 0.1)
    unit = u / abs(u)
    f, g = SlicePoly(a), SlicePoly(b)

    def rotated(p):
        return SlicePoly(exact_rotation(c, unit) for c in p.coeffs)

    left, right = rotated(f * g), rotated(f) * rotated(g)
    for n, (terms, s_n) in enumerate(_star_terms(a, b)):
        bound = (2 * STAR_C * (terms + 4) + 4) * U * s_n
        assert abs(coefficient(left, n) - coefficient(right, n)) <= bound
