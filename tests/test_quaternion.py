import copy
import math
import pickle
import random

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, ZERO, Quaternion,
                      SlicePoly, Sphere, DegenerateSphere,
                      embed_complex, is_imaginary_unit, orthogonal_unit,
                      representation_eval, sigma_distance, slice_decompose,
                      split_complex)
from slicereg.quaternion import off_plane
from slicereg.tolerances import (EPS_IN_PLANE, EPS_ROOT, EPS_SAMPLE_ON_SPHERE,
                                 EPS_UNIT, zero_guard)
from oracles import (coordinate_extract, oracle_eval, oracle_mul, quat_close,
                     random_quaternion, random_unit, sphere_point)


def test_multiplication_table():
    assert UNIT_I * UNIT_J == UNIT_K
    assert UNIT_J * UNIT_I == -UNIT_K
    assert UNIT_J * UNIT_K == UNIT_I
    assert UNIT_K * UNIT_J == -UNIT_I
    assert UNIT_K * UNIT_I == UNIT_J
    assert UNIT_I * UNIT_K == -UNIT_J
    for u in (UNIT_I, UNIT_J, UNIT_K):
        assert u * u == -ONE


def test_one_is_neutral():
    rng = random.Random(1)
    for _ in range(20):
        q = random_quaternion(rng, 3.0)
        assert ONE * q == q
        assert q * ONE == q


def test_mixed_product_component_expansion():
    # (i+j)(i-j) expanded by brute force: i^2 - ij + ji - j^2 = -2k.
    a = UNIT_I + UNIT_J
    b = UNIT_I - UNIT_J
    expected = oracle_mul(a, b)
    assert expected == Quaternion(0, 0, 0, -2)
    assert a * b == expected


def test_mul_matches_structure_constants():
    rng = random.Random(2)
    for _ in range(200):
        a = random_quaternion(rng, 5.0)
        b = random_quaternion(rng, 5.0)
        assert quat_close(a * b, oracle_mul(a, b), 1e-12 * (1 + abs(a) * abs(b)))


def test_conjugate():
    assert (ONE + UNIT_I).conj() == ONE - UNIT_I
    q = Quaternion(1, -2, 3, -4)
    assert q.conj() == Quaternion(1, 2, -3, 4)
    assert q.conj().conj() == q


def test_modulus():
    assert abs(Quaternion(3, 0, 0, 4)) == 5.0
    # |q|^2 = q * conj(q) with vanishing imaginary part
    rng = random.Random(3)
    for _ in range(50):
        q = random_quaternion(rng, 4.0)
        prod = q * q.conj()
        assert abs(prod.w - q.norm_sq()) <= 1e-12 * (1 + q.norm_sq())
        assert prod.im_norm() <= 1e-12 * (1 + q.norm_sq())


def test_inverse():
    assert UNIT_I.inverse() == -UNIT_I
    rng = random.Random(4)
    for _ in range(50):
        q = random_quaternion(rng, 4.0)
        if abs(q) < 1e-3:
            continue
        assert quat_close(q * q.inverse(), ONE, 1e-12)
        assert quat_close(q.inverse() * q, ONE, 1e-12)


def test_inverse_at_extreme_scales():
    # |q|^2 overflows above ~1.3e154; the inverse scales q by a power of
    # two first, so it never forms |q|^2.
    for w in (1e200, 1e160, -3e300, 1.7e308):
        inv = Quaternion(w, 0, 0, 0).inverse()
        assert abs(inv.w * w - 1.0) <= 1e-15 and inv.im_norm() == 0.0
    q = Quaternion(3e250, -4e250, 1e250, 2e250)
    assert quat_close(q * q.inverse(), ONE, 1e-15)
    # Here |q| itself overflows, but q is finite and far from zero; its
    # inverse, 2.94e-309 per component, is subnormal.
    q = Quaternion(1.7e308, 1.7e308, 0, 0)
    assert math.isinf(abs(q))
    want, inv = 0.5 / 1.7e308, q.inverse()
    assert abs(inv.w - want) <= 1e-13 * want
    assert abs(inv.x + want) <= 1e-13 * want and inv.y == inv.z == 0.0
    # The scaling is exact: in range the result is conj(q)/|q|^2 bit for
    # bit.
    rng = random.Random(41)
    for _ in range(200):
        q = random_quaternion(rng, 10.0 ** rng.randint(-6, 6))
        n2 = q.norm_sq()
        assert q.inverse().to_list() == [q.w / n2, -q.x / n2, -q.y / n2,
                                         -q.z / n2]


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e-15, 0, 0, 0).inverse()


def test_modulus_of_huge_components_is_finite():
    # the squared modulus overflows above ~1.3e154; the modulus must not
    assert abs(Quaternion(1e300, 0, 0, 0)) == 1e300
    big = math.ldexp(1.0, 700)   # powers of two keep 3-4-5 exact
    assert abs(Quaternion(0, 3 * big, 0, 4 * big)) == 5 * big
    assert abs(Quaternion(0, 0, -1e200, 0)) == 1e200


def test_norm_is_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        a = random_quaternion(rng, 5.0)
        b = random_quaternion(rng, 5.0)
        assert abs(abs(a * b) - abs(a) * abs(b)) <= 1e-12 * (1 + abs(a) * abs(b))


def test_associativity():
    rng = random.Random(6)
    for _ in range(200):
        a, b, c = (random_quaternion(rng, 3.0) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        assert quat_close(left, right, 1e-12 * (1 + abs(left)))


def test_coordinate_extract_basis():
    assert coordinate_extract(UNIT_K) == (0, 0, 0, 1)
    assert coordinate_extract(Quaternion(0, 0, 0, 0)) == (0, 0, 0, 0)


def test_coordinate_extract_golden():
    # brute-force evaluation of the four extraction identities
    q = Quaternion(1, 2, 3, 4)
    assert coordinate_extract(q) == (1, 2, 3, 4)


def test_coordinate_extract_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        q = random_quaternion(rng, 5.0)
        got = coordinate_extract(q)
        for a, b in zip(got, q.to_list()):
            assert abs(a - b) <= 1e-12 * (1 + abs(q))


def test_slice_decompose():
    x, y, unit = slice_decompose(Quaternion(1, 0, 2, 0))
    assert (x, y) == (1, 2) and unit == UNIT_J

    x, y, unit = slice_decompose(Quaternion(5, 0, 0, 0))
    assert (x, y) == (5, 0) and unit == UNIT_I  # real-point convention

    x, y, unit = slice_decompose(ONE + UNIT_I + UNIT_J)
    assert x == 1 and abs(y - math.sqrt(2)) < 1e-15
    assert quat_close(unit, (UNIT_I + UNIT_J) / math.sqrt(2), 1e-15)


@pytest.mark.parametrize("re_part", [0.0, 1e-300, 1.0, -300.0])
def test_slice_decompose_real_exactly_on_point_spheres(re_part):
    # q is real exactly when the sphere through it is a point: the guard
    # reads |Re q|, not |q|, at the last float on either side of it.
    guard = zero_guard(abs(re_part))
    for y in (math.nextafter(guard, 0.0), guard, math.nextafter(guard, 1.0)):
        for q in (Quaternion(re_part, y, 0, 0), Quaternion(re_part, 0, 0, y)):
            point = Sphere.through(q).is_point
            assert point == (y <= guard)
            assert (slice_decompose(q)[1] == 0.0) == point


def test_slice_decompose_huge_imaginary_part():
    # squaring the components would overflow above ~1.3e154
    assert Quaternion(0, 1e200, 0, 0).im_norm() == 1e200
    assert slice_decompose(Quaternion(0, 1e200, 0, 0)) == (0.0, 1e200, UNIT_I)
    x, y, unit = slice_decompose(Quaternion(1, 3e200, 0, 4e200))
    assert x == 1 and abs(y / 5e200 - 1.0) <= 1e-15
    assert quat_close(unit, Quaternion(0, 0.6, 0, 0.8), 1e-15)


def test_slice_decompose_recomposes():
    rng = random.Random(8)
    for _ in range(100):
        q = random_quaternion(rng, 3.0)
        x, y, unit = slice_decompose(q)
        assert y >= 0
        assert is_imaginary_unit(unit)
        assert quat_close(unit * y + x, q, 1e-13 * (1 + abs(q)))


def test_sigma_distance_golden():
    assert sigma_distance(UNIT_I, UNIT_I * 2) == 1.0
    assert sigma_distance(UNIT_I, UNIT_J) == 2.0
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(2, 0, 2, 0)
    assert abs(sigma_distance(p, q) - math.sqrt(10)) < 1e-15


@pytest.mark.parametrize("re_part", [0.0, 1.0, -300.0])
def test_sigma_distance_reads_real_points_as_slice_decompose(re_part):
    # The in-plane distance applies to a real p by the rule slice_decompose
    # uses; a point it puts off the axis gets the cross-plane formula.
    guard = zero_guard(abs(re_part))
    for y in (guard, math.nextafter(guard, 1.0), 1e-13):
        p = Quaternion(re_part, y, 0, 0)
        if slice_decompose(p)[1] == 0.0:
            want = abs(UNIT_J - p)
        else:
            want = math.sqrt(p.w * p.w + (1.0 + p.im_norm()) ** 2)
        assert sigma_distance(p, UNIT_J) == want
        assert sigma_distance(UNIT_J, p) == want
    assert sigma_distance(Quaternion(0, 1e-13, 0, 0), UNIT_J) \
        == 1.0000000000001


def test_sigma_dominates_euclidean():
    rng = random.Random(9)
    for _ in range(300):
        p = random_quaternion(rng, 3.0)
        q = random_quaternion(rng, 3.0)
        assert sigma_distance(p, q) >= abs(p - q) - 1e-12


def test_sigma_equality_iff_same_plane():
    rng = random.Random(10)
    for _ in range(100):
        # same plane: equality
        unit = random_unit(rng)
        p = embed_complex(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), unit)
        q = embed_complex(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), unit)
        assert abs(sigma_distance(p, q) - abs(p - q)) <= 1e-12
    for _ in range(100):
        # genuinely different planes: strict inequality
        p = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 2.0)
        cross = (p.y * q.z - p.z * q.y, p.z * q.x - p.x * q.z,
                 p.x * q.y - p.y * q.x)
        if math.sqrt(sum(c * c for c in cross)) < 1e-3:
            continue
        assert sigma_distance(p, q) > abs(p - q)


@pytest.mark.parametrize("scale", [1.0, 1e120, 1e300])
def test_sigma_distance_in_one_plane_at_large_scale(scale):
    # The plane test squared its cross product, which overflowed above
    # |Im| ~ 2^256: these two points of one plane read as in different
    # planes, and sigma as 4.24e120 where |q - p| is 3.51e120.
    p = Quaternion(0, scale, 2 * scale, 3 * scale)
    q = Quaternion(scale, 0.1 * scale, 0.2 * scale, 0.3 * scale)
    assert sigma_distance(p, q) == abs(q - p)


def test_sigma_distance_scales_with_powers_of_two():
    # sigma(2^k p, 2^k q) = 2^k sigma(p, q) exactly: scaling by a power of
    # two is exact, and no square is formed that could overflow.  The
    # points lie off the axis, so Sphere.is_point reads them the same at
    # every scale; half the pairs share a plane, some of them anti-parallel.
    rng = random.Random(13)
    same = 0
    for case in range(2000):
        unit = random_unit(rng)
        other = (unit * rng.choice((1.0, -1.0)) if case % 2
                 else random_unit(rng))
        p = embed_complex(complex(rng.uniform(-2, 2), rng.uniform(0.1, 2)),
                          unit)
        q = embed_complex(complex(rng.uniform(-2, 2), rng.uniform(0.1, 2)),
                          other)
        power = 2.0 ** rng.randint(0, 1000)
        distance = sigma_distance(p, q)
        same += distance == abs(q - p)
        assert sigma_distance(p * power, q * power) == distance * power
    assert same >= 1000


def test_representation_formula_golden():
    sphere = Sphere(0, 1)
    # f = q^2 is identically -1 on the unit sphere of imaginary units
    fsq = SlicePoly([0.0, 0.0, 1.0])
    f1 = oracle_eval(fsq.coeffs, UNIT_I)
    f2 = oracle_eval(fsq.coeffs, UNIT_J)
    assert f1 == -ONE and f2 == -ONE
    got = representation_eval(UNIT_I, f1, UNIT_J, f2, sphere, UNIT_K)
    assert quat_close(got, -ONE, 1e-14)

    # identity map reproduces the evaluation point
    got = representation_eval(UNIT_I, UNIT_I, UNIT_J, UNIT_J, sphere, UNIT_K)
    assert quat_close(got, UNIT_K, 1e-14)


def test_representation_formula_constant():
    rng = random.Random(11)
    sphere = Sphere(0.5, 1.5)
    c = Quaternion(1, -2, 0.5, 3)
    for _ in range(20):
        q1 = sphere_point(rng, sphere)
        q2 = sphere_point(rng, sphere)
        q = sphere_point(rng, sphere)
        if abs(q1 - q2) < 1e-6:
            continue
        assert quat_close(representation_eval(q1, c, q2, c, sphere, q), c, 1e-12)


def test_representation_pair_independence():
    rng = random.Random(12)
    for _ in range(50):
        sphere = Sphere(rng.uniform(-2, 2), rng.uniform(0.3, 2))
        f = SlicePoly([random_quaternion(rng, 2.0) for _ in range(5)])
        q = sphere_point(rng, sphere)
        values = []
        for _ in range(4):
            q1 = sphere_point(rng, sphere)
            q2 = sphere_point(rng, sphere)
            if abs(q1 - q2) < 1e-3:
                continue
            values.append(representation_eval(q1, f(q1), q2, f(q2), sphere, q))
        for v in values[1:]:
            assert quat_close(v, values[0], 1e-10 * (1 + abs(values[0])))


def test_representation_second_form_agrees():
    # f(q) = f(q0) + (q - q0)(q1 - q2)^(-1)[f(q1) - f(q2)] reproduces the
    # same restriction as the two-point form
    rng = random.Random(15)
    for _ in range(30):
        sphere = Sphere(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        f = SlicePoly([random_quaternion(rng, 2.0) for _ in range(4)])
        q0, q1, q2, q = (sphere_point(rng, sphere) for _ in range(4))
        if abs(q1 - q2) < 1e-2:
            continue
        direct = representation_eval(q1, f(q1), q2, f(q2), sphere, q)
        slope = (q1 - q2).inverse() * (f(q1) - f(q2))
        second_form = f(q0) + (q - q0) * slope
        assert quat_close(direct, second_form, 1e-11 * (1 + abs(direct)))


def test_representation_degenerate_pair_raises():
    sphere = Sphere(0, 1)
    with pytest.raises(DegenerateSphere):
        representation_eval(UNIT_I, ONE, UNIT_I, ONE, sphere, UNIT_J)


def test_representation_antipodal_pair_past_the_float_range():
    # q2 - q1 overflows, and its inverse was NaN; the points are scaled
    # by a power of two first, so the values are those on the unit
    # sphere: a + q b through (i, 1), (-i, 1 + k) is 1.5 + 0.5k at j.
    sphere = Sphere(0, 1.7e308)
    q1, q2 = sphere.point(UNIT_I), sphere.point(-UNIT_I)
    q = sphere.point(UNIT_J)
    assert representation_eval(q1, ONE, q2, ONE, sphere, q) == ONE
    assert representation_eval(q1, ONE, q2, ONE + UNIT_K, sphere, q) == \
        Quaternion(1.5, 0, 0, 0.5)


def test_orthogonal_unit():
    rng = random.Random(13)
    for _ in range(100):
        unit = random_unit(rng)
        other = orthogonal_unit(unit)
        assert is_imaginary_unit(other)
        dot = unit.x * other.x + unit.y * other.y + unit.z * other.z
        assert abs(dot) <= 1e-12
        assert orthogonal_unit(unit) == other  # deterministic


def test_split_embed_roundtrip():
    rng = random.Random(14)
    for _ in range(100):
        unit = random_unit(rng)
        other = orthogonal_unit(unit)
        q = random_quaternion(rng, 3.0)
        part_f, part_g = split_complex(q, unit, other)
        rebuilt = embed_complex(part_f, unit) + embed_complex(part_g, unit) * other
        assert quat_close(rebuilt, q, 1e-13 * (1 + abs(q)))


def test_sphere_validation():
    with pytest.raises(ValueError):
        Sphere(0, -1)
    s = Sphere(1, 2)
    assert s.contains(Quaternion(1, 0, 2, 0), EPS_ROOT)
    assert not s.contains(Quaternion(1, 0, 0, 0), EPS_SAMPLE_ON_SPHERE)
    # 1 + |x0| + y0 overflowed to inf here, so every point was on it.
    s = Sphere(1.7e308, 1.7e308)
    assert not s.contains(ZERO, EPS_SAMPLE_ON_SPHERE)
    assert s.contains(s.point(UNIT_J), EPS_ROOT)


@pytest.mark.parametrize("eps", [1e-9, EPS_SAMPLE_ON_SPHERE, EPS_ROOT])
def test_contains_in_range_is_the_plain_guard(eps):
    # The guard eps (1 + |x0| + y0) is halved and doubled exactly, so in
    # range it is the plain float: the verdict flips where the plain
    # guard's does, float by float.  y0 is near the guard, so that
    # |Im q| - y0 is exact and the sweep resolves single floats of it.
    rng = random.Random(19)
    for _ in range(200):
        x0 = rng.choice((-1, 1)) * 2.0 ** rng.uniform(-40, 60)
        y0 = eps * (1.0 + abs(x0)) * rng.uniform(1.0, 3.0)
        guard = eps * (1.0 + abs(x0) + y0)
        sphere = Sphere(x0, y0)
        t = y0 + guard
        for _ in range(3):
            t = math.nextafter(t, 0.0)
        for _ in range(6):
            q = Quaternion(x0, 0.0, t, 0.0)
            assert sphere.contains(q, eps) == (abs(t - y0) <= guard)
            t = math.nextafter(t, math.inf)


@pytest.mark.parametrize("eps", [EPS_UNIT, EPS_IN_PLANE])
def test_off_plane_in_range_is_the_plain_test(eps):
    # Scaled by an exact power of two, both sides of the test are the
    # plain floats times that power, so the verdict is the plain one,
    # also for points placed near the guard on either side of it.
    rng = random.Random(23)
    for _ in range(2000):
        unit = random_unit(rng)
        q = random_quaternion(rng, 2.0 ** rng.uniform(-40, 60))
        off = orthogonal_unit(unit) * (eps * (1.0 + abs(q))
                                       * rng.uniform(0.5, 1.5))
        for point in (q, q.w + unit * q.x + off):
            c1 = point.x * unit.x + point.y * unit.y + point.z * unit.z
            distance = math.hypot(point.x - c1 * unit.x,
                                  point.y - c1 * unit.y,
                                  point.z - c1 * unit.z)
            assert off_plane(point, unit, eps) == \
                (distance > eps * (1.0 + abs(point)))


def test_components_are_floats():
    q = Quaternion(1, 2, 3, 4)
    for value in (q.w, q.x, q.y, q.z):
        assert type(value) is float
    assert q.to_list() == [1.0, 2.0, 3.0, 4.0]


def test_immutable():
    q = Quaternion(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        q.w = 5.0
    with pytest.raises(AttributeError):
        del q.x
    assert q == Quaternion(1, 2, 3, 4)


def test_equality_is_class_exact():
    q = Quaternion(1, 0, 0, 0)
    assert q != (1.0, 0.0, 0.0, 0.0)
    assert q != [1.0, 0.0, 0.0, 0.0]
    assert q != 1.0
    assert q != 1
    assert q == Quaternion(1.0, 0.0, 0.0, 0.0)
    assert q != Quaternion(1.0, 0.0, 0.0, 1e-300)


def test_equal_values_hash_alike():
    assert hash(Quaternion(1, 2, 3, 4)) == hash(Quaternion(1.0, 2.0, 3.0, 4.0))
    assert Quaternion(0.0, -0.0, 0.0, -0.0) == Quaternion(-0.0, 0.0, -0.0, 0.0)
    assert hash(Quaternion(0.0, -0.0, 0.0, -0.0)) == hash(ZERO)
    assert len({Quaternion(1, 2, 3, 4), Quaternion(1.0, 2.0, 3.0, 4.0),
                ZERO, Quaternion(-0.0, -0.0, -0.0, -0.0)}) == 2


def test_pickle_copy_and_repr_round_trips():
    q = Quaternion(0.1, -2.5e-300, 3e200, -4.0)
    pickled = [pickle.loads(pickle.dumps(q, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in pickled + [copy.copy(q), copy.deepcopy(q), eval(repr(q))]:
        assert type(clone) is Quaternion
        assert clone == q
    assert repr(q) == "Quaternion(0.1, -2.5e-300, 3e+200, -4.0)"
    nested = copy.deepcopy([q, (q, q)])
    assert nested == [q, (q, q)]


def test_keyword_construction_and_match_args():
    q = Quaternion(w=1, x=0, y=0, z=0)
    assert q == ONE
    assert Quaternion.__match_args__ == ("w", "x", "y", "z")
    match Quaternion(1, 2, 3, 4):
        case Quaternion(w, x, y=3.0, z=z):
            assert (w, x, z) == (1.0, 2.0, 4.0)
        case _:
            pytest.fail("positional pattern did not match")
