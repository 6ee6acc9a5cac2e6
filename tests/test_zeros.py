import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from slicereg import (ONE, UNIT_I, UNIT_J, UNIT_K, ExpansionMultiplicity,
                      MultiplicityReport, Quaternion, SlicePoly,
                      SliceRegError, Sphere, ZeroFunction, analyze_sphere,
                      classical_multiplicity, expand_at,
                      expansion_multiplicity)
from slicereg.tolerances import EPS_CONJ_FACTOR, EPS_MULT, EPS_ROOT
from slicereg.zeros import _peel
from oracles import (binomial_taylor_coeffs, exact_quadratic_product,
                     exact_sphere_levels, oracle_convolution, oracle_mul,
                     poly_close, quat_close,
                     quotient_criterion, random_poly, random_unit,
                     sphere_point, threshold_gap_poly)

QSQ_PLUS_1 = SlicePoly([1.0, 0.0, 1.0])
TWO_FACTOR = SlicePoly.linear_factor(UNIT_I) * SlicePoly.linear_factor(UNIT_J)
UNIT_SPHERE = Sphere(0, 1)


def test_classical_multiplicity_known_examples():
    # q^2+1 has classical multiplicity 1 at every imaginary unit
    assert classical_multiplicity(QSQ_PLUS_1, UNIT_I) == 1
    assert classical_multiplicity(QSQ_PLUS_1, UNIT_K) == 1
    u = (UNIT_I + UNIT_J) / math.sqrt(2)
    assert classical_multiplicity(QSQ_PLUS_1, u) == 1
    # (q-I)*(q-J) with I != J also has multiplicity 1 at I, despite degree 2
    assert classical_multiplicity(TWO_FACTOR, UNIT_I) == 1


def test_classical_multiplicity_non_zero_point():
    assert classical_multiplicity(SlicePoly([0.0, 0.0, 1.0]), ONE) == 0
    assert classical_multiplicity(TWO_FACTOR, UNIT_J) == 0


def test_classical_multiplicity_repeated_factor():
    f = SlicePoly.linear_factor(UNIT_I) ** 3
    assert classical_multiplicity(f, UNIT_I) == 3


def test_classical_multiplicity_never_exceeds_degree():
    # (q - 400)^4 has coefficients up to 400^4, so the constant cofactor 1
    # left after four divisions lies below the shared threshold; a nonzero
    # constant still has no zero.
    centre = Quaternion(400, 0, 0, 0)
    f = SlicePoly.linear_factor(centre) ** 4
    assert 1.0 <= EPS_MULT * f.max_coeff_norm()
    assert classical_multiplicity(f, centre) == 4


def test_classical_multiplicity_zero_function():
    with pytest.raises(ZeroFunction):
        classical_multiplicity(SlicePoly(), UNIT_I)


def test_classical_multiplicity_quotient_overflow_refused():
    # f(q0) is finite and not small, but the quotient R of remainder_div
    # has a coefficient whose modulus overflows: refused, not counted.
    big = Quaternion(1.2e308, 1.2e308, 0, 0)
    f = SlicePoly([1.0, big, big])
    with pytest.raises(SliceRegError, match="coefficient is not finite"):
        classical_multiplicity(f, Quaternion(0.1, 0, 0, 0))


# Each multiplicity by the call that returns it: 2m and the isolated count
# are fields of analyze_sphere's report.
@pytest.mark.parametrize("call", [
    analyze_sphere,
    lambda f, sphere: analyze_sphere(f, sphere).spherical_mult,
    lambda f, sphere: analyze_sphere(f, sphere).isolated_mult,
    expansion_multiplicity,
    lambda f, sphere: classical_multiplicity(f, sphere.point(UNIT_I)),
], ids=["analyze", "spherical", "isolated", "expansion", "classical"])
def test_multiplicity_of_zero_polynomial_refused(call):
    with pytest.raises(ZeroFunction,
                       match="multiplicity of the zero polynomial"):
        call(SlicePoly(), UNIT_SPHERE)


def test_spherical_multiplicity_known_examples():
    report = analyze_sphere(QSQ_PLUS_1, UNIT_SPHERE)
    assert report.spherical_mult == 2
    assert report.residual == SlicePoly([1.0])

    report = analyze_sphere(TWO_FACTOR, UNIT_SPHERE)
    assert report.spherical_mult == 0
    recon = SlicePoly([1.0])
    for p in report.factors:
        recon = recon * SlicePoly.linear_factor(p)
    assert recon * report.residual == TWO_FACTOR


def test_spherical_multiplicity_constructed():
    # (q^2+1)^2 * (q-3): divide back out and compare by convolution oracle
    f = QSQ_PLUS_1 * QSQ_PLUS_1 * SlicePoly([-3.0, 1.0])
    report = analyze_sphere(f, UNIT_SPHERE)
    assert report.spherical_mult == 4 and report.factors == ()
    assert poly_close(report.residual, SlicePoly([-3.0, 1.0]), 1e-12)
    recon = oracle_convolution(
        oracle_convolution(QSQ_PLUS_1.coeffs, QSQ_PLUS_1.coeffs),
        report.residual.coeffs)
    assert poly_close(SlicePoly(recon), f, 1e-12)


def test_zero_on_sphere_golden():
    # The verdict on f's own remainder: whole sphere when 2m >= 2, else
    # the isolated point or none.
    found = expansion_multiplicity(TWO_FACTOR, UNIT_SPHERE)
    assert found.spherical_mult == 0 and found.has_isolated
    assert quat_close(found.isolated_point, UNIT_I, 1e-12)

    assert expansion_multiplicity(QSQ_PLUS_1, UNIT_SPHERE).spherical_mult >= 2
    assert expansion_multiplicity(SlicePoly([-3.0, 1.0]), UNIT_SPHERE) == \
        ExpansionMultiplicity(0, False, None)


def test_zero_on_sphere_degenerate():
    f = SlicePoly.linear_factor(Quaternion(2, 0, 0, 0))
    assert expansion_multiplicity(f, Sphere(2, 0)) == \
        ExpansionMultiplicity(0, True, Quaternion(2, 0, 0, 0))
    assert expansion_multiplicity(f, Sphere(1, 0)) == \
        ExpansionMultiplicity(0, False, None)


def test_isolated_multiplicity_known_example():
    report = analyze_sphere(TWO_FACTOR, UNIT_SPHERE)
    assert report.isolated_mult == 2
    assert quat_close(report.isolated_point, UNIT_I, 1e-12)
    assert quat_close(report.factors[0], UNIT_I, 1e-12)
    assert quat_close(report.factors[1], UNIT_J, 1e-12)
    assert report.residual.degree == 0


def test_isolated_multiplicity_no_zero():
    report = analyze_sphere(SlicePoly([1.0]), UNIT_SPHERE)
    assert report.isolated_mult == 0 and report.isolated_point is None

    report = analyze_sphere(SlicePoly.linear_factor(UNIT_I), UNIT_SPHERE)
    assert report.isolated_mult == 1
    assert quat_close(report.isolated_point, UNIT_I, 1e-12)


def test_isolated_multiplicity_rejects_spherical_part():
    # analyze_sphere divides the spherical part out before it peels; the
    # peel still refuses a polynomial that vanishes on the whole sphere.
    thr = EPS_MULT * QSQ_PLUS_1.max_coeff_norm()
    with pytest.raises(SliceRegError, match="vanishes on the whole sphere"):
        _peel(QSQ_PLUS_1, UNIT_SPHERE, thr, ("whole_sphere", None))


def test_reports_hold_the_factorization_invariants():
    # What the report's fields claim holds by construction: 2m counts
    # whole-sphere levels, each factor passed the on-sphere test of
    # `_level`, and the peeling refuses a near-conjugate pair before it
    # keeps the second.  Planted cases reach each decision: centres up
    # to 400, thin and degenerate spheres, and near-conjugate plants,
    # some of which the peeling refuses.
    rng = random.Random(25)
    kept = refused = 0
    for _ in range(3000):
        sphere = Sphere(rng.choice((0.0, rng.uniform(-3, 3), 400.0)),
                        rng.choice((0.0, 1e-9, 1e-6, rng.uniform(0, 2))))
        f = SlicePoly([Quaternion(*(rng.randint(-9, 9) for _ in range(4)))
                       for _ in range(rng.randint(1, 3))])
        if not f.coeffs:
            f = SlicePoly([1.0])
        for _ in range(rng.randint(0, 2)):
            f = SlicePoly.sphere_quadratic(sphere) * f
        p = None
        for _ in range(rng.randint(0, 3)):
            if p is not None and rng.random() < 0.5:
                nudge = rng.choice((0.0, 1e-10, 3e-10, 1e-9, 1e-7))
                p = p.conj() + Quaternion(
                    *(nudge * rng.uniform(-1, 1) for _ in range(4)))
            else:
                p = sphere.point(random_unit(rng))
            f = SlicePoly.linear_factor(p) * f
        try:
            report = analyze_sphere(f, sphere)
        except SliceRegError as exc:
            refused += "conjugate" in str(exc)
            continue
        kept += len(report.factors) >= 2
        assert report.spherical_mult % 2 == 0
        assert report.isolated_mult == len(report.factors)
        assert report.isolated_point == (report.factors or (None,))[0]
        for factor in report.factors:
            assert sphere.contains(factor, EPS_ROOT)
        for prev, nxt in zip(report.factors, report.factors[1:]):
            assert abs(prev - nxt.conj()) > EPS_CONJ_FACTOR * (1.0 + abs(nxt))
    assert kept >= 150 and refused >= 10


# Each quantity by the call that returns it: the zero verdict on f's
# remainder, 2m and the isolated count.
ZERO_TEST_CALLS = pytest.mark.parametrize("call", [
    analyze_sphere,
    lambda f, sphere, tol: expansion_multiplicity(f, sphere,
                                                  tol).isolated_point,
    lambda f, sphere, tol: analyze_sphere(f, sphere, tol).spherical_mult,
    lambda f, sphere, tol: analyze_sphere(f, sphere, tol).isolated_mult,
    expansion_multiplicity,
    lambda f, sphere, tol: classical_multiplicity(f, sphere.point(UNIT_I),
                                                  tol),
], ids=["analyze", "zero", "spherical", "isolated", "expansion",
        "classical"])


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
@ZERO_TEST_CALLS
def test_tol_must_be_finite_and_positive(call, tol):
    # The CLI's rule for --zero-tol.  An infinite tol would make every
    # remainder vanish, and q^2 + q, which the quadratic does not divide,
    # would read as spherical multiplicity 2.
    with pytest.raises(SliceRegError, match="tol must be finite and > 0"):
        call(SlicePoly([0.0, 1.0, 1.0]), UNIT_SPHERE, tol)


@pytest.mark.parametrize("tol", [1.0, 10.0])
@ZERO_TEST_CALLS
def test_tol_must_be_below_one(call, tol):
    # At tol = 1 every remainder of f vanishes against tol * max |a_n|:
    # q^2 + q read as spherical multiplicity 2 on the unit sphere.
    with pytest.raises(SliceRegError, match="tol must be < 1"):
        call(SlicePoly([0.0, 1.0, 1.0]), UNIT_SPHERE, tol)


def test_analyze_sphere_known_examples():
    report = analyze_sphere(QSQ_PLUS_1, UNIT_SPHERE)
    assert report.spherical_mult == 2
    assert report.isolated_mult == 0
    assert report.isolated_point is None
    # degree accounting: 2 = 2 + 0 + 0
    assert QSQ_PLUS_1.degree == report.spherical_mult + report.isolated_mult \
        + report.residual.degree

    report = analyze_sphere(TWO_FACTOR, UNIT_SPHERE)
    assert report.spherical_mult == 0
    assert report.isolated_mult == 2
    assert quat_close(report.isolated_point, UNIT_I, 1e-12)


def test_non_finite_remainder_refused():
    # Sphere(1e155, 1)'s quadratic has constant term inf; q^2 used to
    # leave an all-trimmed remainder, read as a spherical zero of
    # multiplicity 2.
    q_sq = SlicePoly([0.0, 0.0, 1.0])
    for verdict in (analyze_sphere, expansion_multiplicity):
        with pytest.raises(SliceRegError, match="coefficient is not finite"):
            verdict(q_sq, Sphere(1e155, 1.0))


def test_degree_accounting_random_products():
    rng = random.Random(60)
    for _ in range(25):
        sphere = Sphere(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        m = rng.randint(0, 2)
        n = rng.randint(0, 3)
        f = SlicePoly.sphere_quadratic(sphere) ** m
        # chain of on-sphere roots; consecutive conjugates would collapse
        # into a quadratic factor, so steer away from them
        prev = None
        for _ in range(n):
            p = sphere_point(rng, sphere)
            if prev is not None and abs(p - prev.conj()) < 0.3:
                p = prev
            f = f * SlicePoly.linear_factor(p)
            prev = p
        # residual with no zero on the sphere: a product of factors on a
        # far-away sphere
        residual_deg = rng.randint(0, 2)
        far = Sphere(5.0, 1.0)
        for _ in range(residual_deg):
            f = f * SlicePoly.linear_factor(sphere_point(rng, far))
        report = analyze_sphere(f, sphere)
        assert report.spherical_mult + report.isolated_mult \
            + report.residual.degree == f.degree
        assert report.spherical_mult >= 2 * m


def test_multiplicity_reconstruction():
    rng = random.Random(61)
    for _ in range(20):
        sphere = Sphere(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        f = SlicePoly.sphere_quadratic(sphere) ** rng.randint(0, 2)
        for _ in range(rng.randint(0, 2)):
            f = f * SlicePoly.linear_factor(sphere_point(rng, sphere))
        f = f * random_poly(rng, 2, scale=1.0)
        if not f.coeffs:
            continue
        try:
            report = analyze_sphere(f, sphere)
        except ValueError:
            continue  # random tail happened to vanish on the sphere
        recon = SlicePoly.sphere_quadratic(sphere) ** (report.spherical_mult // 2)
        for p in report.factors:
            recon = recon * SlicePoly.linear_factor(p)
        recon = recon * report.residual
        assert poly_close(recon, f, 1e-10 * (1 + f.max_coeff_norm()))


def test_expansion_multiplicity_golden():
    result = expansion_multiplicity(QSQ_PLUS_1, UNIT_SPHERE)
    assert result.spherical_mult == 2
    assert not result.has_isolated
    assert quotient_criterion(QSQ_PLUS_1, UNIT_SPHERE) is False

    result = expansion_multiplicity(TWO_FACTOR, UNIT_SPHERE)
    assert result.spherical_mult == 0
    assert result.has_isolated
    assert quat_close(result.isolated_point, UNIT_I, 1e-12)
    assert quotient_criterion(TWO_FACTOR, UNIT_SPHERE) is True

    result = expansion_multiplicity(SlicePoly([-3.0, 1.0]), UNIT_SPHERE)
    assert result.spherical_mult == 0
    assert not result.has_isolated
    assert quotient_criterion(SlicePoly([-3.0, 1.0]), UNIT_SPHERE) is False


def test_expansion_multiplicity_sign_discrepancy_logged():
    # Off-centered sphere: odd^-1 * even, without the minus sign, has its
    # real part flipped onto the mirrored sphere -x0 + y0*S and misses the
    # zero; the sign-corrected quotient criterion finds it.
    sphere = Sphere(1.0, 1.0)
    p1 = Quaternion(1, 1, 0, 0)
    p2 = Quaternion(1, 0, 1, 0)
    f = SlicePoly.linear_factor(p1) * SlicePoly.linear_factor(p2)
    result = expansion_multiplicity(f, sphere)
    assert result.has_isolated
    assert quat_close(result.isolated_point, p1, 1e-10)
    assert quotient_criterion(f, sphere) is True


def test_quotient_criterion_agrees_off_axis():
    # Spheres with x0 != 0, where the sign of the criterion matters, and
    # planted zeros so that both verdicts occur.
    rng = random.Random(64)
    verdicts = []
    for _ in range(400):
        sphere = Sphere(rng.choice((-1, 1)) * rng.uniform(0.2, 1.5),
                        rng.uniform(0.3, 1.5))
        f = SlicePoly.sphere_quadratic(sphere) ** rng.randint(0, 1)
        for _ in range(rng.randint(0, 2)):
            f = f * SlicePoly.linear_factor(sphere_point(rng, sphere))
        f = f * random_poly(rng, 2, scale=1.0)
        if not f.coeffs:
            continue
        result = expansion_multiplicity(f, sphere)
        assert quotient_criterion(f, sphere) == result.has_isolated
        verdicts.append(result.has_isolated)
    assert 100 <= verdicts.count(True) and 100 <= verdicts.count(False)


def test_expansion_multiplicity_matches_division_route():
    rng = random.Random(62)
    for _ in range(25):
        sphere = Sphere(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        f = SlicePoly.sphere_quadratic(sphere) ** rng.randint(0, 2)
        f = f * random_poly(rng, 3, scale=1.0)
        if not f.coeffs:
            continue
        result = expansion_multiplicity(f, sphere)
        assert result.spherical_mult == \
            analyze_sphere(f, sphere).spherical_mult


def test_expansion_multiplicity_degenerate_sphere():
    f = SlicePoly.linear_factor(Quaternion(1, 0, 0, 0)) ** 3
    result = expansion_multiplicity(f, Sphere(1, 0))
    assert result.spherical_mult == 2
    assert result.has_isolated


@pytest.mark.parametrize("x0", [0.0, 0.4])
def test_expansion_multiplicity_reads_thin_sphere_as_given(x0):
    # Only a degenerate sphere (Sphere.is_point) is read as the real point
    # x0.  Sphere(x0, 1e-9) is read as given, and the readout is the
    # level analyze_sphere peels from.
    center = Quaternion(x0, 0, 0, 0)
    thin_sphere, point_sphere = Sphere(x0, 1e-9), Sphere(x0, 0.0)
    assert not thin_sphere.is_point and point_sphere.is_point
    rng = random.Random(63)
    cases = [SlicePoly.linear_factor(center) ** 3,
             SlicePoly.linear_factor(center) * random_poly(rng, 3),
             QSQ_PLUS_1, random_poly(rng, 4)]
    for f in cases:
        thin = expansion_multiplicity(f, thin_sphere)
        report = analyze_sphere(f, thin_sphere)
        assert thin.spherical_mult == report.spherical_mult
        assert thin.has_isolated == (report.isolated_mult > 0)
        assert thin.isolated_point == report.isolated_point
        point = expansion_multiplicity(f, point_sphere)
        assert quotient_criterion(f, point_sphere) == point.has_isolated
    # (q - x0) g vanishes at x0 alone, 1e-9 off the thin sphere.
    thin = expansion_multiplicity(cases[1], thin_sphere)
    assert not thin.has_isolated and thin.isolated_point is None
    point = expansion_multiplicity(cases[1], point_sphere)
    assert point.has_isolated and point.isolated_point == center


def test_real_sphere_readout_matches_binomial_taylor():
    # f = (q - x0)^k g: the first Taylor coefficient above the shared
    # threshold, by the binomial theorem, fixes the verdict at the real
    # point x0.
    rng = random.Random(65)
    verdicts = set()
    for _ in range(60):
        x0 = rng.choice((0.0, 0.4, -1.25, 0.75))
        centre = Quaternion(x0, 0, 0, 0)
        k = rng.randint(0, 5)
        f = SlicePoly.linear_factor(centre) ** k * random_poly(rng, 4)
        if not f.coeffs:
            continue
        thr = EPS_MULT * f.max_coeff_norm()
        first = next(n for n, c in enumerate(binomial_taylor_coeffs(f, x0))
                     if abs(c) > thr)
        isolated = first % 2 == 1
        want = ExpansionMultiplicity(2 * (first // 2), isolated,
                                     centre if isolated else None)
        assert expansion_multiplicity(f, Sphere(x0, 0.0)) == want
        verdicts.add((first >= 2, isolated))
    assert verdicts == {(False, False), (False, True), (True, False),
                        (True, True)}


def test_base_point_family_multiplicity_readout():
    # first nonvanishing coefficient index 2n gives spherical multiplicity
    # 2n; the base point is a zero iff the even coefficient vanishes
    cases = [
        (QSQ_PLUS_1, UNIT_I, 2, False),            # A_2 != 0: no isolated
        (TWO_FACTOR, UNIT_I, 0, True),             # A_0 = 0, A_1 != 0
        (TWO_FACTOR, UNIT_J, 0, False),            # A_0 = f(J) != 0
        (QSQ_PLUS_1 * SlicePoly.linear_factor(UNIT_I), UNIT_I, 2, True),
    ]
    for f, q0, expected_spherical, isolated_at_q0 in cases:
        expansion = expand_at(f, q0, int(f.degree) + 1)
        thr = 1e-10 * (1 + f.max_coeff_norm())
        first = next(n for n, c in enumerate(expansion.coeffs)
                     if abs(c) > thr)
        assert 2 * (first // 2) == expected_spherical
        assert (first % 2 == 1) == isolated_at_q0
        # cross-check against the factorization route
        report = analyze_sphere(f, Sphere.through(q0))
        assert report.spherical_mult == expected_spherical
        point_is_q0 = report.isolated_point is not None and \
            quat_close(report.isolated_point, q0, 1e-9)
        assert point_is_q0 == isolated_at_q0


def test_zero_set_structure_by_dense_sampling():
    # zeros on a sphere are the whole sphere or a single point, never arcs
    rng = random.Random(63)
    units = [random_unit(rng) for _ in range(400)]
    for unit in units:
        assert abs(QSQ_PLUS_1(unit)) <= 1e-12  # whole sphere
    hits = sum(1 for unit in units if abs(TWO_FACTOR(unit)) <= 1e-6)
    assert hits == 0  # the lone zero I is a measure-zero target
    near = [unit for unit in units if abs(TWO_FACTOR(unit)) <= 0.1]
    for unit in near:
        assert abs(unit - UNIT_I) <= 0.2  # small values cluster at the zero


def test_zero_threshold_override():
    # a coefficient-sized tolerance decides what counts as zero
    noisy = QSQ_PLUS_1 + SlicePoly([Quaternion(1e-6, 0, 0, 0)])
    assert analyze_sphere(noisy, UNIT_SPHERE).spherical_mult == 0
    assert analyze_sphere(noisy, UNIT_SPHERE, tol=1e-4).spherical_mult == 2


# g is zero-free on the thin spheres below; f = [(q-x0)^2+y0^2] * g is
# built exactly and rounded once, so f vanishes on the whole sphere up to
# the rounding of its coefficients.
THIN_G = SlicePoly([Quaternion(1, 2, 0, 0), Quaternion(0, 0, 3, 1),
                    Quaternion(1, 1, 1, 1)])


@pytest.mark.parametrize("y0", [1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_zero_on_thin_sphere_finds_whole_sphere(x0, y0):
    sphere = Sphere(x0, y0)
    f = exact_quadratic_product(THIN_G, sphere.point(UNIT_I))
    assert expansion_multiplicity(f, sphere).spherical_mult >= 2
    assert expansion_multiplicity(THIN_G, sphere) == \
        ExpansionMultiplicity(0, False, None)


@pytest.mark.parametrize("y0", [1e-5, 1e-6, 1e-7])
def test_zero_on_thin_sphere_random_cofactors(y0):
    rng = random.Random(5)
    for _ in range(30):
        g = random_poly(rng, 6)
        if not g.coeffs:
            continue
        sphere = Sphere(rng.choice((0.5, 1.0, 2.0)), y0)
        f = exact_quadratic_product(g, sphere.point(UNIT_I))
        assert expansion_multiplicity(f, sphere).spherical_mult >= 2


def test_zero_threshold_is_relative():
    assert classical_multiplicity(SlicePoly([3e-11]), UNIT_I) == 0
    f = SlicePoly([Quaternion(0, 1e-11, 0, 0), 1e-11])      # 1e-11 (q + i)
    report = analyze_sphere(f, UNIT_SPHERE)
    assert report.spherical_mult == 0 and report.isolated_mult == 1
    assert quat_close(report.isolated_point, -UNIT_I, 1e-15)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _report_key(report):
    if not isinstance(report, MultiplicityReport):
        return report
    return (report.spherical_mult, report.isolated_point,
            report.isolated_mult, report.factors)


_UNITS = (UNIT_I, UNIT_J, UNIT_K, (UNIT_I + UNIT_J) / math.sqrt(2),
          (UNIT_I - UNIT_K) / math.sqrt(2))


@settings(max_examples=80, deadline=None, derandomize=True,
          database=None)
@given(x0=st.sampled_from((0.0, 0.5, -1.25)),
       y0=st.sampled_from((0.0, 1e-9, 0.5, 1.0, 2.0)),
       m=st.integers(0, 2),
       units=st.lists(st.sampled_from(_UNITS), max_size=2),
       g=st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=1,
                  max_size=4),
       k=st.integers(-60, 60))
def test_verdicts_invariant_under_power_of_two_scaling(x0, y0, m, units, g,
                                                       k):
    sphere = Sphere(x0, y0)
    f = SlicePoly([Quaternion(*c) for c in g])
    assume(f.coeffs)
    for _ in range(m):
        f = SlicePoly.sphere_quadratic(sphere) * f
    for unit in units:
        f = SlicePoly.linear_factor(sphere.point(unit)) * f
    scale = 2.0 ** k
    scaled = SlicePoly([c * scale for c in f.coeffs])
    assert scaled.coeffs == tuple(c * scale for c in f.coeffs)
    point = sphere.point(UNIT_I)
    for fn, key in ((classical_multiplicity, point),
                    (expansion_multiplicity, sphere)):
        assert _outcome(fn, scaled, key) == _outcome(fn, f, key)
    report = _outcome(analyze_sphere, f, sphere)
    report_scaled = _outcome(analyze_sphere, scaled, sphere)
    assert _report_key(report_scaled) == _report_key(report)
    if isinstance(report, MultiplicityReport):
        assert report_scaled.residual.coeffs == \
            tuple(c * scale for c in report.residual.coeffs)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e200, 1e-320])
def test_root_found_at_extreme_scales(scale):
    # s (q - i): |c|^2 of the remainder b + q*c under- or overflows at
    # these scales, and the root -b*c^(-1) must still be i, as at s = 1.
    # 1e-320 is subnormal, below the 2^-1024 whose inverse is finite.
    f = SlicePoly([-UNIT_I * scale, scale])
    assert expansion_multiplicity(f, UNIT_SPHERE) == \
        ExpansionMultiplicity(0, True, UNIT_I)
    report = analyze_sphere(f, UNIT_SPHERE)
    assert (report.isolated_mult, report.isolated_point) == (1, UNIT_I)


def test_no_zero_read_on_a_sphere_past_the_float_range():
    # 1 + |x0| + y0 overflowed to inf at x0 = y0 = 1.7e308, so the sphere
    # contained every point and the zero 1 - 2i of q - (1 - 2i) was read
    # as an isolated zero on it.
    f = SlicePoly([Quaternion(-1, 2, 0, 0), ONE])
    sphere = Sphere(1.7e308, 1.7e308)
    report = analyze_sphere(f, sphere)
    assert (report.isolated_point, report.isolated_mult) == (None, 0)
    assert report.residual == f
    assert expansion_multiplicity(f, sphere) == \
        ExpansionMultiplicity(0, False, None)


def test_cofactor_peeled_at_the_threshold_of_f():
    # The spherical part is extracted at f's threshold; the isolated zeros
    # of the cofactor are sought at the same threshold, not the cofactor's
    # own, at which the level a*i + q*a*j would vanish on the whole sphere.
    f, cofactor, sphere = threshold_gap_poly()
    a = 8.8e-13
    assert EPS_MULT * f.max_coeff_norm() < a \
        < EPS_MULT * cofactor.max_coeff_norm()
    report = analyze_sphere(f, sphere)
    assert report.spherical_mult == 2
    assert report.isolated_point is None and report.isolated_mult == 0
    assert report.factors == ()
    assert poly_close(report.residual, cofactor,
                      1e-12 * cofactor.max_coeff_norm())
    assert expansion_multiplicity(f, sphere) == \
        ExpansionMultiplicity(2, False, None)


def test_cofactor_below_threshold_is_not_the_zero_function():
    # ((q-400)^2 + 1)^2: the cofactor 1 left after two divisions lies below
    # the shared threshold 1e-10 * 400^4, but a nonzero constant has no
    # zero on the sphere.
    sphere = Sphere(400, 1)
    f = SlicePoly.sphere_quadratic(sphere) ** 2
    assert 1.0 <= EPS_MULT * f.max_coeff_norm()
    assert expansion_multiplicity(f, sphere) == \
        ExpansionMultiplicity(4, False, None)
    report = analyze_sphere(f, sphere)
    assert (report.spherical_mult, report.isolated_mult) == (4, 0)
    assert report.residual == SlicePoly([1.0])


def test_linear_cofactor_below_threshold_keeps_its_root():
    # f = Q^3 * (q - p) on Sphere(48, 1): the cofactor q - p left after
    # three divisions has |b| = |p| ~ 48 and |c| = 1, both below f's
    # threshold (~59), but a nonzero linear polynomial cannot vanish on
    # the whole sphere, so its root p is the isolated zero.
    sphere = Sphere(48, 1)
    p = sphere.point(UNIT_J)
    f = SlicePoly.linear_factor(p)
    for _ in range(3):
        f = SlicePoly.sphere_quadratic(sphere) * f
    assert f.degree == 7
    assert abs(p) < EPS_MULT * f.max_coeff_norm()
    report = analyze_sphere(f, sphere)
    assert (report.spherical_mult, report.isolated_mult) == (6, 1)
    assert quat_close(report.isolated_point, p, 1e-9)
    readout = expansion_multiplicity(f, sphere)
    assert (readout.spherical_mult, readout.has_isolated) == (6, True)
    assert quat_close(readout.isolated_point, p, 1e-9)


def test_planted_factor_at_centre_400_keeps_its_leading_coefficient():
    # f = (q - (400 + j)) * Q^2 on Sphere(400, 1): f's leading 1 is ~1e-13
    # of its largest coefficient.  Dropping it for being small left a
    # polynomial of degree 4, read as (0, 0).
    sphere = Sphere(400, 1)
    p = Quaternion(400, 0, 1, 0)
    quad = SlicePoly.sphere_quadratic(sphere)
    f = SlicePoly.linear_factor(p) * quad * quad
    assert f.degree == 5
    report = analyze_sphere(f, sphere)
    assert (report.spherical_mult, report.isolated_mult) == (4, 1)
    assert quat_close(report.isolated_point, p, 1e-9)
    readout = expansion_multiplicity(f, sphere)
    assert (readout.spherical_mult, readout.has_isolated) == (4, True)
    assert readout.isolated_point == report.isolated_point


def test_small_quadratic_cofactor_keeps_its_zeros():
    # f = (q - p1)(q - p2) * Q on Sphere(400, 1): the level left after one
    # division, (q - p1)(q - p2) restricted to the sphere, has |c| below
    # f's threshold (~2.6) and |b| above it.  Its root p1 lies on the
    # sphere, so both readouts find the isolated zeros.
    sphere = Sphere(400, 1)
    p1, p2 = sphere.point(UNIT_I), sphere.point(UNIT_J)
    f = SlicePoly.linear_factor(p1) * SlicePoly.linear_factor(p2) * \
        SlicePoly.sphere_quadratic(sphere)
    thr = EPS_MULT * f.max_coeff_norm()
    b, c = exact_sphere_levels(f, sphere.point(UNIT_I), 3)[2:]
    assert abs(c) < thr < abs(b)
    report = analyze_sphere(f, sphere)
    assert (report.spherical_mult, report.isolated_mult) == (2, 2)
    assert quat_close(report.isolated_point, p1, 1e-9)
    readout = expansion_multiplicity(f, sphere)
    assert (readout.spherical_mult, readout.has_isolated) == (2, True)
    assert quat_close(readout.isolated_point, p1, 1e-9)


def _restriction_margin(g, sphere):
    """min |g| on the sphere over max |coeff of g|, from the exact
    remainder b + q*c: |b + q*c| = |c| * |q - r| with r = -b*c^(-1)."""
    b, c = exact_sphere_levels(g, sphere.point(UNIT_I), 1)
    if c.norm_sq() == 0.0:
        return abs(b) / g.max_coeff_norm()
    root = -oracle_mul(b, c.conj()) / c.norm_sq()
    gap = math.hypot(root.w - sphere.x0, root.im_norm() - sphere.y0)
    return abs(c) * gap / g.max_coeff_norm()


@settings(max_examples=120, deadline=None, derandomize=True,
          database=None)
@given(x0=st.sampled_from((0.0, 0.5, -1.25, 400.0)),
       y0=st.sampled_from((0.3, 1.0, 2.0, 1e-9, 1e-7, 1e-6)),
       m=st.integers(0, 2),
       units=st.lists(st.sampled_from(_UNITS), max_size=3),
       g=st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=1,
                  max_size=4))
def test_factorization_and_expansion_readout_agree(x0, y0, m, units, g):
    # Both read the first level that does not vanish at f's threshold, so
    # they agree on 2m, on whether an isolated zero exists, and on where.
    sphere = Sphere(x0, y0)
    g = SlicePoly([Quaternion(*c) for c in g])
    assume(g.coeffs)
    f = g
    for _ in range(m):
        f = SlicePoly.sphere_quadratic(sphere) * f
    for unit in units:
        f = SlicePoly.linear_factor(sphere.point(unit)) * f
    report = analyze_sphere(f, sphere)
    readout = expansion_multiplicity(f, sphere)
    assert readout.spherical_mult == report.spherical_mult
    assert readout.has_isolated == (report.isolated_mult > 0)
    assert readout.isolated_point == report.isolated_point
    # Both also find what was planted, when g keeps clear of the sphere.
    # Not at x0 = 400: the shared threshold is relative to coefficients of
    # size ~400^deg f while f on the sphere stays small, so planted factors
    # there are missed (a known limit of the threshold, not of either
    # readout).  Not on the thin spheres either: their points lie within
    # 2 y0 of one another, so planted factors differ from one another and
    # from the sphere's quadratic by O(y0) only.  With two or more planted,
    # each peeled root loses accuracy like eps / y0 and the count is often
    # wrong; the agreement above holds all the same.  No two units in
    # _UNITS are opposite, so consecutive planted points are never
    # conjugate.
    if (x0 != 400.0 and y0 >= 0.3
            and _restriction_margin(g, sphere) > 1e-3):
        assert report.spherical_mult == 2 * m
        assert report.isolated_mult == len(units)
        assert readout.has_isolated == bool(units)
