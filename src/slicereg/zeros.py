"""Zero analysis of a polynomial on a given sphere.

A nonzero polynomial factors over each sphere x0 + y0*S as

    f = [(q-x0)^2 + y0^2]^m * (q-p1)*(q-p2)*...*(q-pn) * g

with all p_i on the sphere, consecutive factors never conjugate, and g
zero-free on the sphere.  2m is the spherical multiplicity, n the
isolated multiplicity at p1 (the unique zero of the middle part, when
present).  Degrees add up: deg f = 2m + n + deg g.

Candidate spheres come from the caller; hunting for zeros across all of
the quaternions would need machinery (symmetrization) that is out of
scope here.

All zero decisions share one threshold, EPS_MULT * (1 + max |coeff of f|),
because the multiplicity loops are threshold-sensitive and must agree.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import SliceRegError, ZeroFunction
from .expansion import expand_at, separated
from .polynomial import SlicePoly
from .quaternion import UNIT_I, Quaternion, Sphere
from .tolerances import EPS_MULT, zero_guard


def shared_zero_threshold(f: SlicePoly, tol: Optional[float] = None) -> float:
    base = EPS_MULT if tol is None else tol
    return base * (1.0 + f.max_coeff_norm())


@dataclass(frozen=True)
class SphereZero:
    """Zero set of a polynomial restricted to one sphere: nothing, a single
    point, or the whole sphere."""

    kind: str                      # "none" | "point" | "whole_sphere"
    point: Optional[Quaternion] = None


def zero_on_sphere(f: SlicePoly, sphere: Sphere,
                   tol: Optional[float] = None) -> SphereZero:
    """Find where f vanishes on the sphere.

    The restriction of f to the sphere is affine, q |-> b + q*c; the
    coefficients come from sampling two conjugate points.  A candidate
    solution -b*c^(-1) only counts if it actually lies on the sphere.
    """
    thr = shared_zero_threshold(f, tol)
    if sphere.y0 <= zero_guard(abs(sphere.x0)):
        value = f(Quaternion(sphere.x0, 0.0, 0.0, 0.0))
        if abs(value) <= thr:
            return SphereZero("point", Quaternion(sphere.x0, 0.0, 0.0, 0.0))
        return SphereZero("none")
    q1 = sphere.point(UNIT_I)
    q2 = q1.conj()
    v1, v2 = f(q1), f(q2)
    c = (q1 - q2).inverse() * (v1 - v2)
    b = v1 - q1 * c
    if abs(c) <= thr:
        return SphereZero("whole_sphere") if abs(b) <= thr else SphereZero("none")
    candidate = -(b * c.inverse())
    # On-sphere tolerance is looser than the unit tolerance: the candidate
    # accumulates roundoff from previously peeled factors.
    if sphere.contains(candidate, eps=1e-10):
        return SphereZero("point", candidate)
    return SphereZero("none")


def classical_multiplicity(f: SlicePoly, q0: Quaternion,
                           tol: Optional[float] = None) -> int:
    """Largest n with f divisible by the n-th star power of (q - q0):
    the count of leading vanishing coefficients in the centered series."""
    if f.is_zero():
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    thr = shared_zero_threshold(f, tol)
    n = 0
    g = f
    while not g.is_zero():
        value, remainder = g.remainder_div(q0)
        if abs(value) > thr:
            break
        n += 1
        g = remainder
    return n


def spherical_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: Optional[float] = None
                           ) -> tuple[int, SlicePoly]:
    """Maximal power 2m of the sphere's quadratic dividing f, plus the
    cofactor left after dividing it out."""
    if f.is_zero():
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    thr = shared_zero_threshold(f, tol)
    m = 0
    g = f
    while g.degree >= 2:
        quotient, remainder = g.quadratic_div(sphere)
        if remainder.max_coeff_norm() > thr:
            break
        m += 1
        g = quotient
    return 2 * m, g


@dataclass(frozen=True)
class IsolatedZeros:
    """Linear star-factors of a quadratic-free polynomial on one sphere."""

    point: Optional[Quaternion]
    count: int
    factors: tuple
    residual: SlicePoly


def isolated_multiplicity(tilde_f: SlicePoly, sphere: Sphere,
                          tol: Optional[float] = None) -> IsolatedZeros:
    """Peel linear star-factors (q - p_i) with all p_i on the sphere.

    `tilde_f` must already have its spherical part removed (it must not
    vanish identically on the sphere).  After each peel the zero is
    recomputed on the cofactor; a quadratic-free polynomial has at most
    one zero per sphere, and consecutive factors are never conjugate
    (a conjugate pair would be a quadratic factor).
    """
    factors = []
    g = tilde_f
    while not g.is_zero():
        found = zero_on_sphere(g, sphere, tol)
        if found.kind == "whole_sphere":
            raise ValueError("polynomial vanishes on the whole sphere; "
                             "extract the spherical multiplicity first")
        if found.kind == "none":
            break
        p = found.point
        if factors:
            prev = factors[-1]
            if abs(prev - p.conj()) <= 1e-9 * (1.0 + abs(p)):
                raise SliceRegError(
                    "consecutive conjugate factors: spherical part missed")
        _, g = g.remainder_div(p)
        factors.append(p)
    return IsolatedZeros(factors[0] if factors else None, len(factors),
                         tuple(factors), g)


@dataclass(frozen=True)
class MultiplicityReport:
    """Full factorization data of a polynomial at one sphere."""

    sphere: Sphere
    spherical_mult: int
    isolated_point: Optional[Quaternion]
    isolated_mult: int
    factors: tuple
    residual: SlicePoly

    def __post_init__(self):
        if self.spherical_mult < 0 or self.spherical_mult % 2:
            raise ValueError("spherical multiplicity must be even and >= 0")
        if self.isolated_point is not None and \
                not self.sphere.contains(self.isolated_point, eps=1e-9):
            raise ValueError("isolated point must lie on the sphere")
        for prev, nxt in zip(self.factors, self.factors[1:]):
            if abs(prev - nxt.conj()) <= 1e-12 * (1.0 + abs(prev)):
                raise ValueError("consecutive factors must not be conjugate")


def analyze_sphere(f: SlicePoly, sphere: Sphere,
                   tol: Optional[float] = None) -> MultiplicityReport:
    """Spherical and isolated multiplicities of f at the sphere."""
    two_m, tilde_f = spherical_multiplicity(f, sphere, tol)
    isolated = isolated_multiplicity(tilde_f, sphere, tol)
    return MultiplicityReport(sphere, two_m, isolated.point, isolated.count,
                              isolated.factors, isolated.residual)


@dataclass(frozen=True)
class ExpansionMultiplicity:
    """Multiplicity data read off the series expansion at the sphere.

    `has_isolated` is decided by the authoritative route (solving the
    affine sphere restriction of the cofactor for its root).
    `quotient_criterion` is the alternative test that puts the coefficient
    inverse on the left instead; the two can legitimately disagree in the
    sign of the real part when x0 != 0, so a discrepancy is reported
    rather than asserted away.
    """

    spherical_mult: int
    has_isolated: bool
    isolated_point: Optional[Quaternion]
    quotient_criterion: Optional[bool]

    @property
    def routes_agree(self) -> bool:
        return self.quotient_criterion is None or \
            self.quotient_criterion == self.has_isolated


def expansion_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: Optional[float] = None
                           ) -> ExpansionMultiplicity:
    """Spherical multiplicity from the first nonvanishing expansion
    coefficient, plus both isolated-zero verdicts."""
    if f.is_zero():
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    thr = shared_zero_threshold(f, tol)
    order = int(f.degree) + 1
    q1 = sphere.point(UNIT_I)
    if not separated(q1, q1.conj()):
        # Numerically real sphere: there is no base-point-free family; the
        # Taylor expansion at the real center carries the same readout.
        center = Quaternion(sphere.x0, 0.0, 0.0, 0.0)
        first = _first_nonvanishing(expand_at(f, center, order).coeffs, thr)
        return ExpansionMultiplicity(2 * (first // 2), first % 2 == 1,
                                     center if first % 2 == 1 else None, None)
    coeffs = expand_at(f, q1, order).sphere_coeffs
    first = _first_nonvanishing(coeffs, thr)
    spherical = 2 * (first // 2)
    even = coeffs[spherical]
    odd = coeffs[spherical + 1]

    # Authoritative: solve even + q*odd = 0 (the restriction of the
    # cofactor to the sphere) and keep the root only if it is on-sphere.
    if abs(odd) <= thr:
        has_isolated, point = False, None
    else:
        candidate = -(even * odd.inverse())
        if sphere.contains(candidate, eps=1e-10):
            has_isolated, point = True, candidate
        else:
            has_isolated, point = False, None

    # Alternative criterion with the inverse on the left, recorded for
    # comparison; it flips the sign of the real part relative to the
    # direct solve, so it can disagree when x0 != 0.
    if abs(odd) <= thr:
        criterion = False
    else:
        criterion = sphere.contains(odd.inverse() * even, eps=1e-10)
    return ExpansionMultiplicity(spherical, has_isolated, point, criterion)


def _first_nonvanishing(coeffs, thr: float) -> int:
    for n, c in enumerate(coeffs):
        if abs(c) > thr:
            return n
    raise ZeroFunction("all expansion coefficients vanish")
