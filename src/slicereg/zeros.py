"""Zero analysis of a polynomial on a given sphere.

A nonzero polynomial factors over each sphere x0 + y0*S as

    f = [(q-x0)^2 + y0^2]^m * (q-p1)*(q-p2)*...*(q-pn) * g

with all p_i on the sphere, consecutive factors never conjugate, and g
zero-free on the sphere.  2m is the spherical multiplicity, n the
isolated multiplicity at p1 (the unique zero of the middle part, when
present).  Degrees add up: deg f = 2m + n + deg g.

All of it is read off long division by the sphere's quadratic.  The
remainder b + q*c is f restricted to the sphere: it vanishes on the whole
sphere or at most at -b*c^(-1).  2m counts the vanishing remainders.

Candidate spheres come from the caller; hunting for zeros across all of
the quaternions would need machinery (symmetrization) that is out of
scope here.

All zero decisions share one threshold, EPS_MULT * max |coeff of f|,
because the multiplicity loops are threshold-sensitive and must agree;
being relative, it gives the same verdicts for f and c*f.
"""

from .errors import SliceRegError, ZeroFunction
from .expansion import separated
from .polynomial import SlicePoly
from .quaternion import UNIT_I, Quaternion, Sphere, _Value
from .tolerances import (EPS_CONJ_FACTOR, EPS_MULT, EPS_REPORT_CONJ,
                         EPS_REPORT_ON_SPHERE, EPS_ROOT, zero_guard)


def shared_zero_threshold(f: SlicePoly, tol: float | None = None) -> float:
    return (EPS_MULT if tol is None else tol) * f.max_coeff_norm()


def _root_on_sphere(b: Quaternion, c: Quaternion,
                    sphere: Sphere) -> Quaternion | None:
    """The root -b*c^(-1) of b + q*c if it lies on the sphere, else None.

    c^(-1) is written out as conj(c)/|c|^2: `inverse` refuses |c| below
    ~1e-14, and b, c scaled together must give the same root."""
    root = -(b * c.conj()) / c.norm_sq()
    return root if sphere.contains(root, eps=EPS_ROOT) else None


class SphereZero(_Value):
    """Zero set of a polynomial restricted to one sphere: nothing, a single
    point, or the whole sphere (`kind` "none", "point", "whole_sphere")."""

    __slots__ = ("kind", "point")

    def __init__(self, kind: str, point: Quaternion | None = None):
        self._store(kind, point)


def zero_on_sphere(f: SlicePoly, sphere: Sphere,
                   tol: float | None = None) -> SphereZero:
    """Find where f vanishes on the sphere.

    The remainder of f by the sphere's quadratic, q |-> b + q*c, is the
    restriction of f to the sphere.  It vanishes identically when b and c
    do; otherwise its root -b*c^(-1) counts only if it lies on the sphere.
    On a degenerate sphere {x0} the value f(x0) = b + x0*c decides.
    """
    thr = shared_zero_threshold(f, tol)
    rest = f.quadratic_div(sphere)[1]
    b, c = rest.coefficient(0), rest.coefficient(1)
    if sphere.y0 <= zero_guard(abs(sphere.x0)):
        if abs(b + c * sphere.x0) <= thr:
            return SphereZero("point", Quaternion(sphere.x0, 0.0, 0.0, 0.0))
        return SphereZero("none")
    if abs(c) <= thr:
        return SphereZero("whole_sphere") if abs(b) <= thr else SphereZero("none")
    root = _root_on_sphere(b, c, sphere)
    return SphereZero("none") if root is None else SphereZero("point", root)


def classical_multiplicity(f: SlicePoly, q0: Quaternion,
                           tol: float | None = None) -> int:
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


def _first_level(f: SlicePoly, sphere: Sphere, thr: float,
                 centre: Quaternion | None = None) -> tuple:
    """Divide f by the sphere's quadratic while the remainder b + q*c,
    read as (b, c) or at a real `centre` as the Taylor pair
    (b + centre*c, c), vanishes; return m, the cofactor and that pair."""
    if f.is_zero():
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    m = 0
    while True:
        quotient, rest = f.quadratic_div(sphere)
        even, odd = rest.coefficient(0), rest.coefficient(1)
        if centre is not None:
            even = even + centre * odd
        if f.degree < 2 or max(abs(even), abs(odd)) > thr:
            return m, f, even, odd
        m, f = m + 1, quotient


def spherical_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: float | None = None
                           ) -> tuple[int, SlicePoly]:
    """Maximal power 2m of the sphere's quadratic dividing f, plus the
    cofactor left after dividing it out."""
    m, cofactor, _, _ = _first_level(f, sphere, shared_zero_threshold(f, tol))
    return 2 * m, cofactor


class IsolatedZeros(_Value):
    """Linear star-factors of a quadratic-free polynomial on one sphere."""

    __slots__ = ("point", "count", "factors", "residual")

    def __init__(self, point: Quaternion | None, count: int, factors: tuple,
                 residual: SlicePoly):
        self._store(point, count, factors, residual)


def isolated_multiplicity(tilde_f: SlicePoly, sphere: Sphere,
                          tol: float | None = None) -> IsolatedZeros:
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
            if abs(prev - p.conj()) <= EPS_CONJ_FACTOR * (1.0 + abs(p)):
                raise SliceRegError(
                    "consecutive conjugate factors: spherical part missed")
        _, g = g.remainder_div(p)
        factors.append(p)
    return IsolatedZeros(factors[0] if factors else None, len(factors),
                         tuple(factors), g)


class MultiplicityReport(_Value):
    """Full factorization data of a polynomial at one sphere."""

    __slots__ = ("sphere", "spherical_mult", "isolated_point",
                 "isolated_mult", "factors", "residual")

    def __init__(self, sphere: Sphere, spherical_mult: int,
                 isolated_point: Quaternion | None, isolated_mult: int,
                 factors: tuple, residual: SlicePoly):
        if spherical_mult < 0 or spherical_mult % 2:
            raise ValueError("spherical multiplicity must be even and >= 0")
        if isolated_point is not None and \
                not sphere.contains(isolated_point, eps=EPS_REPORT_ON_SPHERE):
            raise ValueError("isolated point must lie on the sphere")
        for prev, nxt in zip(factors, factors[1:]):
            if abs(prev - nxt.conj()) <= EPS_REPORT_CONJ * (1.0 + abs(prev)):
                raise ValueError("consecutive factors must not be conjugate")
        self._store(sphere, spherical_mult, isolated_point, isolated_mult,
                    factors, residual)


def analyze_sphere(f: SlicePoly, sphere: Sphere,
                   tol: float | None = None) -> MultiplicityReport:
    """Spherical and isolated multiplicities of f at the sphere."""
    two_m, tilde_f = spherical_multiplicity(f, sphere, tol)
    isolated = isolated_multiplicity(tilde_f, sphere, tol)
    return MultiplicityReport(sphere, two_m, isolated.point, isolated.count,
                              isolated.factors, isolated.residual)


class ExpansionMultiplicity(_Value):
    """Multiplicity data read off the first nonvanishing expansion level
    even + q*odd: `has_isolated` says whether its root -even*odd^(-1) lies
    on the sphere, or on a numerically real sphere whether A_2m vanishes
    (the zero is then the centre)."""

    __slots__ = ("spherical_mult", "has_isolated", "isolated_point")

    def __init__(self, spherical_mult: int, has_isolated: bool,
                 isolated_point: Quaternion | None):
        self._store(spherical_mult, has_isolated, isolated_point)


def expansion_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: float | None = None
                           ) -> ExpansionMultiplicity:
    """Spherical multiplicity and the isolated-zero verdict from the first
    nonvanishing expansion level.  On a numerically real sphere (see
    `separated`) the levels are those of (q - x0)^2, read as the Taylor
    pair A_2m = even + x0*odd, A_2m+1 = odd at the real centre."""
    thr = shared_zero_threshold(f, tol)
    q1 = sphere.point(UNIT_I)
    centre = None
    if not separated(q1, q1.conj()):
        centre = Quaternion(sphere.x0, 0.0, 0.0, 0.0)
        sphere = Sphere(sphere.x0, 0.0)
    m, _, even, odd = _first_level(f, sphere, thr, centre)
    if max(abs(even), abs(odd)) <= thr:
        raise ZeroFunction("all expansion coefficients vanish")
    if centre is not None:
        point = centre if abs(even) <= thr else None
    else:
        point = None if abs(odd) <= thr else _root_on_sphere(even, odd, sphere)
    return ExpansionMultiplicity(2 * m, point is not None, point)
