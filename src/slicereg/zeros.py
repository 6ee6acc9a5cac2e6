"""Zero analysis of a polynomial on a given sphere.

A nonzero polynomial factors over each sphere x0 + y0*S as

    f = [(q-x0)^2 + y0^2]^m * (q-p1)*(q-p2)*...*(q-pn) * g

with all p_i on the sphere, consecutive factors never conjugate, and g
zero-free on the sphere.  2m is the spherical multiplicity, n the
isolated multiplicity at p1 (the unique zero of the middle part, when
present).  Degrees add up: deg f = 2m + n + deg g.

All of it is read off long division by the sphere's quadratic.  The
remainder b + q*c is f restricted to the sphere, and one verdict reads
its zero set: the whole sphere when b and c vanish, otherwise at most the
root -b*c^(-1).  2m counts the whole-sphere verdicts of the repeated
division; the verdict on the first remainder that does not vanish gives
the isolated zero, and peeling (q - p) off the cofactor repeats it.  On
a degenerate sphere {x0} (`Sphere.is_point`) the remainder is read as
the Taylor pair (b + x0*c, c) at x0; every other sphere, however thin,
is read as given.

Candidate spheres come from the caller; hunting for zeros across all of
the quaternions would need machinery (symmetrization) that is out of
scope here.

All vanishing tests share one threshold, EPS_MULT * max |coeff of f|,
because the multiplicity loops are threshold-sensitive and must agree:
cofactors and peeled remainders are tested against it, not their own,
and a root is kept by its distance to the sphere alone.  Being relative,
it gives the same verdicts for f and c*f.
"""

import math
from collections.abc import Callable
from functools import partial

from .errors import SliceRegError, ZeroFunction
from .polynomial import SlicePoly, _from_parts, _sphere_levels
from .quaternion import Quaternion, Sphere, _unit_scale, _Value
from .tolerances import EPS_CONJ_FACTOR, EPS_MULT, EPS_ROOT


def shared_zero_threshold(f: SlicePoly, tol: float | None = None) -> float:
    """tol (default EPS_MULT), in (0, 1), times max |coeff of f|.  A tol
    of 1 or more would read every remainder as vanishing."""
    tol = EPS_MULT if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise SliceRegError("tol must be finite and > 0")
    if not tol < 1.0:
        raise SliceRegError("tol must be < 1")
    return tol * f.max_coeff_norm()


def _multiplicity_threshold(f: SlicePoly, tol: float | None) -> float:
    """`shared_zero_threshold` of an f whose multiplicity is asked for:
    refused with ZeroFunction when f is the zero polynomial."""
    if f.is_zero():
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    return shared_zero_threshold(f, tol)


class SphereZero(_Value):
    """Zero set of a polynomial restricted to one sphere: nothing, a single
    point, or the whole sphere (`kind` "none", "point", "whole_sphere").
    On a degenerate sphere {x0}, "whole_sphere" means that (q - x0)^2
    divides the polynomial."""

    __slots__ = ("kind", "point")

    def __init__(self, kind: str, point: Quaternion | None = None):
        self._store(kind, point)


def _level(b: Quaternion, c: Quaternion, degree: float, sphere: Sphere,
           thr: float) -> SphereZero:
    """The zero set on the sphere of the remainder b + q*c, by the sphere's
    quadratic, of a polynomial of the given degree, at the threshold `thr`.

    It is the whole sphere when b and c fall below `thr`, else at most
    the root -b*c^(-1), kept if it lies within EPS_ROOT of the sphere
    however small c is (c^(-1) = conj(c)/|c|^2: `inverse` refuses tiny c,
    and b, c scaled together must give the same root).  Both are first
    scaled by the exact power of two that brings |c| near 1, so |c|^2
    neither overflows nor underflows at any scale of f.  On a degenerate
    sphere {x0} the Taylor pair (f(x0), c) = (b + x0*c, c) is read, and
    x0 is the zero when f(x0) falls below `thr`.  A nonzero polynomial of
    degree < 2 is its own remainder: never zero on the whole sphere.
    """
    if degree == 0:
        return SphereZero("none")
    degenerate = sphere.is_point
    if degenerate:
        b = b + c * sphere.x0
    size = abs(c)
    if max(abs(b), size) <= thr and degree != 1:
        return SphereZero("whole_sphere")
    if degenerate:
        point, hit = Quaternion(sphere.x0, 0.0, 0.0, 0.0), abs(b) <= thr
    elif size > 0.0:
        s = _unit_scale(size)
        b, c = b * s, c * s
        point = -(b * c.conj()) / c.norm_sq()
        hit = sphere.contains(point, eps=EPS_ROOT)
    else:
        hit = False
    return SphereZero("point", point) if hit else SphereZero("none")


def _verdicts(f: SlicePoly, sphere: Sphere, thr: float):
    """Yield, level by level of f by the sphere's quadratic, the verdict
    `_level` and a function that builds the level's dividend only when
    called: f, then each quotient from a copy of its four float lists,
    taken before the next level divides them in place."""
    degree, cofactor = f.degree, lambda: f
    for b, c, quotient in _sphere_levels(f, sphere):
        yield _level(b, c, degree, sphere, thr), cofactor
        parts = quotient()
        degree = len(parts[0]) - 1
        cofactor = partial(_from_parts, parts)


def zero_on_sphere(f: SlicePoly, sphere: Sphere,
                   tol: float | None = None) -> SphereZero:
    """Find where f vanishes on the sphere (see `_level`)."""
    return next(_verdicts(f, sphere, shared_zero_threshold(f, tol)))[0]


def classical_multiplicity(f: SlicePoly, q0: Quaternion,
                           tol: float | None = None) -> int:
    """Largest n with f divisible by the n-th star power of (q - q0):
    the count of leading vanishing coefficients in the centered series.
    It never exceeds the degree: a nonzero constant has no zero."""
    thr = _multiplicity_threshold(f, tol)
    n, g = 0, f
    while g.degree >= 1:
        value, remainder = g.remainder_div(q0)
        if abs(value) > thr:
            break
        n += 1
        g = remainder
    return n


def _first_level(f: SlicePoly, sphere: Sphere, thr: float
                 ) -> tuple[int, Callable[[], SlicePoly], SphereZero]:
    """Read the levels of f by the sphere's quadratic while the remainder
    vanishes on the whole sphere; return m, a function that builds the
    cofactor, and the verdict on the first remainder that does not.  For
    a nonzero f a vanishing level has degree >= 2 and so a nonzero
    quotient: the loop ends by returning."""
    for m, (found, cofactor) in enumerate(_verdicts(f, sphere, thr)):
        if found.kind != "whole_sphere":
            return m, cofactor, found


def spherical_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: float | None = None
                           ) -> tuple[int, SlicePoly]:
    """Maximal power 2m of the sphere's quadratic dividing f, plus the
    cofactor left after dividing it out."""
    m, cofactor, _ = _first_level(f, sphere, _multiplicity_threshold(f, tol))
    return 2 * m, cofactor()


class IsolatedZeros(_Value):
    """Linear star-factors of a quadratic-free polynomial on one sphere."""

    __slots__ = ("point", "count", "factors", "residual")

    def __init__(self, point: Quaternion | None, count: int, factors: tuple,
                 residual: SlicePoly):
        self._store(point, count, factors, residual)


def _conjugate_pair(prev: Quaternion, p: Quaternion) -> bool:
    """Consecutive factors prev, p near conjugate: a missed quadratic."""
    return abs(prev - p.conj()) <= EPS_CONJ_FACTOR * (1.0 + abs(p))


def _peel(g: SlicePoly, sphere: Sphere, thr: float,
          found: SphereZero) -> IsolatedZeros:
    """Peel (q - p) off g while the verdict `found` on g is a point p,
    then recompute it on the cofactor at the same threshold."""
    factors = []
    while found.kind == "point":
        p = found.point
        if factors and _conjugate_pair(factors[-1], p):
            raise SliceRegError(
                "consecutive conjugate factors: spherical part missed")
        _, g = g.remainder_div(p)
        factors.append(p)
        found = next(_verdicts(g, sphere, thr))[0]
    if found.kind == "whole_sphere":
        raise SliceRegError("polynomial vanishes on the whole sphere; "
                            "extract the spherical multiplicity first")
    return IsolatedZeros(factors[0] if factors else None, len(factors),
                         tuple(factors), g)


def isolated_multiplicity(tilde_f: SlicePoly, sphere: Sphere,
                          tol: float | None = None) -> IsolatedZeros:
    """Peel linear star-factors (q - p_i) with all p_i on the sphere.

    `tilde_f` must already have its spherical part removed (it must not
    vanish identically on the sphere).  After each peel the zero is
    recomputed on the cofactor, at tilde_f's threshold; a quadratic-free
    polynomial has at most one zero per sphere, and consecutive factors
    are never conjugate (a conjugate pair would be a quadratic factor).
    """
    thr = _multiplicity_threshold(tilde_f, tol)
    return _peel(tilde_f, sphere, thr,
                 next(_verdicts(tilde_f, sphere, thr))[0])


class MultiplicityReport(_Value):
    """Full factorization data of a polynomial at one sphere."""

    __slots__ = ("sphere", "spherical_mult", "isolated_point",
                 "isolated_mult", "factors", "residual")

    def __init__(self, sphere: Sphere, spherical_mult: int,
                 isolated_point: Quaternion | None, isolated_mult: int,
                 factors: tuple, residual: SlicePoly):
        if spherical_mult < 0 or spherical_mult % 2:
            raise SliceRegError("spherical multiplicity must be even and >= 0")
        if isolated_point is not None and not sphere.contains(isolated_point):
            raise SliceRegError("isolated point must lie on the sphere")
        for prev, nxt in zip(factors, factors[1:]):
            if _conjugate_pair(prev, nxt):
                raise SliceRegError(
                    "consecutive factors must not be conjugate")
        self._store(sphere, spherical_mult, isolated_point, isolated_mult,
                    factors, residual)


def analyze_sphere(f: SlicePoly, sphere: Sphere,
                   tol: float | None = None) -> MultiplicityReport:
    """Spherical and isolated multiplicities of f at the sphere, both at
    f's threshold: the peeling starts from the verdict on the first
    remainder that does not vanish."""
    thr = _multiplicity_threshold(f, tol)
    m, cofactor, found = _first_level(f, sphere, thr)
    isolated = _peel(cofactor(), sphere, thr, found)
    return MultiplicityReport(sphere, 2 * m, isolated.point, isolated.count,
                              isolated.factors, isolated.residual)


class ExpansionMultiplicity(_Value):
    """Multiplicity data read off the first nonvanishing expansion level
    even + q*odd: `has_isolated` says whether its root -even*odd^(-1) lies
    on the sphere, or on a degenerate sphere {x0} whether A_2m vanishes
    (the zero is then the centre)."""

    __slots__ = ("spherical_mult", "has_isolated", "isolated_point")

    def __init__(self, spherical_mult: int, has_isolated: bool,
                 isolated_point: Quaternion | None):
        self._store(spherical_mult, has_isolated, isolated_point)


def expansion_multiplicity(f: SlicePoly, sphere: Sphere,
                           tol: float | None = None
                           ) -> ExpansionMultiplicity:
    """Spherical multiplicity and the isolated-zero verdict from the first
    nonvanishing expansion level, the level `analyze_sphere` starts its
    peeling from, so the two agree on every sphere.  The sphere is read
    as given; only a degenerate one (`Sphere.is_point`) is the real point
    x0, with the Taylor pair A_2m = even + x0*odd, A_2m+1 = odd."""
    m, _, found = _first_level(f, sphere, _multiplicity_threshold(f, tol))
    return ExpansionMultiplicity(2 * m, found.kind == "point", found.point)
