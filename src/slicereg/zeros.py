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
from .tolerances import EPS_CONJ_FACTOR, EPS_MULT, EPS_ROOT, guard


def _threshold(f: SlicePoly, tol: float | None) -> float:
    """tol (default EPS_MULT), in (0, 1), times max |coeff of f|; the
    zero polynomial is refused with ZeroFunction, as it has no
    multiplicity.  A tol of 1 or more would read every remainder as
    vanishing."""
    if not f.coeffs:
        raise ZeroFunction("multiplicity of the zero polynomial is undefined")
    tol = EPS_MULT if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise SliceRegError("tol must be finite and > 0")
    if not tol < 1.0:
        raise SliceRegError("tol must be < 1")
    return tol * f.max_coeff_norm()


def _level(b: Quaternion, c: Quaternion, degree: float, sphere: Sphere,
           thr: float) -> tuple[str, Quaternion | None]:
    """The zero set on the sphere of the remainder b + q*c, by the sphere's
    quadratic, of a polynomial of the given degree, at the threshold `thr`:
    (kind, point) with kind "none", "point" or "whole_sphere", and the
    point only for "point".  On a degenerate sphere {x0}, "whole_sphere"
    means that (q - x0)^2 divides the polynomial.

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
        return "none", None
    degenerate = sphere.is_point
    if degenerate:
        b = b + c * sphere.x0
    size = abs(c)
    if max(abs(b), size) <= thr and degree != 1:
        return "whole_sphere", None
    if degenerate:
        point, hit = Quaternion(sphere.x0, 0.0, 0.0, 0.0), abs(b) <= thr
    elif size > 0.0:
        s = _unit_scale(size)
        b, c = b * s, c * s
        point = -(b * c.conj()) / c.norm_sq()
        hit = sphere.contains(point, eps=EPS_ROOT)
    else:
        hit = False
    return ("point", point) if hit else ("none", None)


def classical_multiplicity(f: SlicePoly, q0: Quaternion,
                           tol: float | None = None) -> int:
    """Largest n with f divisible by the n-th star power of (q - q0):
    the count of leading vanishing coefficients in the centered series.
    It never exceeds the degree: a nonzero constant has no zero."""
    thr = _threshold(f, tol)
    n, g = 0, f
    while g.degree >= 1:
        value, remainder = g.remainder_div(q0)
        if abs(value) > thr:
            break
        n += 1
        g = remainder
    return n


def _first_level(f: SlicePoly, sphere: Sphere, thr: float
                 ) -> tuple[int, Callable[[], SlicePoly], tuple]:
    """Read the levels of f by the sphere's quadratic while `_level` finds
    the remainder vanishing on the whole sphere; return m, a function that
    builds the cofactor, and the verdict on the first remainder that does
    not.  The cofactor is f, then each quotient, built when called from a
    copy of its four float lists, taken before the next level divides them
    in place.  For a nonzero f a vanishing level has degree >= 2 and so a
    nonzero quotient: the loop ends by returning."""
    degree, cofactor = f.degree, lambda: f
    for m, (b, c, quotient) in enumerate(_sphere_levels(f, sphere)):
        found = _level(b, c, degree, sphere, thr)
        if found[0] != "whole_sphere":
            return m, cofactor, found
        parts = quotient()
        degree = len(parts[0]) - 1
        cofactor = partial(_from_parts, parts)


def _peel(g: SlicePoly, sphere: Sphere, thr: float,
          found: tuple) -> tuple[tuple, SlicePoly]:
    """Peel (q - p) off g while the verdict `found` on g is a point p,
    then recompute it on the cofactor at the same threshold; return the
    factors p and what is left.  A quadratic-free polynomial has at most
    one zero per sphere, and consecutive factors are never conjugate: a
    root within EPS_CONJ_FACTOR (1 + |p|) of the conjugate of the one
    before reveals a missed quadratic factor."""
    factors = []
    kind, p = found
    while kind == "point":
        if factors and (abs(factors[-1] - p.conj())
                        <= guard(EPS_CONJ_FACTOR, abs(p))):
            raise SliceRegError(
                "consecutive conjugate factors: spherical part missed")
        _, g = g.remainder_div(p)
        factors.append(p)
        b, c, _ = next(_sphere_levels(g, sphere))
        kind, p = _level(b, c, g.degree, sphere, thr)
    if kind == "whole_sphere":
        raise SliceRegError(
            "cofactor vanishes on the whole sphere: spherical part missed")
    return tuple(factors), g


class MultiplicityReport(_Value):
    """Full factorization data of a polynomial at one sphere, as
    `analyze_sphere` decides it."""

    __slots__ = ("sphere", "spherical_mult", "isolated_point",
                 "isolated_mult", "factors", "residual")

    def __init__(self, sphere: Sphere, spherical_mult: int,
                 isolated_point: Quaternion | None, isolated_mult: int,
                 factors: tuple, residual: SlicePoly):
        self._store(sphere, spherical_mult, isolated_point, isolated_mult,
                    factors, residual)


def analyze_sphere(f: SlicePoly, sphere: Sphere,
                   tol: float | None = None) -> MultiplicityReport:
    """Spherical and isolated multiplicities of f at the sphere, both at
    f's threshold: the peeling starts from the verdict on the first
    remainder that does not vanish."""
    thr = _threshold(f, tol)
    m, cofactor, found = _first_level(f, sphere, thr)
    factors, residual = _peel(cofactor(), sphere, thr, found)
    return MultiplicityReport(sphere, 2 * m, factors[0] if factors else None,
                              len(factors), factors, residual)


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
    m, _, (kind, point) = _first_level(f, sphere, _threshold(f, tol))
    return ExpansionMultiplicity(2 * m, kind == "point", point)
