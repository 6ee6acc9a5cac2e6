"""Series expansion at a sphere, its convergence set, and related geometry.

A slice-regular polynomial f expands around the sphere x0 + y0*S as

    f(q) = sum_n [(q-x0)^2 + y0^2]^n * (A_{2n} + (q - q0) A_{2n+1})

where q0 is any chosen base point on the sphere.  The quadratic has real
coefficients, so long division by it applies: the n-th remainder is
C_{2n} + q C_{2n+1}, a level of the base-point-free family, and the
quotient is divided again.  A_{2n} = C_{2n} + q0 C_{2n+1} and
A_{2n+1} = C_{2n+1} follow in closed form.

The natural domain of such a series is the symmetric set
U(x0+y0*S, R) = {q : |(q-x0)^2 + y0^2| < R^2}, whose slice sections are
bounded by polynomial lemniscates: two loops for R < y0, a figure-eight
at R = y0, a single loop beyond.
"""

import cmath
import enum
import math
from collections.abc import Sequence

from .errors import DegenerateSphere, SliceRegError, require_finite
from .polynomial import (SlicePoly, _base_coefficient, _finite_joined,
                         _sphere_levels)
from .quaternion import ZERO, Quaternion, Sphere, _check_samples, _Value
from .tolerances import EPS_BOUNDARY


class Region(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Shape(enum.Enum):
    TWO_COMPONENTS = "two_components"
    FIGURE_EIGHT = "figure_eight"
    CONNECTED = "connected"


class LemniscateDomain(_Value):
    """The symmetric set U(x0 + y0*S, R) with lemniscate slice boundary."""

    __slots__ = ("x0", "y0", "radius")

    def __init__(self, x0: float, y0: float, radius: float):
        x0, y0, radius = float(x0), float(y0), float(radius)
        require_finite("x0 must be finite", x0)
        require_finite("y0 must be finite", y0)
        require_finite("radius must be finite", radius)
        if y0 < 0.0:
            raise SliceRegError("y0 must be >= 0")
        if radius <= 0.0:
            raise SliceRegError("radius must be > 0")
        self._store(x0, y0, radius)

    @property
    def sphere(self) -> Sphere:
        return Sphere(self.x0, self.y0)

    def classify(self, q: Quaternion) -> Region:
        require_finite("the point must be finite", q.w, q.x, q.y, q.z)
        near, far = _root_distances(q, self.x0, self.y0)
        r, radius = math.sqrt(near) * math.sqrt(far), self.radius
        # |r^2 - R^2| <= EPS_BOUNDARY (1 + R^2), divided through by r + R
        # so that neither square is formed.
        total = r + radius
        if abs(r - radius) <= EPS_BOUNDARY * (1.0 / total
                                              + radius * (radius / total)):
            return Region.BOUNDARY
        return Region.INSIDE if r < radius else Region.OUTSIDE

    def shape(self) -> Shape:
        # EPS_BOUNDARY (1 + y0 + R) in the form that no finite domain
        # overflows (see tolerances.py).
        tol = (2.0 * EPS_BOUNDARY) * (0.5 + 0.5 * self.y0 + 0.5 * self.radius)
        if self.radius < self.y0 - tol:
            return Shape.TWO_COMPONENTS
        if self.radius <= self.y0 + tol:
            return Shape.FIGURE_EIGHT
        return Shape.CONNECTED


class SphericalExpansion(_Value):
    """Expansion coefficients of a polynomial at the sphere through
    `base_point`, x0 + y0*S with x0 = Re q0 and y0 = |Im q0|.

    `coeffs` lists the base-point family (pair n multiplies
    [(q-x0)^2+y0^2]^n and its (q-q0) correction), the one that
    `eval_expansion` sums; `sphere_coeffs`, when present, lists the
    base-point-free family with a bare q correction, the division
    remainders, kept as data.
    """

    __slots__ = ("base_point", "coeffs", "sphere_coeffs")

    def __init__(self, base_point: Quaternion, coeffs: tuple,
                 sphere_coeffs: tuple | None = None):
        self._store(base_point, coeffs, sphere_coeffs)

    @property
    def sphere(self) -> Sphere:
        return Sphere.through(self.base_point)

    def __len__(self):
        return len(self.coeffs)


def expand_at(f: SlicePoly, q0: Quaternion, order: int) -> SphericalExpansion:
    """Coefficients 0..order of the expansion of f at the sphere through q0.

    Divides f repeatedly by the sphere's quadratic (q - x0)^2 + y0^2; the
    n-th remainder C_{2n} + q C_{2n+1} is a level of the base-point-free
    family, and A_{2n} = C_{2n} + q0 C_{2n+1}, A_{2n+1} = C_{2n+1}.  The
    levels are those of `_sphere_levels`, so a coefficient that is not
    finite is refused with SliceRegError, and so is an A_{2n} that
    overflows; no level drops a coefficient that is not exactly zero, and
    the levels past the last quotient are zero.  At a real q0 the
    quadratic is (q - x0)^2 and the result is the classical Taylor
    expansion, with no special casing.  The base-point-free family is
    omitted only when the sphere through q0 is a point
    (`Sphere.is_point`); a thin sphere keeps it.
    """
    if order < 0:
        raise SliceRegError("order must be >= 0")
    sphere = Sphere.through(q0)
    levels = _sphere_levels(f, sphere)
    base, free = [ZERO] * (order + 2), [ZERO] * (order + 2)
    for n, (even, odd, _) in zip(range(0, order + 1, 2), levels):
        # C_2n + q C_2n+1 = (C_2n + q0 C_2n+1) + (q - q0) C_2n+1; the
        # levels are finite, but q0 C_2n+1 can overflow.
        a = _base_coefficient(even, odd, q0)
        require_finite("coefficient is not finite", a.w, a.x, a.y, a.z)
        base[n:n + 2] = a, odd
        free[n:n + 2] = even, odd
    free = None if sphere.is_point else tuple(free[:order + 1])
    return SphericalExpansion(q0, tuple(base[:order + 1]), free)


def expand_pair(f: SlicePoly, sphere: Sphere, q1: Quaternion, q2: Quaternion,
                order: int) -> SphericalExpansion:
    """`expand_at(f, q1, order)`, for a pair q1, q2 of distinct points of
    the given sphere; both coefficient families are present.

    Refused with DegenerateSphere when the sphere through q1 is a point
    (`Sphere.is_point`); the pair is checked as `representation_eval`
    checks its samples.  The record is expand_at's as is: its sphere is
    the one through q1, the sphere the series is exact on.
    """
    if Sphere.through(q1).is_point:
        raise DegenerateSphere("expansion pair needs points off the real "
                               "axis")
    _check_samples(sphere, q1, q2)
    return expand_at(f, q1, order)


def eval_expansion(expansion: SphericalExpansion, q: Quaternion,
                   up_to: int | None = None) -> Quaternion:
    """Partial sum of the base-point family through coefficient index
    `up_to`; defaults to all coefficients, and a negative `up_to` is
    refused.
    The sum runs by Horner in Q = (q - x0)^2 + y0^2, g <- T_n + Q*g with
    T_n = A_2n + (q - q0)*A_2n+1, on the complex halves as
    `polynomial._horner` does, and a result that is not finite is
    refused with SliceRegError.
    """
    coeffs, base_point = expansion.coeffs, expansion.base_point
    correction = q - base_point
    last = len(coeffs) - 1 if up_to is None else up_to
    if up_to is not None and up_to < 0:
        raise SliceRegError(f"up_to={up_to} must be >= 0")
    if last >= len(coeffs):
        raise SliceRegError(f"up_to={last} exceeds available coefficients")
    if last < 0:
        return Quaternion(0.0, 0.0, 0.0, 0.0)
    y0 = base_point.im_norm()
    shifted = q - base_point.w
    quad = shifted * shifted + y0 * y0
    p, r = complex(quad.w, quad.x), complex(quad.y, quad.z)
    pc, rc = p.conjugate(), r.conjugate()
    s, t = (complex(correction.w, correction.x),
            complex(correction.y, correction.z))
    sc, tc = s.conjugate(), t.conjugate()
    # `_horner`'s step, with T_n formed on the halves: `_horner` itself
    # would need every T_n as a Quaternion, one construction each.
    top = last - last % 2
    even = coeffs[top]
    a, b = complex(even.w, even.x), complex(even.y, -even.z)
    if top < last:
        odd = coeffs[last]
        o1, o2 = complex(odd.w, odd.x), complex(odd.y, -odd.z)
        a, b = a + (s * o1 - t * o2), b + (sc * o2 + tc * o1)
    for n in range(top - 2, -1, -2):
        even, odd = coeffs[n], coeffs[n + 1]
        o1, o2 = complex(odd.w, odd.x), complex(odd.y, -odd.z)
        a, b = (complex(even.w, even.x) + (s * o1 - t * o2) + (p * a - r * b),
                complex(even.y, -even.z) + (sc * o2 + tc * o1)
                + (pc * b + rc * a))
    return _finite_joined(a, b)


def radius_of_convergence(coeffs: Sequence[Quaternion]) -> float:
    """Radius R with limsup |a_n|^(1/n) = 1/R.

    Treats the list as the leading window of an infinite sequence and
    estimates the limsup as max |a_n|^(1/n) over the top half of the
    indices; the top half avoids contamination by initial transients.
    Exact zeros add nothing to the maximum, and a window of zeros reads
    as a polynomial (R = inf).  A coefficient that is not finite is
    refused with SliceRegError.
    """
    mags = [abs(c) for c in coeffs]
    require_finite("coefficient is not finite", *mags)
    best = max((mags[n] ** (1.0 / n)
                for n in range(max(len(mags) // 2, 1), len(mags))),
               default=0.0)
    return math.inf if best == 0.0 else 1.0 / best


def modulus_bounds(q: Quaternion, sphere: Sphere) -> tuple[float, float]:
    """Bounds on |q - q0| valid for every q0 on the sphere.

    With r^2 = |(q-x0)^2 + y0^2| the distance lies in
    [sqrt(r^2+y0^2) - y0, sqrt(r^2+y0^2) + y0].  Bounds that are not
    finite, at a q that is not finite or too large, are refused with
    SliceRegError.
    """
    near, far = _root_distances(q, sphere.x0, sphere.y0)
    root = math.hypot(math.sqrt(near) * math.sqrt(far), sphere.y0)
    high = root + sphere.y0
    require_finite("result is not finite", high)
    return root - sphere.y0, high


def _root_distances(q: Quaternion, x0: float,
                    y0: float) -> tuple[float, float]:
    """Distances from q = x + I y to the points x0 +- I y0 of the sphere
    in q's own slice plane; their product is |(q - x0)^2 + y0^2|.

    Both are hypotenuses, so no square is formed and no finite q
    overflows.
    """
    dx, y = q.w - x0, q.im_norm()
    return math.hypot(dx, y - y0), math.hypot(dx, y + y0)


def boundary_parameterization(domain: LemniscateDomain,
                              count: int) -> list[tuple[float, complex, int]]:
    """(theta, z, loop) samples of the slice boundary lemniscate, as
    complex numbers z with |(z - x0)^2 + y0^2| = R^2.

    The roots of (z - x0)^2 = R^2 e^(i theta) - y0^2, in closed form:

      R >= y0:  z - x0 = +-R e^(i theta/2) sqrt(1 - (y0/R)^2 e^(-i theta))
      R <  y0:  z - x0 = +-i y0 sqrt(1 - (R/y0)^2 e^(i theta))

    Both radicands have Re >= 0, so the principal root is continuous in
    theta.  For R >= y0 the + chain ends where the - chain starts, and the
    two form the single loop 0; for R < y0 each sign closes by itself
    around one conjugate sphere point (loops 0 and 1).  Consecutive points
    of a loop are adjacent on the curve.  R^2 is never formed, so no
    finite radius overflows.

    Every root, and every product that forms it, is at most
    sqrt(R^2 + y0^2) in modulus up to a few roundings, so one scalar
    bounds every point before any is built: a domain whose bound is not
    finite is refused with SliceRegError.
    """
    if count < 8:
        raise SliceRegError("need at least 8 boundary points")
    if count % 2:
        raise SliceRegError("boundary point count must be even")
    half = count // 2
    x0, y0, radius = domain.x0, domain.y0, domain.radius
    # 2^-40 leaves room for the roundings that form a point.
    require_finite("boundary extent |x0| + sqrt(R^2 + y0^2) is not finite",
                   (abs(x0) + math.hypot(radius, y0)) * (1.0 + 2.0 ** -40))
    thetas = [2.0 * math.pi * m / half for m in range(half)]
    if radius >= y0:
        ratio, second = (y0 / radius) ** 2, 0
        roots = [radius * cmath.exp(0.5j * t)
                 * cmath.sqrt(1.0 - ratio * cmath.exp(-1j * t))
                 for t in thetas]
    else:
        ratio, second = (radius / y0) ** 2, 1
        roots = [1j * y0 * cmath.sqrt(1.0 - ratio * cmath.exp(1j * t))
                 for t in thetas]
    return ([(t, x0 + r, 0) for t, r in zip(thetas, roots)]
            + [(t, x0 - r, second) for t, r in zip(thetas, roots)])
