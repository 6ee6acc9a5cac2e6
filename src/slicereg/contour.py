"""Noncommutative contour integrals in a slice plane.

The integral of g(s) ds f(s) along a curve in L_I is defined by splitting
f = F + G*J with J perpendicular to I: the Cauchy-type kernels lie in
L_I, so the whole computation reduces to two classical complex contour
integrals, one against F and one against G, with the J reattached on the
right afterwards.

Quadrature nodes carry tangent weights w_m ~ z'(t_m) dt, so every
integral is the plain weighted sum  sum_m c_m f(z_m)  with c_m = g(z_m) w_m.
Circle contours use exact tangents (spectral accuracy); lemniscate points
are the closed-form root chains of `boundary_parameterization`, taken as
lists, differentiated by central differences, which is second order in
the node count.

Each coefficient is split once, a_n = alpha_n + beta_n*J (the splitting
lemma), so F = sum z^n alpha_n and G = sum z^n beta_n are complex
polynomials; one splitter per call forms J and I*J once, so a call
builds the same few Quaternions at every degree.  Both integrals are
read off the same power moments mu_n = sum_m c_m z_m^n:
sum_n alpha_n mu_n  and  sum_n beta_n mu_n.  Each moment is one pass
over the nodes, and sums over nodes are accumulated pairwise in node
order, so results are reproducible bit for bit.

Cauchy's formula is the index-0 coefficient integral, whose pole guard
reads the kernel's own differences s - z0.  From index 1 on, the
sphere's quadratic is the product Q(s) = (s - z0)(s - conj z0) of the
differences both pole guards read, so each kernel value is within a few
roundings of the exact kernel at its node, on thin loops too, where
|Q| is far below the y0^2 that (s - x0)^2 + y0^2 would cancel.  A
lemniscate contour is refused exactly when its domain's `shape()` is
the figure-eight.
"""

import cmath
import math
from collections.abc import Callable
from itertools import repeat
from operator import add, mul, sub, truediv

from .errors import (PinchedContour, PointOnContour, SliceRegError,
                     require_finite)
from .expansion import LemniscateDomain, Shape, _root_chains, expand_at
from .polynomial import SlicePoly
from .quaternion import (Quaternion, _plane_complex, _splitter, _Value,
                         embed_complex, off_plane, orthogonal_unit,
                         require_imaginary_unit)
from .tolerances import BOUND_SAMPLES, EPS_NODE, LOOP_RESOLUTION, guard


def _pairwise_sum(values: list) -> complex:
    """Deterministic pairwise summation (order fixed by the node order):
    neighbours are paired level by level, an odd last value carried up.
    Four or fewer partial sums are added in the same tree, written out."""
    work = values
    while len(work) > 4:
        pairs = iter(work)  # map draws both operands from it: neighbours
        nxt = list(map(add, pairs, pairs))
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    count = len(work)
    if count == 4:
        return (work[0] + work[1]) + (work[2] + work[3])
    if count == 3:
        return (work[0] + work[1]) + work[2]
    if count == 2:
        return work[0] + work[1]
    return work[0] if count else 0j


class Contour(_Value):
    """A closed quadrature curve in one slice plane.

    `points` and `weights` are stored as in-plane complex numbers;
    `embed_complex` gives their quaternions.  `total_length` is the sum
    of the weight moduli.  A length that is not finite is refused; a
    weight that is not finite makes it so.
    """

    __slots__ = ("unit", "points", "weights")

    def __init__(self, unit: Quaternion, points: tuple, weights: tuple):
        require_imaginary_unit(unit)
        if len(points) != len(weights):
            raise SliceRegError(f"{len(points)} points but {len(weights)} "
                                "weights: every node needs one weight")
        if not points:
            raise SliceRegError("a contour needs at least one node")
        self._store(unit, points, weights)
        require_finite("contour length is not finite", self.total_length)

    @property
    def total_length(self) -> float:
        return sum(map(abs, self.weights))

    def __len__(self):
        return len(self.points)


def circle_contour(center: float, radius: float, unit: Quaternion,
                   count: int) -> Contour:
    """Equispaced nodes on the circle of the given real center; weights are
    the exact tangents times the parameter step.  A contour whose center,
    radius or length is not finite is refused."""
    require_imaginary_unit(unit)
    if radius <= 0.0:
        raise SliceRegError("radius must be > 0")
    if count < 16:
        raise SliceRegError("need at least 16 nodes")
    # |point| <= |center| + radius and the length is 2 pi radius, so two
    # scalars bound every node and the length before any is built.
    require_finite("circle contour needs a finite center, radius and length",
                   abs(center) + radius, math.tau * radius)
    step = 2.0 * math.pi / count
    points, weights = [], []
    for m in range(count):
        rot = cmath.exp(1j * step * m)
        points.append(center + radius * rot)
        weights.append(1j * radius * rot * step)
    return Contour(unit, tuple(points), tuple(weights))


def lemniscate_contour(domain: LemniscateDomain, unit: Quaternion,
                       count: int) -> Contour:
    """Quadrature nodes on the boundary lemniscate of `domain`.

    Weights are central differences (z_{m+1} - z_{m-1})/2 taken cyclically
    within each loop; both loops are included when R < y0.  Refuses the
    figure-eight `shape()`, R = y0, where the boundary is not smooth.
    """
    require_imaginary_unit(unit)
    if domain.shape() is Shape.FIGURE_EIGHT:
        raise PinchedContour("boundary degenerates to a figure-eight at R = y0")
    plus, minus, second = _root_chains(domain, count)[1:]
    points = plus + minus
    # One loop in sample order, or the two chains, each closed by itself.
    weights = []
    for zs in (plus, minus) if second else (points,):
        weights += map(truediv, map(sub, zs[1:] + zs[:1], zs[-1:] + zs[:-1]),
                       repeat(2.0))
    return Contour(unit, tuple(points), tuple(weights))


def _split_values(f: SlicePoly, unit: Quaternion
                  ) -> Callable[[complex], tuple[complex, complex]]:
    """z -> (F(z), G(z)) with f(z) = F(z) + G(z)*J on the plane of `unit`,
    J = orthogonal_unit(unit); F and G are evaluated by complex Horner."""
    split = _splitter(unit, orthogonal_unit(unit))
    pairs = list(map(split, reversed(f.coeffs)))

    def values(z: complex) -> tuple[complex, complex]:
        acc_f = acc_g = 0j
        for alpha, beta in pairs:
            acc_f = acc_f * z + alpha
            acc_g = acc_g * z + beta
        return acc_f, acc_g

    return values


# 1/(2*pi*I) multiplies from the left; it lives in L_I, so it acts on
# both complex components as division by 2*pi*i.
_CAUCHY_SCALE = 1.0 / (2.0j * math.pi)


def _integrate_split(factors: list, f: SlicePoly,
                     contour: Contour) -> Quaternion:
    """1/(2 pi I) times sum_m c_m f(z_m) over the nodes z_m, from the
    weighted kernel values c_m = k(z_m) w_m in node order and the power
    moments.  A result whose modulus is not finite is refused: every
    integral ends here, so a node, weight or moment that overflowed is
    caught once."""
    unit = contour.unit
    unit_j = orthogonal_unit(unit)
    sum_f = sum_g = 0j
    terms = factors
    for n, (alpha, beta) in enumerate(map(_splitter(unit, unit_j), f.coeffs)):
        if n:
            terms = list(map(mul, terms, contour.points))
        moment = _pairwise_sum(terms)
        sum_f += alpha * moment
        sum_g += beta * moment
    result = (embed_complex(_CAUCHY_SCALE * sum_f, unit)
              + embed_complex(_CAUCHY_SCALE * sum_g, unit) * unit_j)
    require_finite("result is not finite", abs(result))
    return result


def _guard_distance(distances, z0: complex, what: str) -> None:
    """Refuse a node within EPS_NODE (1 + |z0|) of the pole, z0 or its
    conjugate, from the distances |s - pole| over the nodes s."""
    if min(distances) <= guard(EPS_NODE, abs(z0)):
        raise PointOnContour(f"{what} coincides with a quadrature node")


def cauchy_eval(f: SlicePoly, z: Quaternion, contour: Contour) -> Quaternion:
    """Reproduce f(z) from boundary data via the slicewise Cauchy formula:
    the index-0 `coefficient_integral`, so z must lie strictly inside the
    contour in its slice plane.
    """
    return coefficient_integral(f, z, 0, contour)


def coefficient_integral(f: SlicePoly, q0: Quaternion, index: int,
                         contour: Contour) -> Quaternion:
    """Expansion coefficient of f at the sphere through q0, by quadrature.

    Integrates f against 1/((s-q0) Q(s)^n) for even index 2n and against
    1/Q(s)^(n+1) for odd index 2n+1, Q(s) = (s-x0)^2+y0^2; agrees with
    the algebraic coefficients from `expand_at`.  In the plane, with z0
    the complex image of q0, Q(s) = (s - z0)(s - conj z0) is formed as
    that product of the two differences the pole guards read.  q0 must
    lie inside the contour, in its plane, and from index 1 on its
    conjugate sphere point too; in the lower half of the plane q0's
    complex image has y0 < 0.  A q0 with a component that is not finite
    is refused, and so is a node distance past the float range or a Q(s)
    that could pass it.
    """
    if index < 0:
        raise SliceRegError("coefficient index must be >= 0")
    require_finite("the point must be finite", q0.w, q0.x, q0.y, q0.z)
    unit = contour.unit
    if off_plane(q0, unit):
        raise SliceRegError("the point must lie in the contour's slice plane")
    z0 = _plane_complex(q0, unit)
    points, weights = contour.points, contour.weights
    powers = (index + 1) // 2
    # abs of a finite complex number past the float range raises
    # OverflowError; a product would pass on inf and drop the node, so Q
    # is formed only once 2 |s - z0| |s - conj z0| is finite at every
    # node s: no component of Q(s) exceeds the product of the moduli, and
    # the 2 keeps complex division's denominator, up to sqrt(2) |Q(s)|,
    # in range.
    try:
        diffs = list(map(sub, points, repeat(z0)))
        if powers:
            dists = list(map(abs, diffs))
            _guard_distance(dists, z0, "sphere point")
            conj = list(map(sub, points, repeat(z0.conjugate())))
            dists_conj = list(map(abs, conj))
            _guard_distance(dists_conj, z0, "conjugate sphere point")
            require_finite("result is not finite",
                           2.0 * max(map(mul, dists, dists_conj)))
            del dists, dists_conj
            quads = list(map(mul, diffs, conj))
            del conj
        else:
            _guard_distance(map(abs, diffs), z0, "sphere point")
        factors = weights if index % 2 else list(map(truediv, weights, diffs))
        del diffs  # one node list fewer alive from here on
        for _ in range(powers):
            factors = list(map(truediv, factors, quads))
    except OverflowError:
        raise SliceRegError("result is not finite") from None
    return _integrate_split(factors, f, contour)


class CoefficientBoundReport(_Value):
    """Cauchy-estimate check: |A_n| <= C * max|f| / R^n for n <= order."""

    __slots__ = ("domain", "constant", "boundary_max", "boundary_length",
                 "coeff_mags", "bounds", "margins")

    def __init__(self, domain: LemniscateDomain, constant: float,
                 boundary_max: float, boundary_length: float,
                 coeff_mags: tuple, bounds: tuple, margins: tuple):
        self._store(domain, constant, boundary_max, boundary_length,
                    coeff_mags, bounds, margins)

    @property
    def min_margin(self) -> float:
        return min(self.margins)


def coefficient_bound_report(f: SlicePoly, domain: LemniscateDomain,
                             unit: Quaternion,
                             order: int) -> CoefficientBoundReport:
    """Check the coefficient growth bound on the given lemniscate domain.

    The constant is length(boundary slice) / (2 pi (sqrt(R^2+y0^2) - y0)),
    with the lengths of both loops counted when the boundary has two.
    max |f| is taken over BOUND_SAMPLES boundary points, so it is a lower
    bound on the true maximum, and the length is a sum of central
    differences; nothing here shows that the margins still come out
    nonnegative.  `verify-cauchy` tests the margins against the absolute
    EPS_BOUND_MARGIN, so its verdict depends on the scale of f.  A
    maximum, constant, bound or |A_n| that is not finite is refused, as
    is a modulus or power R^n past the float range.

    sqrt(R^2+y0^2) - y0 = R^2 / (sqrt(R^2+y0^2) + y0), the loop radius
    (R^2 / (2 y0) when R << y0), is formed as R * (R / ...), without R^2
    and without cancelling.  A loop too small for the boundary length to
    be known to 1e-3 (see `LOOP_RESOLUTION`) is refused.
    """
    contour = lemniscate_contour(domain, unit, BOUND_SAMPLES)
    x0, y0, radius = domain.x0, domain.y0, domain.radius
    # Quarters of R and y0 keep the sum below the float range; the ratio
    # is the same.
    loop = radius * ((0.25 * radius)
                     / (math.hypot(0.25 * radius, 0.25 * y0) + 0.25 * y0))
    if loop < guard(LOOP_RESOLUTION * math.sqrt(BOUND_SAMPLES), abs(x0), y0):
        raise SliceRegError("the lemniscate loops are below floating-point "
                            "resolution: their length is not known")
    length = contour.total_length
    constant = length / (2.0 * math.pi * loop)
    q0 = embed_complex(complex(domain.x0, y0), unit)
    mags = tuple(abs(c) for c in expand_at(f, q0, order).coeffs)
    # abs of a finite complex number or R^n past the float range raises
    # OverflowError, and R^n that underflows to 0 ZeroDivisionError.
    try:
        boundary_max = max(math.hypot(abs(comp_f), abs(comp_g))
                           for comp_f, comp_g
                           in map(_split_values(f, unit), contour.points))
        bounds = tuple(constant * boundary_max / radius ** n
                       for n in range(len(mags)))
    except (OverflowError, ZeroDivisionError):
        raise SliceRegError("result is not finite") from None
    require_finite("result is not finite", boundary_max, constant, *bounds,
                   *mags)
    margins = tuple(b - m for b, m in zip(bounds, mags))
    return CoefficientBoundReport(domain, constant, boundary_max, length,
                                  mags, bounds, margins)
