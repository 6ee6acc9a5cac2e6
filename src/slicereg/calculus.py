"""Closed-form first-order calculus for slice-regular polynomials.

Two levels of the repeated division of f by the quadratic of the sphere
through q0, with remainders C0 + q*C1 and C2 + q*C3, give A1 = C1 and
A2 = C2 + q0*C3, read off the second level.  Then

    d/dt f(q0 + t e) = e * A1 + (q0 e - e conj(q0)) * A2,

and the Cullen and spherical derivatives and the complex Jacobian in
adapted coordinates all follow from this one formula.
"""

from .errors import NonUnitDirection, RealPoint, SliceRegError
from .polynomial import SlicePoly, _sphere_levels
from .quaternion import (ONE, ZERO, Quaternion, Sphere, _splitter, _Value,
                         orthogonal_unit, slice_decompose)
from .tolerances import EPS_DIRECTION, FD_STEP


class DerivativeBundle(_Value):
    """The two expansion coefficients that determine all first derivatives
    of the source polynomial at base_point: `first` is A1 = C1 and
    `second` is A2 = C2 + base_point*C3, read off the second level."""

    __slots__ = ("base_point", "first", "second")

    def __init__(self, base_point: Quaternion, first: Quaternion,
                 second: Quaternion):
        self._store(base_point, first, second)


def derivative_bundle(f: SlicePoly, q0: Quaternion) -> DerivativeBundle:
    levels = _sphere_levels(f, Sphere.through(q0))
    _, first, _ = next(levels)
    even, odd, _ = next(levels, (ZERO, ZERO, None))
    return DerivativeBundle(q0, first, even + q0 * odd)


def _along(b: DerivativeBundle, e: Quaternion) -> Quaternion:
    q0 = b.base_point
    return e * b.first + (q0 * e - e * q0.conj()) * b.second


def directional_derivative(f: SlicePoly, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f at q0 along the unit direction v.

    Rejects non-unit directions rather than normalizing: a silently
    rescaled direction would hide bugs in the caller.
    """
    if not abs(abs(v) - 1.0) <= EPS_DIRECTION:
        raise NonUnitDirection(f"|v| = {abs(v)!r}, need a unit vector")
    return _along(derivative_bundle(f, q0), v)


def _adapted_basis(q0: Quaternion) -> tuple[Quaternion, ...]:
    """(1, I, J, IJ) with I the slice unit of q0 and J = orthogonal_unit(I)."""
    _, _, unit_i = slice_decompose(q0)
    unit_j = orthogonal_unit(unit_i)
    return ONE, unit_i, unit_j, unit_i * unit_j


def partial_derivative(f: SlicePoly, q0: Quaternion, axis: int) -> Quaternion:
    """Partial derivative along basis element `axis` of (1, I, J, IJ),
    with I the slice unit of q0 and J the deterministic orthogonal unit."""
    if axis not in (0, 1, 2, 3):
        raise SliceRegError("axis must be 0..3")
    return _along(derivative_bundle(f, q0), _adapted_basis(q0)[axis])


def cullen_derivative(f: SlicePoly, q0: Quaternion) -> Quaternion:
    """The Cullen (slice) derivative, the in-plane complex derivative:
    the derivative along 1, A1 + (q0 - conj(q0)) * A2.  At a real q0 it
    is the full quaternionic derivative: the limit of h^(-1) [f(q0+h) -
    f(q0)] exists for h from any direction and equals it."""
    return _along(derivative_bundle(f, q0), ONE)


def spherical_derivative(f: SlicePoly, q0: Quaternion) -> Quaternion:
    """A1 = C1, the q coefficient of f's remainder by the sphere's
    quadratic: (1/2) Im(q0)^(-1) (f(q0) - f(conj q0)), computed without
    dividing by Im(q0).  Undefined on the real axis."""
    if Sphere.through(q0).is_point:
        raise RealPoint("spherical derivative needs Im(q0) != 0")
    return derivative_bundle(f, q0).first


class ComplexJacobian(_Value):
    """Jacobian of f at q0 in the adapted complex coordinates.

    With z1 = x0 + I x1, z2 = x2 + I x3 along the basis (1, I, J, IJ) and
    f = f1 + f2 J, `holo` holds d(f1,f2)/d(z1,z2), laid out as
    ((df1/dz1, df1/dz2), (df2/dz1, df2/dz2)), and `antiholo` the
    derivatives in conj(z1), conj(z2) in the same layout.  For
    slice-regular sources the antiholomorphic block vanishes (up to
    finite-difference noise).
    """

    __slots__ = ("slice_unit", "normal_unit", "holo", "antiholo")

    def __init__(self, slice_unit: Quaternion, normal_unit: Quaternion,
                 holo: tuple, antiholo: tuple):
        self._store(slice_unit, normal_unit, holo, antiholo)


def complex_jacobian(f: SlicePoly, q0: Quaternion,
                     fd_step: float = FD_STEP) -> ComplexJacobian:
    """Closed-form holomorphic block plus an independent finite-difference
    antiholomorphic block.

    The holomorphic entries come from the splits c1 + c2*J of the Cullen
    derivative and s1 + s2*J of A1.  The antiholomorphic entries are
    computed only by central differences of f along the four real axes,
    so they genuinely test (rather than assume) in-plane holomorphy.
    """
    basis = _adapted_basis(q0)
    _, unit_i, unit_j, _ = basis
    bundle = derivative_bundle(f, q0)
    split = _splitter(unit_i, unit_j)
    c1, c2 = split(_along(bundle, ONE))
    s1, s2 = split(bundle.first)
    holo = ((c1, -s2.conjugate()), (c2, s1.conjugate()))

    partials = []
    for e in basis:
        step = e * fd_step
        diff = (f(q0 + step) - f(q0 - step)) / (2.0 * fd_step)
        partials.append(split(diff))
    antiholo = tuple(
        (0.5 * (partials[0][comp] + 1j * partials[1][comp]),
         0.5 * (partials[2][comp] + 1j * partials[3][comp]))
        for comp in (0, 1))
    return ComplexJacobian(unit_i, unit_j, holo, antiholo)
