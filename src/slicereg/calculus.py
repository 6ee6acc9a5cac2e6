"""Closed-form first-order calculus for slice-regular polynomials.

Every directional derivative at q0 is an affine expression in the first
two expansion coefficients at the sphere through q0:

    d/dt f(q0 + t v) = v * A1 + (q0 v - v conj(q0)) * A2

with A1 the odd and A2 the even coefficient of the first quadratic level.
The classical Cullen (slice) and spherical derivatives, the real-point
limit, and the complex Jacobian in adapted coordinates all follow from
this single formula.
"""

from dataclasses import dataclass

from .errors import NonUnitDirection, RealPoint
from .polynomial import SlicePoly
from .quaternion import (ONE, Quaternion, Sphere, orthogonal_unit,
                         slice_decompose, split_complex)
from .tolerances import EPS_DIRECTION, FD_STEP, zero_guard


@dataclass(frozen=True, slots=True)
class DerivativeBundle:
    """The two expansion coefficients that determine all first derivatives
    of the source polynomial at base_point."""

    base_point: Quaternion
    first: Quaternion    # R_{q0} f (conj q0)
    second: Quaternion   # R_{conj q0} R_{q0} f (q0)


def derivative_bundle(f: SlicePoly, q0: Quaternion) -> DerivativeBundle:
    _, r1 = f.remainder_div(q0)
    first, r2 = r1.remainder_div(q0.conj())
    return DerivativeBundle(q0, first, r2(q0))


def directional_derivative(f: SlicePoly, q0: Quaternion,
                           v: Quaternion) -> Quaternion:
    """Derivative of f at q0 along the unit direction v.

    Rejects non-unit directions rather than normalizing: a silently
    rescaled direction would hide bugs in the caller.
    """
    if abs(abs(v) - 1.0) > EPS_DIRECTION:
        raise NonUnitDirection(f"|v| = {abs(v)!r}, need a unit vector")
    b = derivative_bundle(f, q0)
    return v * b.first + (q0 * v - v * q0.conj()) * b.second


def partial_derivative(f: SlicePoly, q0: Quaternion, axis: int) -> Quaternion:
    """Partial derivative along basis element `axis` of (1, I, J, IJ),
    with I the slice unit of q0 and J the deterministic orthogonal unit."""
    if axis not in (0, 1, 2, 3):
        raise ValueError("axis must be 0..3")
    _, _, unit_i = slice_decompose(q0)
    unit_j = orthogonal_unit(unit_i)
    basis = (ONE, unit_i, unit_j, unit_i * unit_j)
    e = basis[axis]
    b = derivative_bundle(f, q0)
    return e * b.first + (q0 * e - e * q0.conj()) * b.second


def cullen_derivative(f: SlicePoly, q0: Quaternion) -> Quaternion:
    """The Cullen (slice) derivative: the in-plane complex derivative,
    equal to the remainder cofactor evaluated at q0 itself."""
    _, r1 = f.remainder_div(q0)
    return r1(q0)


def spherical_derivative(f: SlicePoly, q0: Quaternion) -> Quaternion:
    """C1 of the remainder C0 + q*C1 of f by the quadratic of the sphere
    through q0; undefined on the real axis.

    Since f = C0 + q*C1 on the sphere, this is the odd bundle coefficient
    and (1/2) Im(q0)^(-1) (f(q0) - f(conj q0)), without dividing by Im(q0).
    """
    if q0.im_norm() <= zero_guard(abs(q0)):
        raise RealPoint("spherical derivative needs Im(q0) != 0")
    _, rest = f.quadratic_div(Sphere.through(q0))
    return rest.coefficient(1)


def real_point_derivative(f: SlicePoly, x: float) -> Quaternion:
    """The full quaternionic derivative at a real point: the limit of
    h^(-1) [f(x+h) - f(x)] exists for h from any direction and equals the
    Cullen derivative."""
    return cullen_derivative(f, Quaternion(x, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class ComplexJacobian:
    """Jacobian of f at q0 in the adapted complex coordinates.

    With z1 = x0 + I x1, z2 = x2 + I x3 along the basis (1, I, J, IJ) and
    f = f1 + f2 J, `holo` holds d(f1,f2)/d(z1,z2) and `antiholo` the
    derivatives in conj(z1), conj(z2).  For slice-regular sources the
    antiholomorphic block vanishes (up to finite-difference noise).
    """

    slice_unit: Quaternion
    normal_unit: Quaternion
    holo: tuple        # ((df1/dz1, df1/dz2), (df2/dz1, df2/dz2))
    antiholo: tuple    # same layout, conjugate derivatives


def complex_jacobian(f: SlicePoly, q0: Quaternion,
                     fd_step: float = FD_STEP) -> ComplexJacobian:
    """Closed-form holomorphic block plus an independent finite-difference
    antiholomorphic block.

    The holomorphic entries come from the split R_{q0} f = R1 + R2*J
    evaluated at q0 and conj(q0).  The antiholomorphic entries are
    computed only by central differences of f along the four real axes,
    so they genuinely test (rather than assume) in-plane holomorphy.
    """
    _, _, unit_i = slice_decompose(q0)
    unit_j = orthogonal_unit(unit_i)
    _, remainder = f.remainder_div(q0)
    r1_q0, r2_q0 = split_complex(remainder(q0), unit_i, unit_j)
    r1_qc, r2_qc = split_complex(remainder(q0.conj()), unit_i, unit_j)
    holo = ((r1_q0, -r2_qc.conjugate()),
            (r2_q0, r1_qc.conjugate()))

    basis = (ONE, unit_i, unit_j, unit_i * unit_j)
    partials = []
    for e in basis:
        step = e * fd_step
        diff = (f(q0 + step) - f(q0 - step)) / (2.0 * fd_step)
        partials.append(split_complex(diff, unit_i, unit_j))
    antiholo = tuple(
        (0.5 * (partials[0][comp] + 1j * partials[1][comp]),
         0.5 * (partials[2][comp] + 1j * partials[3][comp]))
        for comp in (0, 1))
    return ComplexJacobian(unit_i, unit_j, holo, antiholo)


def finite_difference_directional(f: SlicePoly, q0: Quaternion, v: Quaternion,
                                  step: float = FD_STEP) -> Quaternion:
    """Central finite-difference derivative along v; the independent
    cross-check for the closed form."""
    return (f(q0 + v * step) - f(q0 - v * step)) / (2.0 * step)
