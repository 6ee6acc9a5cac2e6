"""Quaternion arithmetic and slice geometry.

Quaternions are immutable four-component values with the Hamilton product
(i*i = j*j = k*k = -1, i*j = k = -j*i, j*k = i, k*i = j).  A Quaternion
is a slotted value: each component is coerced with float() once, at
construction, and never reassigned.  It equals another Quaternion with
equal components and nothing else, and hashes, pickles and copies by its
components.  The library's records (Sphere here, the reports and
expansions elsewhere) share that behaviour through the `_Value` base.
Every function in this module is pure, so concurrent use needs no
coordination.

A "slice plane" L_I is the copy of the complex plane spanned by 1 and an
imaginary unit I (a quaternion with zero real part and unit modulus).
`split_complex` / `embed_complex` translate between quaternions in a slice
plane and ordinary Python complex numbers, which is how the quadrature and
Jacobian code does its in-plane arithmetic.
"""

import math
from collections.abc import Callable
from operator import attrgetter

from .errors import DegenerateSphere, SliceRegError, require_finite
from .tolerances import (EPS_IN_PLANE, EPS_SAMPLE_ON_SPHERE, EPS_UNIT,
                          EPS_ZERO, guard)


class _Value:
    """Base of the immutable slotted values: a subclass lists its fields
    in __slots__ and stores them once, in __init__, with `_store`.
    Equality (same class, equal fields), hashing, pickling, copying and
    positional `match` patterns follow from the fields, and the repr is
    keyword style, Name(field=value, ...).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        # Not methods: the getter maps an instance to its field tuple, and
        # the slot descriptors' setters store past __setattr__.
        fields = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name: bare value
            fields = staticmethod(lambda value, one=fields: (one(value),))
        cls._fields = fields
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)

    def _store(self, *values):
        for store, value in zip(self._setters, values):
            store(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Quaternion(_Value):
    """A quaternion w + x*i + y*j + z*k with float components."""

    __slots__ = ("w", "x", "y", "z")

    def __new__(cls, w, x, y, z):
        self = _new_object(cls)
        _set_w(self, float(w))
        _set_x(self, float(x))
        _set_y(self, float(y))
        _set_z(self, float(z))
        return self

    def to_list(self) -> list:
        return [self.w, self.x, self.y, self.z]

    @property
    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        # hypot scales internally, so moduli above ~1e154 do not overflow.
        return math.hypot(self.w, self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        modulus = abs(self)
        if modulus <= guard(EPS_ZERO, modulus) and modulus < math.inf:
            raise ZeroDivisionError("quaternion inverse of (near-)zero value")
        # conj(q s) s / |q s|^2 with the exact scale s of `_unit_scale` of
        # the largest component: |q|^2 is never formed, a q whose modulus
        # overflows is inverted, and in range it is conj(q)/|q|^2 exactly.
        s = _unit_scale(max(map(abs, (self.w, self.x, self.y, self.z))))
        q = self * s
        n2 = q.norm_sq()
        return Quaternion(q.w / n2 * s, -q.x / n2 * s, -q.y / n2 * s,
                          -q.z / n2 * s)

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # Only reals reach here; they commute with everything.
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


_new_object = object.__new__
# Bound once at module level: a Quaternion is built in every inner loop.
_set_w, _set_x, _set_y, _set_z = Quaternion._setters

ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
UNIT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
UNIT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
UNIT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _unit_scale(modulus: float) -> float:
    """The power of two s with s * modulus in [0.5, 1) (for a subnormal
    modulus below 2^-1024, the largest finite one, 2^1023).  Scaling by it
    is exact, and squares of scaled components neither overflow nor
    underflow."""
    return 2.0 ** -max(math.frexp(modulus)[1], -1023)


# Any quaternion with Re = 0 and modulus 1 squares to -1 and may serve as
# the imaginary unit of a slice plane.
def is_imaginary_unit(u: Quaternion) -> bool:
    return abs(u.w) <= EPS_UNIT and abs(u.norm_sq() - 1.0) <= 2.0 * EPS_UNIT


def require_imaginary_unit(u: Quaternion) -> Quaternion:
    if not is_imaginary_unit(u):
        raise SliceRegError(
            f"{u!r} is not an imaginary unit (need Re=0, |u|=1)")
    return u


class Sphere(_Value):
    """The 2-sphere x0 + y0*S of quaternions with Re = x0, |Im| = y0.

    y0 = 0 is allowed and denotes the degenerate sphere {x0}; so does
    any y0 up to EPS_ZERO (1 + |x0|) (see `is_point`).
    """

    __slots__ = ("x0", "y0")

    def __init__(self, x0: float, y0: float):
        x0, y0 = float(x0), float(y0)
        require_finite("sphere x0 must be finite", x0)
        require_finite("sphere y0 must be finite", y0)
        if y0 < 0.0:
            raise SliceRegError("sphere radius y0 must be >= 0")
        self._store(x0, y0)

    @property
    def is_point(self) -> bool:
        """Whether the sphere is the single real point {x0}: the one rule
        for a degenerate sphere, y0 <= EPS_ZERO (1 + |x0|).  Every other
        sphere, however thin, is read as given."""
        return self.y0 <= guard(EPS_ZERO, abs(self.x0))

    def point(self, unit: Quaternion) -> Quaternion:
        """The point x0 + unit*y0 of the sphere in the plane of `unit`."""
        require_imaginary_unit(unit)
        return Quaternion(self.x0, unit.x * self.y0, unit.y * self.y0,
                          unit.z * self.y0)

    def contains(self, q: Quaternion, eps: float) -> bool:
        tol = guard(eps, abs(self.x0), self.y0)
        return (abs(q.w - self.x0) <= tol
                and abs(q.im_norm() - self.y0) <= tol)

    @classmethod
    def through(cls, q: Quaternion) -> "Sphere":
        return cls(q.w, q.im_norm())


def slice_decompose(q: Quaternion) -> tuple[float, float, Quaternion]:
    """Write q = x + I*y with y >= 0 and I an imaginary unit.

    q is real when the sphere through it is a point (`Sphere.is_point`).
    Real points have no preferred plane; they report I = i by convention.
    """
    y = q.im_norm()
    if Sphere(q.w, y).is_point:
        return q.w, 0.0, UNIT_I
    return q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y)


def same_slice_plane(p: Quaternion, q: Quaternion) -> bool:
    """True when p and q lie in a common plane L_I.

    Holds when either point is real (`Sphere.is_point`, as in
    `slice_decompose`) or the two imaginary parts are parallel (cross
    product negligible); anti-parallel counts, since L_I and L_{-I} are
    the same plane.  The imaginary parts are scaled by `_unit_scale`
    first, exactly, so the test reads the same at every scale and its
    products neither overflow nor underflow.
    """
    np_, nq = p.im_norm(), q.im_norm()
    if Sphere(p.w, np_).is_point or Sphere(q.w, nq).is_point:
        return True
    sp, sq = _unit_scale(np_), _unit_scale(nq)
    px, py, pz = p.x * sp, p.y * sp, p.z * sp
    qx, qy, qz = q.x * sq, q.y * sq, q.z * sq
    cross = math.hypot(py * qz - pz * qy, pz * qx - px * qz,
                       px * qy - py * qx)
    return cross <= EPS_UNIT * (np_ * sp) * (nq * sq)


def sigma_distance(p: Quaternion, q: Quaternion) -> float:
    """The sigma metric: Euclidean within a slice plane, omega across planes.

    omega(q, p) adds the two imaginary magnitudes instead of subtracting
    the imaginary parts, so sigma(p, q) >= |p - q| always.  No square is
    formed, so sigma(2^k p, 2^k q) = 2^k sigma(p, q) while the result is
    in range; a result that is not finite is refused with SliceRegError.
    """
    if same_slice_plane(p, q):
        distance = abs(q - p)
    else:
        distance = math.hypot(q.w - p.w, q.im_norm() + p.im_norm())
    require_finite("result is not finite", distance)
    return distance


def orthogonal_unit(unit: Quaternion) -> Quaternion:
    """A deterministic imaginary unit J with J perpendicular to `unit`.

    Gram-Schmidt against the fixed candidate list (i, j, k); the first
    candidate that is safely non-parallel wins, so the choice is stable.
    """
    require_imaginary_unit(unit)
    for cand in (UNIT_I, UNIT_J, UNIT_K):
        dot = cand.x * unit.x + cand.y * unit.y + cand.z * unit.z
        v = cand - unit * dot
        n = v.im_norm()
        if n > 0.5:
            return v / n
    raise AssertionError("unreachable: some basis unit is non-parallel")


def split_complex(q: Quaternion, unit_i: Quaternion,
                  unit_j: Quaternion) -> tuple[complex, complex]:
    """Components (F, G) of q = F + G*J over the orthonormal basis
    (1, I, J, IJ), with F and G returned as complex numbers in L_I.
    Components that are not finite, of a q that is not or that overflow
    in the projections, are refused with SliceRegError."""
    f, g = _splitter(unit_i, unit_j)(q)
    require_finite("result is not finite", f.real, f.imag, g.real, g.imag)
    return f, g


def _splitter(unit_i: Quaternion, unit_j: Quaternion
              ) -> Callable[[Quaternion], tuple[complex, complex]]:
    """`split_complex` over one basis (1, I, J, IJ): IJ is formed once,
    so splitting many quaternions builds no further Quaternion."""
    ij = unit_i * unit_j
    ix, iy, iz = unit_i.x, unit_i.y, unit_i.z
    jx, jy, jz = unit_j.x, unit_j.y, unit_j.z
    kx, ky, kz = ij.x, ij.y, ij.z

    def split(q: Quaternion) -> tuple[complex, complex]:
        x, y, z = q.x, q.y, q.z
        return (complex(q.w, x * ix + y * iy + z * iz),
                complex(x * jx + y * jy + z * jz, x * kx + y * ky + z * kz))

    return split


def _plane_complex(q: Quaternion, unit: Quaternion) -> complex:
    """The complex image Re q + i <Im q, unit> of q's projection onto the
    slice plane of `unit`; callers decide whether q is close enough to
    that plane (`off_plane`)."""
    return complex(q.w, q.x * unit.x + q.y * unit.y + q.z * unit.z)


def embed_complex(c: complex, unit: Quaternion) -> Quaternion:
    """The quaternion Re(c) + Im(c)*unit in the slice plane of `unit`.
    A component that is not finite is refused with SliceRegError."""
    x, y, z = c.imag * unit.x, c.imag * unit.y, c.imag * unit.z
    require_finite("result is not finite", c.real, x, y, z)
    return Quaternion(c.real, x, y, z)


def off_plane(q: Quaternion, unit: Quaternion) -> bool:
    """Whether q lies farther than EPS_IN_PLANE (1 + |q|) from the slice
    plane spanned by 1 and `unit`.  Both sides are taken in units of s,
    the exact power of two `_unit_scale` of q's largest component, so
    neither the distance nor |q| overflows for a finite q, and in range
    the verdict is that of the unscaled test.  No Quaternion is built."""
    s = _unit_scale(max(abs(q.w), abs(q.x), abs(q.y), abs(q.z)))
    w, x, y, z = q.w * s, q.x * s, q.y * s, q.z * s
    c1 = x * unit.x + y * unit.y + z * unit.z
    distance = math.hypot(x - c1 * unit.x, y - c1 * unit.y, z - c1 * unit.z)
    return distance > EPS_IN_PLANE * (s + math.hypot(w, x, y, z))


def _check_samples(sphere: Sphere, q1: Quaternion, q2: Quaternion,
                   *more: Quaternion) -> None:
    """Refuse samples q1, q2 within EPS_ZERO (1 + |q1| + |q2|) of each
    other, and any of q1, q2 (and a point q) not on `sphere`."""
    if abs(q1 - q2) <= guard(EPS_ZERO, abs(q1), abs(q2)):
        raise DegenerateSphere("need two distinct points on the sphere")
    for name, pt in zip(("q1", "q2", "q"), (q1, q2, *more)):
        if not sphere.contains(pt, eps=EPS_SAMPLE_ON_SPHERE):
            raise SliceRegError(f"{name}={pt!r} does not lie on {sphere!r}")


def representation_eval(q1: Quaternion, f1: Quaternion,
                        q2: Quaternion, f2: Quaternion,
                        sphere: Sphere, q: Quaternion) -> Quaternion:
    """Value at q of the affine sphere restriction through (q1,f1), (q2,f2).

    Reconstructs a slice-regular function on the whole sphere from its
    values at two distinct points of the sphere; the result does not
    depend on which pair was sampled.  A result that is not finite is
    refused with SliceRegError.

    The value is unchanged when q1, q2 and q are scaled by one real, so
    they are scaled by the exact power of two `_unit_scale` of their
    largest component first: q2 - q1 then never overflows.
    """
    _check_samples(sphere, q1, q2, q)
    s = _unit_scale(max(abs(c) for p in (q1, q2, q) for c in p.to_list()))
    q1, q2, q = q1 * s, q2 * s, q * s
    d = (q2 - q1).inverse()
    value = d * (q1.conj() * f1 - q2.conj() * f2) + q * (d * (f2 - f1))
    require_finite("result is not finite", value.w, value.x, value.y,
                   value.z)
    return value
