"""Polynomials sum(q^n * a_n) with quaternion coefficients on the right.

The coefficient order matters everywhere: powers of the variable stand on
the left, coefficients on the right, and the product of two such
polynomials is the coefficient convolution c_n = sum a_k b_{n-k} (the
star product), not pointwise multiplication of values.

Coefficients are stored densely, lowest power first.  Trailing
coefficients that are exactly zero are dropped on construction, and no
other: a coefficient is dropped by its value, never by comparison with
the others, so the degree is the same at every scale of f.  A
coefficient that is infinite or NaN is refused with SliceRegError.

The star product runs as four complex convolutions.  Each coefficient is
split once as A1 + A2 j, A1 = w + x i and A2 = y + z i, and j B = conj(B) j
for a complex B, so (A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj B2) +
(A1 B2 + A2 conj B1) j: each c_n is four complex dot products over k, and
no quaternion is built per term.  Against b reversed, only one operand's
window moves with n and the other is passed whole, so each c_n cuts the
lists of one operand only.

Horner evaluation and `remainder_div` run on the same halves: with
q = p + r j, each step g <- a + q g is four complex products on the pair
(A, conj B) of g = A + B j, and only the results become quaternions.

Division by a sphere's quadratic (q - x0)^2 + y0^2, whose coefficients
are real, runs the same real recurrence on each of the four components;
one loop steps all four together, with no component mixed into another.
One generator, `_sphere_levels`, divides f and then each quotient again,
in place on four float lists (w, x, y, z): all the repeated divisions of
f share one set of lists, allocate no quaternion per step, and read each
remainder's two entries straight from the lists, so a level builds at
most its two remainder quaternions.
"""

import math
from collections.abc import Iterable
from itertools import chain
from operator import mul

from .errors import SliceRegError, require_finite
from .quaternion import ONE, ZERO, Quaternion, Sphere, _Value


def _as_coefficient(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"cannot use {value!r} as a coefficient")


def _halves(coeffs) -> tuple[list, list]:
    """The coefficients w + x*i + (y + z*i)*j as two complex lists,
    [w + x*i, ...] and [y + z*i, ...]."""
    return ([complex(c.w, c.x) for c in coeffs],
            [complex(c.y, c.z) for c in coeffs])


def _joined(a: complex, b: complex) -> Quaternion:
    """The quaternion a + conj(b)*j.  Its k component is 0.0 - b.imag,
    not -b.imag: an exact cancellation in it then reads +0.0, as in the
    Hamilton product."""
    return Quaternion(a.real, a.imag, b.real, 0.0 - b.imag)


def _finite_joined(a: complex, b: complex) -> Quaternion:
    """`_joined(a, b)` for the value a kernel returns, refused with
    SliceRegError when a component is infinite or NaN."""
    require_finite("result is not finite", a.real, a.imag, b.real, b.imag)
    return _joined(a, b)


def _horner(coeffs: tuple, q: Quaternion,
            partials: list | None = None) -> Quaternion:
    """a_0 + q*(a_1 + q*(a_2 + ...)) for nonempty coefficients a_n.

    With q = p + r*j, a step g <- a + q*g of g = A + B*j is
    A <- a1 + (p*A - r*conj B), conj B <- conj a2 + (conj p*conj B +
    conj r*A); conj B is carried, so no conjugate is taken per step.  The
    partial sums g_{d-1} = a_d, ..., g_0 are appended to `partials` when
    it is a list.  A value that is not finite is refused with
    SliceRegError; once a component is infinite or NaN, every later
    partial sum has one, so the one check covers them all.
    """
    p, r = complex(q.w, q.x), complex(q.y, q.z)
    pc, rc = complex(q.w, -q.x), complex(q.y, -q.z)
    top = coeffs[-1]
    a, b = complex(top.w, top.x), complex(top.y, -top.z)
    for c in coeffs[-2::-1]:
        if partials is not None:
            partials.append(_joined(a, b))
        a, b = (complex(c.w, c.x) + (p * a - r * b),
                complex(c.y, -c.z) + (pc * b + rc * a))
    return _finite_joined(a, b)


def _base_coefficient(even: Quaternion, odd: Quaternion,
                      q0: Quaternion) -> Quaternion:
    """A_2n = C_2n + q0 C_2n+1 of the level C_2n + q C_2n+1: the Hamilton
    product q0 C_2n+1 is written out inside the sum, the float operations
    of `even + q0 * odd` in the same order, so one Quaternion is built.
    The product can overflow; each caller refuses that as it documents.
    """
    w, x, y, z = q0.w, q0.x, q0.y, q0.z
    ow, ox, oy, oz = odd.w, odd.x, odd.y, odd.z
    return Quaternion(even.w + (w * ow - x * ox - y * oy - z * oz),
                      even.x + (w * ox + x * ow + y * oz - z * oy),
                      even.y + (w * oy - x * oz + y * ow + z * ox),
                      even.z + (w * oz + x * oy - y * ox + z * ow))


def _sphere_levels(f: "SlicePoly", sphere: Sphere):
    """Divide f by the sphere's quadratic, then each quotient again: yield
    for every level its remainder b + q*c as (b, c), and a function that
    returns copies of the level's quotient as four component lists
    (w, x, y, z), valid until the next level is divided.

    Level k divides entries lo = 2k..top of one set of component lists in
    place; afterwards its remainder is at lo and lo + 1 and its quotient
    at lo + 2..top.  The quadratic is real, so no component reads
    another, and one loop over n steps all four: it carries the two live
    entries (hi, mid) of each component in locals, forms n - 1 once per
    step, and stores each entry once, when it is final.  Each component
    does the float operations of the plain recurrence in their order, so
    every value is the same.  2 x0 and x0^2 + y0^2 are formed once per
    call.

    The remainder is kept as SlicePoly keeps coefficients: each modulus is
    the hypot of an entry's four floats, a trailing exact zero is ZERO,
    with no Quaternion built for it, and one that is not finite is
    refused.  A quotient entry that is not finite makes the remainder so
    (inf * 0 is NaN) and is refused with it.  The first level is f's own
    remainder, zero for a zero f; the levels end with the first empty
    quotient.
    """
    w, x, y, z = parts = [[c.w for c in f.coeffs], [c.x for c in f.coeffs],
                          [c.y for c in f.coeffs], [c.z for c in f.coeffs]]
    two_x0 = 2.0 * sphere.x0
    const = sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0
    lo, top = 0, len(f.coeffs) - 1

    def quotient():
        return [v[lo:top + 1] for v in parts]

    while True:
        if top - lo > 1:
            wh, xh, yh, zh = w[top], x[top], y[top], z[top]
            wm, xm, ym, zm = w[top - 1], x[top - 1], y[top - 1], z[top - 1]
            for n in range(top - 1, lo, -1):
                m = n - 1
                wh, wm = wm + wh * two_x0, w[m] - wh * const
                xh, xm = xm + xh * two_x0, x[m] - xh * const
                yh, ym = ym + yh * two_x0, y[m] - yh * const
                zh, zm = zm + zh * two_x0, z[m] - zh * const
                w[n] = wh
                x[n] = xh
                y[n] = yh
                z[n] = zh
            w[lo], x[lo], y[lo], z[lo] = wm, xm, ym, zm
        odd = lo + 1
        mb = math.hypot(w[lo], x[lo], y[lo], z[lo]) if lo <= top else 0.0
        mc = math.hypot(w[odd], x[odd], y[odd], z[odd]) if odd <= top else 0.0
        require_finite("coefficient is not finite", mb, mc)
        c = Quaternion(w[odd], x[odd], y[odd], z[odd]) if mc else ZERO
        b = Quaternion(w[lo], x[lo], y[lo], z[lo]) if mb or mc else ZERO
        lo += 2
        yield b, c, quotient
        if top < lo:
            return


def _trimmed(coeffs: list) -> "SlicePoly":
    """A SlicePoly of coefficients with no trailing zero.  They come as
    a list: a tuple built from an iterator grows by reallocation, which
    raised the peak memory of repeated divisions."""
    f = object.__new__(SlicePoly)
    f._store(tuple(coeffs))
    return f


def _from_parts(parts: list) -> "SlicePoly":
    """The SlicePoly of component lists (w, x, y, z), no trailing zero."""
    return _trimmed(list(map(Quaternion, *parts)))


class SlicePoly(_Value):
    """A polynomial with right quaternion coefficients, lowest power first.

    `f * g` is the star product, `f(q)` evaluates by left-nested Horner,
    and `f * c` / `c * f` scale every coefficient on the right / left.
    Instances are immutable values of their coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        items = [_as_coefficient(c) for c in coeffs]
        mags = [abs(c) for c in items]
        require_finite("coefficient is not finite", *mags)
        while mags and not mags[-1]:
            mags.pop()
        self._store(tuple(items[:len(mags)]))

    # -- constructors -------------------------------------------------

    @classmethod
    def linear_factor(cls, root: Quaternion) -> "SlicePoly":
        """The factor q - root."""
        return cls((-root, ONE))

    @classmethod
    def sphere_quadratic(cls, sphere: Sphere) -> "SlicePoly":
        """(q - x0)^2 + y0^2, the real-coefficient polynomial vanishing
        exactly on the sphere."""
        return cls((sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0,
                    -2.0 * sphere.x0, 1.0))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def max_coeff_norm(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __repr__(self):
        return f"SlicePoly({[c.to_list() for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SlicePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for n, c in enumerate(b):
            out[n] = out[n] + c
        return SlicePoly(out)

    def __sub__(self, other):
        if not isinstance(other, SlicePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SlicePoly([-c for c in self.coeffs])

    def __mul__(self, other):
        """Star product; quaternion/real operands scale on the right.

        With b reversed, c_n pairs a_k with the entry of b_{n-k} for
        k = lo..hi-1, and only one operand's window moves with n: all of
        a meets b from entry len(b) - 1 - n while n < len(b) - 1, then a
        from k = n - len(b) + 1 meets all of b.  `map` stops at the
        shorter list, so each of the four complex dot products of c_n is
        one C-level pass over k = lo..hi-1 in ascending order."""
        if isinstance(other, (Quaternion, int, float)):
            other = SlicePoly((other,))
        if not isinstance(other, SlicePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SlicePoly()
        a1, a2 = _halves(a)
        b1, b2 = _halves(b[::-1])  # entry len(b)-1-m holds b_m
        b1c = list(map(complex.conjugate, b1))
        b2c = list(map(complex.conjugate, b2))
        windows = chain(((a1, a2, b1[s:], b2[s:], b1c[s:], b2c[s:])
                         for s in range(len(b) - 1, 0, -1)),
                        ((a1[lo:], a2[lo:], b1, b2, b1c, b2c)
                         for lo in range(len(a))))
        out = []
        for x1, x2, y1, y2, y1c, y2c in windows:
            c1 = sum(map(mul, x1, y1)) - sum(map(mul, x2, y2c))
            c2 = sum(map(mul, x1, y2)) + sum(map(mul, x2, y1c))
            out.append(Quaternion(c1.real, c1.imag, c2.real, c2.imag))
        return SlicePoly(out)

    def __rmul__(self, other):
        if isinstance(other, (Quaternion, int, float)):
            return SlicePoly((other,)) * self
        return NotImplemented

    def __pow__(self, n: int) -> "SlicePoly":
        if n < 0:
            raise SliceRegError("negative star powers are not defined")
        out = SlicePoly((1.0,))
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and division ----------------------------------------

    def __call__(self, q: Quaternion) -> Quaternion:
        """Value sum(q^n a_n) by left-nested Horner:
        a_0 + q*(a_1 + q*(a_2 + ...)).  A value that is not finite is
        refused with SliceRegError."""
        if not self.coeffs:
            return Quaternion(0.0, 0.0, 0.0, 0.0)
        return _horner(self.coeffs, q)

    def remainder_div(self, q0: Quaternion) -> tuple[Quaternion, "SlicePoly"]:
        """Split f = f(q0) + (q - q0) * R by backward synthetic division.

        Returns (value, R).  The recursion g_{d-1} = a_d,
        g_{n-1} = a_n + q0 * g_n makes the identity exact coefficientwise:
        the g_n are the partial sums of the Horner evaluation of f(q0),
        whose last step gives the value.  A value that is not finite is
        refused with SliceRegError, and so is a coefficient of R whose
        modulus is not: its four components can be finite, and the value
        too, while their hypot overflows.  R needs no more of the
        constructor: the partial sums are quaternions already, and the top
        one is f's leading coefficient, which is not zero.
        """
        if not self.coeffs:
            return Quaternion(0.0, 0.0, 0.0, 0.0), SlicePoly()
        partials = []
        value = _horner(self.coeffs, q0, partials)
        partials.reverse()
        require_finite("coefficient is not finite", *map(abs, partials))
        return value, _trimmed(partials)

    def quadratic_div(self, sphere: Sphere) -> tuple["SlicePoly", "SlicePoly"]:
        """Divide by (q - x0)^2 + y0^2, returning (quotient, remainder).

        The divisor has real coefficients, so it is central and ordinary
        long division applies, one real component at a time, in place on
        four float lists; the remainder b + q*c is f restricted to the
        sphere.  This is the first level of `_sphere_levels`: trailing
        remainder coefficients that are exactly zero are dropped, as on
        construction, and a coefficient that is not finite is refused.
        """
        b, c, quotient = next(_sphere_levels(self, sphere))
        return (_from_parts(quotient()),
                _trimmed([v for v in (b, c) if v is not ZERO]))
