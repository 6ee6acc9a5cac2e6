"""Polynomials sum(q^n * a_n) with quaternion coefficients on the right.

The coefficient order matters everywhere: powers of the variable stand on
the left, coefficients on the right, and the product of two such
polynomials is the coefficient convolution c_n = sum a_k b_{n-k} (the
star product), not pointwise multiplication of values.

Coefficients are stored densely, lowest power first.  Trailing
coefficients below EPS_COEFF * max |a_n| are trimmed on construction so
that the degree stays stable under the round-trip identities (divide,
then multiply back) and under scaling.
"""

import math
from collections.abc import Iterable

from .quaternion import ONE, Quaternion, Sphere, _Value
from .tolerances import EPS_COEFF


def _as_coefficient(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"cannot use {value!r} as a coefficient")


class SlicePoly(_Value):
    """A polynomial with right quaternion coefficients, lowest power first.

    `f * g` is the star product, `f(q)` evaluates by left-nested Horner,
    and `f * c` / `c * f` scale every coefficient on the right / left.
    Instances are immutable values of their coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        items = [_as_coefficient(c) for c in coeffs]
        if items:
            trim = EPS_COEFF * max(abs(c) for c in items)
            while items and abs(items[-1]) <= trim:
                items.pop()
        self._store(tuple(items))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SlicePoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "SlicePoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "SlicePoly":
        """The monomial q."""
        return cls((0.0, 1.0))

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> Quaternion:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Quaternion(0, 0, 0, 0)

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
        """Star product; quaternion/real operands scale on the right."""
        if isinstance(other, (Quaternion, int, float)):
            other = SlicePoly.constant(other)
        if not isinstance(other, SlicePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SlicePoly.zero()
        out = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (len(a) + len(b) - 1)
        for n, an in enumerate(a):
            for m, bm in enumerate(b):
                out[n + m] = out[n + m] + an * bm
        return SlicePoly(out)

    def __rmul__(self, other):
        if isinstance(other, (Quaternion, int, float)):
            return SlicePoly.constant(other) * self
        return NotImplemented

    def __pow__(self, n: int) -> "SlicePoly":
        if n < 0:
            raise ValueError("negative star powers are not defined")
        out = SlicePoly.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and division ----------------------------------------

    def __call__(self, q: Quaternion) -> Quaternion:
        """Value sum(q^n a_n) by left-nested Horner:
        a_0 + q*(a_1 + q*(a_2 + ...))."""
        if not self.coeffs:
            return Quaternion(0.0, 0.0, 0.0, 0.0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = c + q * acc
        return acc

    def remainder_div(self, q0: Quaternion) -> tuple[Quaternion, "SlicePoly"]:
        """Split f = f(q0) + (q - q0) * R by backward synthetic division.

        Returns (value, R).  The recursion g_{d-1} = a_d,
        g_{n-1} = a_n + q0 * g_n makes the identity exact coefficientwise;
        the value is the same left-nested Horner evaluation as f(q0).
        """
        if not self.coeffs:
            return Quaternion(0.0, 0.0, 0.0, 0.0), SlicePoly.zero()
        g = self.coeffs[-1]
        rem = [g]
        for c in reversed(self.coeffs[1:-1]):
            g = c + q0 * g
            rem.append(g)
        rem.reverse()
        if len(self.coeffs) == 1:
            return self.coeffs[0], SlicePoly.zero()
        value = self.coeffs[0] + q0 * rem[0]
        return value, SlicePoly(rem)

    def quadratic_div(self, sphere: Sphere) -> tuple["SlicePoly", "SlicePoly"]:
        """Divide by (q - x0)^2 + y0^2, returning (quotient, remainder).

        The divisor has real coefficients, so it is central and ordinary
        long division applies; the remainder b + q*c is f restricted to
        the sphere.  Repeated on the quotient, it yields the expansion
        levels at the sphere.
        """
        two_x0 = 2.0 * sphere.x0
        const = sphere.x0 * sphere.x0 + sphere.y0 * sphere.y0
        work = list(self.coeffs)
        d = len(work) - 1
        if d < 2:
            return SlicePoly.zero(), self
        quot = [Quaternion(0.0, 0.0, 0.0, 0.0)] * (d - 1)
        for n in range(d, 1, -1):
            c = work[n]
            quot[n - 2] = c
            work[n - 1] = work[n - 1] + c * two_x0
            work[n - 2] = work[n - 2] - c * const
        return SlicePoly(quot), SlicePoly(work[:2])
