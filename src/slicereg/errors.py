"""Domain-specific exceptions, and the one rule for values that are not
finite.

Plain quaternion inversion of (near-)zero raises the builtin
ZeroDivisionError; everything geometry- or contract-related gets its own
class below so callers (and the CLI) can report the failure by name.  A
value that is infinite or NaN is refused where it is computed, by
`require_finite`, and so is finite arithmetic past the float range that
Python refuses with OverflowError.
"""

from math import isfinite


class SliceRegError(ValueError):
    """Base class for domain errors raised by this package."""


def require_finite(message: str, *values: float) -> None:
    """Refuse with SliceRegError(message) unless every value is finite;
    NaN fails the test."""
    for value in values:
        if not isfinite(value):
            raise SliceRegError(message)


class DegenerateSphere(SliceRegError):
    """Two-point constructions need distinct points on the sphere."""


class PinchedContour(SliceRegError):
    """Lemniscate contour requested at the figure-eight radius R = y0."""


class PointOnContour(SliceRegError):
    """Evaluation point coincides with a quadrature node."""


class NonUnitDirection(SliceRegError):
    """Directional derivative requires a unit direction vector."""


class RealPoint(SliceRegError):
    """Operation undefined at points on the real axis."""


class ZeroFunction(SliceRegError):
    """Multiplicity of the identically-zero function is undefined."""
