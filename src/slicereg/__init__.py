"""Slice-regular quaternionic polynomials.

Quaternion and polynomial arithmetic, series expansion at spheres,
Cauchy-type contour integrals in slice planes, zero multiplicities, and
closed-form first derivatives.  All values are immutable and all
operations are pure functions, so everything here is safe for unrestricted
concurrent use.
"""

from .calculus import (ComplexJacobian, DerivativeBundle, complex_jacobian,
                       cullen_derivative, derivative_bundle,
                       directional_derivative, partial_derivative,
                       real_point_derivative, spherical_derivative)
from .contour import (CoefficientBoundReport, Contour, cauchy_eval,
                      circle_contour, coefficient_bound_report,
                      coefficient_integral, lemniscate_contour,
                      slice_integral)
from .errors import (DegenerateSphere, KernelOffSlice, NonUnitDirection,
                     PinchedContour, PointOnContour, RealPoint, SliceRegError,
                     ZeroFunction)
from .expansion import (LemniscateDomain, Region, Shape, SphericalExpansion,
                        boundary_parameterization, boundary_points,
                        eval_expansion, expand_at, expand_pair,
                        modulus_bounds, radius_of_convergence)
from .polynomial import SlicePoly
from .quaternion import (ONE, UNIT_I, UNIT_J, UNIT_K, ZERO, Quaternion,
                         Sphere, coordinate_extract, embed_complex,
                         is_imaginary_unit, orthogonal_unit,
                         representation_eval, sigma_distance,
                         slice_decompose, split_complex)
from .zeros import (ExpansionMultiplicity, IsolatedZeros, MultiplicityReport,
                    SphereZero, analyze_sphere, classical_multiplicity,
                    expansion_multiplicity, isolated_multiplicity,
                    spherical_multiplicity, zero_on_sphere)

__version__ = "0.1.0"
