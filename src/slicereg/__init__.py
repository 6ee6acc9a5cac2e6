"""Slice-regular quaternionic polynomials.

Quaternion and polynomial arithmetic, series expansion at spheres,
Cauchy-type contour integrals in slice planes, zero multiplicities, and
closed-form first derivatives.  All values are immutable and all
operations are pure functions, so everything here is safe for unrestricted
concurrent use.

Submodules load on first use: `import slicereg` runs none of them, and
`slicereg.expand_at` (or `from slicereg import expand_at`) loads only
`slicereg.expansion` and what it imports.
"""

__version__ = "0.1.0"

# Each submodule reachable as an attribute, with the public names it
# defines; the one table behind __all__, dir() and lazy resolution.
_EXPORTS = {
    "calculus": ("ComplexJacobian", "complex_jacobian", "cullen_derivative",
                 "directional_derivative", "partial_derivative",
                 "spherical_derivative"),
    "contour": ("CoefficientBoundReport", "Contour", "cauchy_eval",
                "circle_contour", "coefficient_bound_report",
                "coefficient_integral", "lemniscate_contour",
                "slice_integral"),
    "errors": ("DegenerateSphere", "KernelOffSlice", "NonUnitDirection",
               "PinchedContour", "PointOnContour", "RealPoint",
               "SliceRegError", "ZeroFunction"),
    "expansion": ("LemniscateDomain", "Region", "Shape", "SphericalExpansion",
                  "boundary_parameterization", "eval_expansion", "expand_at",
                  "expand_pair", "modulus_bounds", "radius_of_convergence"),
    "polynomial": ("SlicePoly",),
    "quaternion": ("ONE", "UNIT_I", "UNIT_J", "UNIT_K", "ZERO", "Quaternion",
                   "Sphere", "embed_complex",
                   "is_imaginary_unit", "orthogonal_unit",
                   "representation_eval", "sigma_distance",
                   "slice_decompose", "split_complex"),
    "tolerances": (),
    "zeros": ("ExpansionMultiplicity", "MultiplicityReport", "analyze_sphere",
              "classical_multiplicity", "expansion_multiplicity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """Import the submodule `name`, or the one that defines the public
    `name`; a resolved name is cached here, so this runs once per name."""
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
