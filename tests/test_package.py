"""The package's public surface, each check in a fresh interpreter: the
names resolve on first use, so an interpreter that has already imported a
submodule would hide a broken lookup."""

import ast
import os
import subprocess
import sys

import pytest

import slicereg

# The public names, by the submodule that defines them.
PUBLIC = {
    "calculus": ["ComplexJacobian", "complex_jacobian", "cullen_derivative",
                 "directional_derivative", "partial_derivative",
                 "spherical_derivative"],
    "contour": ["CoefficientBoundReport", "Contour", "cauchy_eval",
                "circle_contour", "coefficient_bound_report",
                "coefficient_integral", "lemniscate_contour",
                "slice_integral"],
    "errors": ["DegenerateSphere", "KernelOffSlice", "NonUnitDirection",
               "PinchedContour", "PointOnContour", "RealPoint",
               "SliceRegError", "ZeroFunction"],
    "expansion": ["LemniscateDomain", "Region", "Shape", "SphericalExpansion",
                  "boundary_parameterization", "eval_expansion", "expand_at",
                  "expand_pair", "modulus_bounds", "radius_of_convergence"],
    "polynomial": ["SlicePoly"],
    "quaternion": ["ONE", "UNIT_I", "UNIT_J", "UNIT_K", "ZERO", "Quaternion",
                   "Sphere", "embed_complex",
                   "is_imaginary_unit", "orthogonal_unit",
                   "representation_eval", "sigma_distance",
                   "slice_decompose", "split_complex"],
    "zeros": ["ExpansionMultiplicity", "MultiplicityReport", "analyze_sphere",
              "classical_multiplicity", "expansion_multiplicity"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def fresh(code):
    """The literal that `code` prints as its last line, run in a new
    interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(slicereg.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_all_lists_the_public_names():
    assert len(NAMES) == 52
    assert fresh("import slicereg; print(sorted(slicereg.__all__))") == NAMES


def test_each_name_is_its_submodules_object():
    code = f"""import importlib, slicereg
public = {PUBLIC!r}
values = {{n: getattr(slicereg, n) for names in public.values()
          for n in names}}
print(sorted(n for m, names in public.items() for n in names
             if values[n] is getattr(
                 importlib.import_module("slicereg." + m), n)))"""
    assert fresh(code) == NAMES


@pytest.mark.parametrize("module, name", [("expansion", "expand_at"),
                                          ("quaternion", "UNIT_J"),
                                          ("errors", "SliceRegError")])
def test_from_import_in_a_fresh_interpreter(module, name):
    code = (f"from slicereg import {name}\n"
            f"import slicereg.{module} as home\n"
            f"print({name} is home.{name})")
    assert fresh(code) is True


def test_star_import_binds_all():
    code = """import slicereg
scope = {}
exec("from slicereg import *", scope)
print([sorted(set(scope) - {"__builtins__"}) == sorted(slicereg.__all__),
       set(slicereg.__all__) <= set(dir(slicereg))])"""
    assert fresh(code) == [True, True]


def test_dir_before_any_use():
    listed = fresh("import slicereg; print(dir(slicereg))")
    assert set(NAMES) <= set(listed)
    assert {"__version__", "tolerances", "zeros"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    code = """import slicereg
caught = []
for name in ("no_such_name", "_Value", "cli_main"):
    try:
        getattr(slicereg, name)
    except AttributeError as exc:
        caught.append(str(exc))
print(caught)"""
    assert fresh(code) == [
        f"module 'slicereg' has no attribute {name!r}"
        for name in ("no_such_name", "_Value", "cli_main")]


def test_submodule_attribute_without_prior_import():
    code = "import slicereg; print(slicereg.tolerances.FD_STEP)"
    from slicereg.tolerances import FD_STEP
    assert fresh(code) == FD_STEP
