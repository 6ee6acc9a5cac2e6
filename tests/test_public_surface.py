"""Every public name and every public attribute of the core values and
records is read.

A name or attribute that nothing in the package reads is a second way to
reach a quantity, or a helper kept for tests; this keeps such aliases
from lingering or coming back.  The names are those of
`slicereg.__all__`; the attributes are the fields (`__slots__`) and the
public methods and properties defined in a class body.

For Quaternion, Sphere and SlicePoly one counts as read when a module of
the package loads it outside its own definition.  The few that the
paper defines but the package does not call are listed with their
reason.

The records' field names recur across classes (`x0`, `sphere`,
`spherical_mult`), so a read anywhere would pass for a read of any of
them.  Each record instead lists every public attribute, exactly, with
either the package function that reads it through that class, written
`module.function` and checked to load the name, or the reason it is
kept without one.  `NAMES` does the same for every name of `__all__`;
a reason stands only for a name that no module of the package loads.
"""

import ast
import re
from pathlib import Path

import pytest

import slicereg

PACKAGE = Path(slicereg.__file__).parent

CLASSES = {"Quaternion": "quaternion.py", "Sphere": "quaternion.py",
           "SlicePoly": "polynomial.py"}

ALLOWED = {
    "im": "Im q, the imaginary part the paper's slice decomposition names",
    "linear_factor": "the paper's factor q - p of a zero p",
    "sphere_quadratic": "the paper's (q - x0)^2 + y0^2 of a sphere",
    "quadratic_div": "the paper's division by that quadratic, a timed "
                     "layer of the benchmark",
}


_FIELD_EVIDENCE = ("the Cauchy estimate's evidence, which item 13 of "
                   "the roadmap certifies")
_PERFBENCH_ONLY = ("read by the benchmark only; expand_pair goes with "
                   "roadmap item 14, expansion_multiplicity and its record "
                   "with item 16")
_PARTIAL = ("the paper's partial derivatives of a slice-regular function "
            "(roadmap item 17)")

NAMES = {
    # calculus
    "ComplexJacobian": "calculus.complex_jacobian",
    "complex_jacobian": "cli.cmd_jacobian",
    "cullen_derivative": _PARTIAL,
    "directional_derivative": "cli.cmd_deriv",
    "partial_derivative": _PARTIAL,
    "spherical_derivative": _PARTIAL,
    # contour
    "CoefficientBoundReport": "contour.coefficient_bound_report",
    "Contour": "contour.circle_contour",
    "cauchy_eval": "the paper's slicewise Cauchy formula",
    "circle_contour": "cli.cmd_verify_cauchy",
    "coefficient_bound_report": "cli.cmd_verify_cauchy",
    "coefficient_integral": "cli.cmd_verify_cauchy",
    "lemniscate_contour": "contour.coefficient_bound_report",
    # errors
    "DegenerateSphere": "quaternion._check_samples",
    "NonUnitDirection": "calculus.directional_derivative",
    "PinchedContour": "contour.lemniscate_contour",
    "PointOnContour": "contour._guard_distance",
    "RealPoint": "calculus.spherical_derivative",
    "SliceRegError": "cli.main",
    "ZeroFunction": "zeros._threshold",
    # expansion
    "LemniscateDomain": "cli.cmd_lemniscate",
    "Region": "expansion.classify",
    "Shape": "contour.lemniscate_contour",
    "SphericalExpansion": "expansion.expand_at",
    "boundary_parameterization": "cli.cmd_lemniscate",
    "eval_expansion": "the paper's series sum of P_n(q) A_n at a sphere",
    "expand_at": "cli.cmd_expand",
    "expand_pair": _PERFBENCH_ONLY,
    "modulus_bounds": "U(x0+y0*S, R) as a Euclidean neighbourhood of the "
                      "sphere, the paper's point (roadmap item 7)",
    "radius_of_convergence": "the R of the paper's convergence set "
                             "U(x0+y0*S, R) (roadmap item 7)",
    # polynomial
    "SlicePoly": "cli.read_poly",
    # quaternion
    "ONE": "polynomial.linear_factor",
    "UNIT_I": "quaternion.orthogonal_unit",
    "UNIT_J": "quaternion.orthogonal_unit",
    "UNIT_K": "quaternion.orthogonal_unit",
    "ZERO": "polynomial.quadratic_div",
    "Quaternion": "cli.parse_quaternion_arg",
    "Sphere": "cli.parse_sphere_arg",
    "embed_complex": "contour._integrate_split",
    "is_imaginary_unit": "quaternion.require_imaginary_unit",
    "orthogonal_unit": "contour._integrate_split",
    "representation_eval": "the paper's representation formula on a sphere",
    "sigma_distance": "the sigma-balls on which the paper's classical "
                      "series converges (roadmap item 7)",
    "slice_decompose": "cli.cmd_expand",
    "split_complex": "the paper's splitting lemma, f = F + G*J on L_I",
    # zeros
    "ExpansionMultiplicity": "zeros.expansion_multiplicity",
    "MultiplicityReport": "zeros.analyze_sphere",
    "analyze_sphere": "cli.cmd_mult",
    "classical_multiplicity": "the classical multiplicity the paper "
                              "contrasts with (roadmap item 15)",
    "expansion_multiplicity": _PERFBENCH_ONLY,
}

RECORDS = {
    ("expansion.py", "LemniscateDomain"): {
        "x0": "contour.coefficient_bound_report",
        "y0": "contour.coefficient_bound_report",
        "radius": "contour.coefficient_bound_report",
        "classify": "membership in the natural convergence set "
                    "U(x0+y0*S, R) that the paper's expansion converges on",
        "shape": "contour.lemniscate_contour",
    },
    ("expansion.py", "SphericalExpansion"): {
        "base_point": "expansion.eval_expansion",
        "coeffs": "expansion.eval_expansion",
        "sphere_coeffs": "cli.cmd_expand",
    },
    ("contour.py", "Contour"): {
        "unit": "contour.coefficient_integral",
        "points": "contour.coefficient_integral",
        "weights": "contour.coefficient_integral",
        "total_length": "contour.coefficient_bound_report",
    },
    ("contour.py", "CoefficientBoundReport"): {
        "domain": "the report's subject, the domain the bound was checked on",
        "constant": _FIELD_EVIDENCE,
        "boundary_max": _FIELD_EVIDENCE,
        "boundary_length": _FIELD_EVIDENCE,
        "coeff_mags": "cli.cmd_verify_cauchy",
        "bounds": "cli.cmd_verify_cauchy",
        "margins": "cli.cmd_verify_cauchy",
        "min_margin": "cli.cmd_verify_cauchy",
    },
    ("calculus.py", "ComplexJacobian"): {
        "slice_unit": "cli.cmd_jacobian",
        "normal_unit": "cli.cmd_jacobian",
        "holo": "cli.cmd_jacobian",
        "antiholo": "cli.cmd_jacobian",
    },
    ("zeros.py", "MultiplicityReport"): {
        "sphere": "the verdict's subject",
        "spherical_mult": "cli.cmd_mult",
        "isolated_point": "cli.cmd_mult",
        "isolated_mult": "cli.cmd_mult",
        "factors": "cli.cmd_mult",
        "residual": "cli.cmd_mult",
    },
    ("zeros.py", "ExpansionMultiplicity"): {
        "spherical_mult": _PERFBENCH_ONLY,
        "has_isolated": _PERFBENCH_ONLY,
        "isolated_point": _PERFBENCH_ONLY,
    },
}


def _public(filename, cls):
    """The public attributes defined in the body of class `cls`."""
    tree = ast.parse((PACKAGE / filename).read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    names = []
    for node in body.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif (isinstance(node, ast.Assign)
              and node.targets[0].id == "__slots__"):
            names += [elt.value for elt in node.value.elts]
    return {name for name in names if not name.startswith("_")}


def _defined():
    """name -> class for each public attribute of the classes above."""
    return {name: cls for cls, filename in CLASSES.items()
            for name in _public(filename, cls)}


def _read(node, inside=()):
    """Names loaded under `node`, each outside any function of that name."""
    if isinstance(node, ast.FunctionDef):
        inside = (*inside, node.name)
    names = set()
    if isinstance(node, ast.Attribute) and node.attr not in inside:
        names.add(node.attr)
    elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
          and node.id not in inside):
        names.add(node.id)
    for child in ast.iter_child_nodes(node):
        names |= _read(child, inside)
    return names


def _package_reads():
    """Every name loaded anywhere in the package's modules."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        read |= _read(ast.parse(path.read_text()))
    return read


def test_every_public_attribute_is_read_outside_its_definition():
    defined = _defined()
    read = _package_reads()
    assert len(defined) > 15
    unread = sorted(name for name in defined
                    if name not in read and name not in ALLOWED)
    assert unread == []
    # The list stays short: an entry is a defined name nothing reads.
    assert set(ALLOWED) <= set(defined) - read


def _function(reader):
    """The definition named by `module.function`."""
    module, name = reader.split(".")
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("filename, cls", list(RECORDS))
def test_every_record_attribute_has_its_reader_or_reason(filename, cls):
    entries = RECORDS[filename, cls]
    assert set(entries) == _public(filename, cls)
    for name, entry in entries.items():
        if re.fullmatch(r"\w+\.\w+", entry):
            assert name in _read(_function(entry)), (name, entry)


def _unmet(name, entry, read):
    """Whether `entry` fails to stand for `name`: a reader that does not
    load it, or a reason for a name the package loads."""
    if re.fullmatch(r"\w+\.\w+", entry):
        return name not in _read(_function(entry))
    return name in read


def test_every_public_name_has_its_reader_or_reason():
    assert set(NAMES) == set(slicereg.__all__)
    read = _package_reads()
    assert [name for name, entry in NAMES.items()
            if _unmet(name, entry, read)] == []
