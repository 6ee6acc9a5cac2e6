"""Every refusal in the library is a named SliceRegError.

A structural check reads each `raise` in src/ and resolves the class it
raises; the few builtin exceptions that are not refusals of an input are
listed with their reason.  The calls below are refusals of finite but
out-of-range arguments that used to raise a bare ValueError.
"""

import ast
import builtins
import cmath
import importlib
import math
import pathlib

import pytest

import slicereg
from slicereg import (UNIT_I, UNIT_J, LemniscateDomain, Quaternion,
                      SlicePoly, SliceRegError, Sphere,
                      boundary_parameterization, cauchy_eval, circle_contour,
                      coefficient_integral, eval_expansion, expand_at,
                      orthogonal_unit, representation_eval)

# (module, exception class) raised in src/ that is not a SliceRegError.
ALLOWED = {
    ("quaternion", "AttributeError"):
        "immutability: a value refuses assignment and deletion",
    ("__init__", "AttributeError"): "the module __getattr__, unknown name",
    ("quaternion", "AssertionError"): "orthogonal_unit's unreachable branch",
    ("quaternion", "ZeroDivisionError"):
        "inverse of a (near-)zero quaternion, as errors.py documents",
    ("polynomial", "TypeError"): "a coefficient that is not a number",
    ("cli", "TypeError"): "the JSON serializer given an unknown type",
}


def _raised_classes():
    """(module, class name, class) for each `raise` of a class in src/."""
    for path in sorted(pathlib.Path(slicereg.__file__).parent.glob("*.py")):
        name = path.stem
        if name == "__main__":  # runs the CLI on import; raises nothing
            continue
        module = importlib.import_module(
            "slicereg" if name == "__init__" else f"slicereg.{name}")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert isinstance(exc, ast.Name), ast.dump(node)
            cls = vars(module).get(exc.id) or getattr(builtins, exc.id)
            yield name, exc.id, cls


def test_every_raise_is_a_named_refusal_or_allowed():
    outside = {(name, cls_name) for name, cls_name, cls in _raised_classes()
               if not issubclass(cls, SliceRegError)}
    assert outside == set(ALLOWED)


SPHERE = Sphere(0.0, 1.0)
NOT_A_UNIT = Quaternion(0, 2, 0, 0)
EXPANSION = expand_at(SlicePoly([1.0, 0.0, 1.0]), UNIT_I, 2)
REAL_EXPANSION = expand_at(SlicePoly([1.0]), Quaternion(1, 0, 0, 0), 2)
CONTOUR = circle_contour(0.0, 2.0, UNIT_I, 16)


@pytest.mark.parametrize("call, message", [
    (lambda: SPHERE.point(NOT_A_UNIT), "is not an imaginary unit"),
    (lambda: orthogonal_unit(NOT_A_UNIT), "is not an imaginary unit"),
    (lambda: representation_eval(UNIT_I, UNIT_I, -UNIT_I, UNIT_I, SPHERE,
                                 Quaternion(0, 0, 2, 0)),
     "q=.* does not lie on"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, form="x"), "unknown form"),
    (lambda: eval_expansion(REAL_EXPANSION, UNIT_J, form="pair"),
     "no base-point-free coefficients"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, up_to=3),
     "up_to=3 exceeds available coefficients"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, up_to=-3),
     "up_to=-3 must be >= 0"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, up_to=-1, form="pair"),
     "up_to=-1 must be >= 0"),
    (lambda: boundary_parameterization(LemniscateDomain(0, 1, 2), 6),
     "need at least 8 boundary points"),
    (lambda: boundary_parameterization(LemniscateDomain(0, 1, 2), 9),
     "boundary point count must be even"),
    (lambda: LemniscateDomain(0, -1, 2), "y0 must be >= 0"),
    (lambda: circle_contour(0.0, 0.0, UNIT_I, 16), "radius must be > 0"),
    (lambda: circle_contour(0.0, 1.0, UNIT_I, 8), "need at least 16 nodes"),
    (lambda: circle_contour(0.0, 1.0, NOT_A_UNIT, 16),
     "is not an imaginary unit"),
    (lambda: coefficient_integral(SlicePoly([1.0]), UNIT_I, -1, CONTOUR),
     "coefficient index must be >= 0"),
    (lambda: coefficient_integral(SlicePoly([1.0]), UNIT_J, 0, CONTOUR),
     "must lie in the contour's slice plane"),
], ids=["sphere-point", "orthogonal-unit", "samples-off-sphere",
        "eval-form", "eval-no-pair", "eval-up-to", "eval-up-to-negative",
        "eval-up-to-negative-pair", "boundary-count",
        "boundary-odd", "lemniscate-y0", "circle-radius", "circle-nodes",
        "circle-unit", "integral-index", "integral-plane"])
def test_out_of_range_arguments_are_named_refusals(call, message):
    with pytest.raises(SliceRegError, match=message):
        call()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("point", [
    Quaternion(NAN, 0, 0, 0), Quaternion(0, NAN, 0, 0),
    Quaternion(0, 0, NAN, 0), Quaternion(INF, 0, 0, 0),
    Quaternion(0, -INF, 0, 0), Quaternion(0, 0, 0, INF),
    Quaternion(INF, NAN, 0, 0),
], ids=["nan-w", "nan-x", "nan-y", "inf-w", "inf-x", "inf-z", "inf-nan"])
@pytest.mark.parametrize("index", [None, 0, 1, 2])
def test_non_finite_point_refused_before_node_passes(point, index):
    # A NaN point used to come back as Quaternion(nan, nan, nan, nan),
    # an infinite one as PointOnContour from the node guard; a NaN off
    # the plane passed the plane test.  Both are refused up front.
    f = SlicePoly([1.0, 2.0, UNIT_J])
    with pytest.raises(SliceRegError, match="the point must be finite"):
        if index is None:
            cauchy_eval(f, point, CONTOUR)
        else:
            coefficient_integral(f, point, index, CONTOUR)


@pytest.mark.parametrize("center, radius", [
    (0.0, 1e308), (1e308, 1e308), (0.0, INF), (0.0, NAN),
    (NAN, 1.0), (INF, 1.0), (-INF, 1.0),
], ids=["radius-1e308", "both-1e308", "radius-inf",
        "radius-nan", "center-nan", "center-inf", "center-minus-inf"])
def test_circle_contour_that_overflows_refused(center, radius):
    # circle_contour(0, 1e308, i, 16) used to return total_length = inf.
    with pytest.raises(SliceRegError, match="finite center, radius"):
        circle_contour(center, radius, UNIT_I, 16)


@pytest.mark.parametrize("center, radius", [(-1e300, 1e307), (0.0, 2.8e307),
                                            (-1.5e308, 2.5e307)])
def test_large_finite_circle_contour_kept(center, radius):
    # Length 2 pi R and every node stay finite up to R ~ 2.86e307.
    contour = circle_contour(center, radius, UNIT_I, 16)
    assert math.isfinite(contour.total_length)
    assert all(map(cmath.isfinite, contour.points + contour.weights))
