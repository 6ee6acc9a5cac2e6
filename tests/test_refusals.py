"""Every refusal in the library is a named SliceRegError.

A structural check reads each `raise` in src/ and resolves the class it
raises; the few builtin exceptions that are not refusals of an input are
listed with their reason.  Three more read that finiteness is tested by
one rule, that the CLI turns only named refusals into an exit status,
and that no module reads the environment.  The calls below are refusals
of finite but out-of-range arguments that used to raise a bare
ValueError, and of values that are not finite.
"""

import ast
import builtins
import cmath
import enum
import importlib
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import slicereg
from slicereg.quaternion import _Value
from slicereg.tolerances import EPS_ROOT, EPS_ZERO, guard
from slicereg import (UNIT_I, UNIT_J, UNIT_K, Contour, LemniscateDomain,
                      Quaternion, SlicePoly, SliceRegError,
                      Sphere, SphericalExpansion, analyze_sphere,
                      boundary_parameterization, cauchy_eval, circle_contour,
                      classical_multiplicity, coefficient_bound_report,
                      coefficient_integral, complex_jacobian,
                      cullen_derivative, directional_derivative,
                      embed_complex, eval_expansion, expand_at, expand_pair,
                      expansion_multiplicity, is_imaginary_unit,
                      lemniscate_contour, modulus_bounds, orthogonal_unit,
                      partial_derivative, radius_of_convergence,
                      representation_eval, sigma_distance, slice_decompose,
                      spherical_derivative, split_complex)

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


# (module, function) in src/ that tests finiteness itself: the one rule,
# and the CLI's input parsing (exit 2) and output formatting.
FINITE_TESTS = {("errors", "require_finite"), ("cli", "_require_finite"),
                ("cli", "format_float")}

# The exceptions cli.main turns into an exit status; any other exception
# is a fault and shows its traceback.
CLI_CAUGHT = {
    "ParseError": "malformed input, exit 2",
    "SliceRegError": "a named refusal, exit 1",
    "ZeroDivisionError": "inverse of a (near-)zero quaternion, exit 1, as "
                         "errors.py documents",
}


def _sources():
    """(module name, module, parsed source) for each module in src/."""
    for path in sorted(pathlib.Path(slicereg.__file__).parent.glob("*.py")):
        name = path.stem
        if name == "__main__":  # runs the CLI on import; raises nothing
            continue
        module = importlib.import_module(
            "slicereg" if name == "__init__" else f"slicereg.{name}")
        yield name, module, ast.parse(path.read_text())


def _raised_classes():
    """(module, class name, class) for each `raise` of a class in src/."""
    for name, module, tree in _sources():
        for node in ast.walk(tree):
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


def test_finiteness_is_tested_by_the_one_rule():
    # math.isfinite or cmath.isfinite, by attribute or imported name
    found = {(name, func.name) for name, _, tree in _sources()
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if "isfinite" in (getattr(node, "attr", None),
                               getattr(node, "id", None))}
    assert found == FINITE_TESTS


def test_cli_main_catches_only_named_refusals():
    tree = next(tree for name, _, tree in _sources() if name == "cli")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            assert node.type is not None, "a bare except catches everything"
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            caught += [exc.id for exc in types]
    assert sorted(caught) == sorted(CLI_CAUGHT)


def test_no_module_reads_the_environment():
    # The CLI takes its settings from argv only, and the library from its
    # arguments: no os.environ or os.getenv, by attribute or import.
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for name, _, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in reads:
                found.append((name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(name, alias.name) for alias in node.names
                          if alias.name in reads]
    assert found == []


SPHERE = Sphere(0.0, 1.0)
NOT_A_UNIT = Quaternion(0, 2, 0, 0)
EXPANSION = expand_at(SlicePoly([1.0, 0.0, 1.0]), UNIT_I, 2)
CONTOUR = circle_contour(0.0, 2.0, UNIT_I, 16)


@pytest.mark.parametrize("call, message", [
    (lambda: SPHERE.point(NOT_A_UNIT), "is not an imaginary unit"),
    (lambda: orthogonal_unit(NOT_A_UNIT), "is not an imaginary unit"),
    (lambda: representation_eval(UNIT_I, UNIT_I, -UNIT_I, UNIT_I, SPHERE,
                                 Quaternion(0, 0, 2, 0)),
     "q=.* does not lie on"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, up_to=3),
     "up_to=3 exceeds available coefficients"),
    (lambda: eval_expansion(EXPANSION, UNIT_J, up_to=-3),
     "up_to=-3 must be >= 0"),
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
        "eval-up-to", "eval-up-to-negative", "boundary-count",
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


Q_PLUS_2 = SlicePoly([1.0, 2.0])
QSQ_PLUS_1 = SlicePoly([1.0, 0.0, 1.0])
QCUBE = SlicePoly([0.0, 0.0, 0.0, 1.0])


def _nan_node_contour(first):
    points = [2j, -2j, 2 + 0j]
    points.insert(0 if first else 3, complex(NAN, 0.0))
    return Contour(UNIT_I, tuple(points), (1, 1, 1, 1))


@pytest.mark.parametrize("call", [
    lambda: coefficient_integral(
        Q_PLUS_2, UNIT_I, 0,
        lemniscate_contour(LemniscateDomain(0, 1, 1e308), UNIT_I, 16)),
    lambda: Contour(UNIT_I, (1j, -1j), (1e308, 1e308)),
    lambda: cauchy_eval(Q_PLUS_2, Quaternion(0, 0.1, 0, 0),
                        _nan_node_contour(first=True)),
    lambda: cauchy_eval(Q_PLUS_2, Quaternion(0, 0.1, 0, 0),
                        _nan_node_contour(first=False)),
    *(lambda order=order: coefficient_bound_report(
        QSQ_PLUS_1, LemniscateDomain(0, 1, 1e200), UNIT_I, order)
      for order in (0, 1, 2)),
    lambda: coefficient_bound_report(QSQ_PLUS_1,
                                     LemniscateDomain(0, 1, 1.5e308),
                                     UNIT_I, 1),
    lambda: coefficient_bound_report(QSQ_PLUS_1,
                                     LemniscateDomain(1e154, 0, 1e154),
                                     UNIT_I, 1),
    lambda: cauchy_eval(QCUBE, Quaternion(0, 0.1, 0, 0),
                        circle_contour(0, 1e150, UNIT_I, 16)),
    lambda: coefficient_integral(
        QSQ_PLUS_1, Quaternion(1e308, 1.7e308, 0, 0), 1,
        lemniscate_contour(LemniscateDomain(1e308, 1.7e308, 1e-300), UNIT_I,
                           16)),
], ids=["lemniscate-length-inf", "contour-length-inf", "nan-node-first",
        "nan-node-last", "bound-order-0-inf", "bound-order-1-inf",
        "bound-power-overflows", "bound-constant-nan", "bound-abs-overflows",
        "cauchy-moment-overflows", "integral-abs-overflows"])
def test_contour_value_that_is_not_finite_refused(call):
    # Each used to return inf or NaN, or to raise a bare OverflowError
    # from R^n, pow(s - x0, 2) or the modulus of a finite complex number.
    with pytest.raises(SliceRegError, match="is not finite"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: expand_at(SlicePoly([0, Quaternion(1e300, 0, 0, 0)]),
                       Quaternion(1e10, 1, 0, 0), 1),
     "coefficient is not finite"),
    (lambda: directional_derivative(
        SlicePoly([Quaternion(1e-300, 1e308, 1e308, 1.3e154)]),
        Quaternion(1, 1e308, -1e308, 5e-324), UNIT_J),
     "result is not finite"),
    (lambda: cullen_derivative(
        SlicePoly([Quaternion(0, 1e154, 5e-324, 1e154),
                   Quaternion(5e-324, 1, 1, 1.7e308)]),
        Quaternion(-0.0, 5e-324, 1.7e308, 1e154)),
     "result is not finite"),
    (lambda: complex_jacobian(SlicePoly([Quaternion(2, 0, 1, 0)]),
                              Quaternion(1, 1.7e308, 0, 0)),
     "result is not finite"),
    (lambda: sigma_distance(Quaternion(1e308, 1e-300, 1, 1e-300),
                            Quaternion(1e154, 1e308, 1e308, 1.7e308)),
     "result is not finite"),
], ids=["expand-at-a0-inf", "directional-constant-nan", "cullen-linear-nan",
        "jacobian-holo-nan", "sigma-distance-inf"])
def test_expansion_and_calculus_value_that_is_not_finite_refused(call,
                                                                  message):
    # expand_at gave A_0 = Quaternion(inf, 1e300, 0, 0): the levels were
    # checked, q0 C_1 was not.  The derivatives, the Jacobian's holo block
    # among them, were NaN: f has degree <= 1, so A2 = 0, and
    # q0 e - e conj(q0) overflows, so inf * 0 entered the sum.  Refusing
    # them keeps every finite derivative bit for bit.  sigma was inf.
    with pytest.raises(SliceRegError, match=message):
        call()


_SCALES = [0.0, 5e-324, 1e-300, 1.0, 1e154, 1.3e154, 1e308, 1.7e308]
_sizes = st.sampled_from(_SCALES + [-0.0])
_signed = st.sampled_from(_SCALES + [-s for s in _SCALES])
_components = _signed | st.sampled_from([NAN, INF, -INF])


def _is_finite(value):
    """Whether a result holds only finite numbers, in its fields, items and
    components; None is a refusal, and flags, counts and enum members
    hold no float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, complex):
        return cmath.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(map(_is_finite, value))
    if isinstance(value, _Value):
        return _is_finite(value._fields(value))
    return value is None or isinstance(value, (bool, int, str, enum.Enum))


def _refused_as_none(call):
    try:
        return call()
    except SliceRegError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x0=_signed, y0=_sizes, radius=_sizes,
       point=st.tuples(_components, _components), on_sphere=st.booleans(),
       f=st.sampled_from([Q_PLUS_2, QSQ_PLUS_1, QCUBE,
                          SlicePoly([1.0, 2.0, UNIT_J])]),
       unit=st.sampled_from([UNIT_I, Quaternion(0.0, 0.6, 0.0, 0.8)]),
       order=st.integers(0, 3))
def test_contour_layer_returns_finite_values_or_refuses(x0, y0, radius, point,
                                                        on_sphere, f, unit,
                                                        order):
    # Any exception other than SliceRegError fails the test.  q is built
    # component by component: embed_complex refuses a point that is not
    # finite, and the calls below must refuse it themselves.
    c = complex(x0, y0) if on_sphere else complex(*point)
    q = Quaternion(c.real, c.imag * unit.x, c.imag * unit.y, c.imag * unit.z)
    contours = [_refused_as_none(lambda: circle_contour(x0, radius, unit, 16)),
                _refused_as_none(lambda: lemniscate_contour(
                    LemniscateDomain(x0, y0, radius), unit, 16))]
    for contour in filter(None, contours):
        assert _is_finite(contour)
        for index in (0, 1, 2):
            assert _is_finite(_refused_as_none(
                lambda: coefficient_integral(f, q, index, contour)))
        assert _is_finite(_refused_as_none(
            lambda: cauchy_eval(f, q, contour)))
    assert _is_finite(_refused_as_none(lambda: coefficient_bound_report(
        f, LemniscateDomain(x0, y0, radius), unit, order)))


_finite_quaternions = st.builds(Quaternion, _signed, _signed, _signed,
                                _signed)
_quaternions = st.builds(Quaternion, _components, _components, _components,
                         _components)
_UNITS = [UNIT_I, UNIT_J, Quaternion(0.0, 0.6, 0.0, 0.8)]


def _public_calls(f, g, q, p, s, c, x0, y0, radius, order, axis, unit):
    """name -> call of every public callable of the algebra modules, on
    polynomials f, g, points q, p, a finite quaternion s (Quaternion
    arithmetic stays IEEE, so `inverse` gets finite input), a complex c,
    a sphere and domain (x0, y0, radius), and an imaginary unit.  The
    sphere and domain calls are left out when those records refuse."""
    other = orthogonal_unit(unit)
    calls = {
        "Quaternion.inverse": s.inverse,
        "Sphere.through": lambda: Sphere.through(q),
        "slice_decompose": lambda: slice_decompose(q),
        "sigma_distance": lambda: sigma_distance(q, p),
        "is_imaginary_unit": lambda: is_imaginary_unit(q),
        "orthogonal_unit": lambda: orthogonal_unit(q),
        "embed_complex": lambda: embed_complex(c, unit),
        "embed_complex-any-unit": lambda: embed_complex(c, p),
        "split_complex": lambda: split_complex(q, unit, other),
        "SlicePoly": lambda: SlicePoly([q]),
        "SlicePoly.linear_factor": lambda: SlicePoly.linear_factor(q),
        "star": lambda: f * g,
        "scale-right": lambda: f * q,
        "scale-left": lambda: q * f,
        "add": lambda: f + g,
        "sub": lambda: f - g,
        "neg": lambda: -f,
        "pow": lambda: f ** order,
        "horner": lambda: f(q),
        "max_coeff_norm": f.max_coeff_norm,
        "remainder_div": lambda: f.remainder_div(q),
        "expand_at": lambda: expand_at(f, q, order),
        "eval_expansion": lambda: eval_expansion(expand_at(f, p, order), q),
        "eval_expansion-record": lambda: eval_expansion(
            SphericalExpansion(p, (q, s, p)), q),
        "radius_of_convergence": lambda: radius_of_convergence((q, p, s)),
        "directional_derivative": lambda: directional_derivative(f, q, unit),
        "partial_derivative": lambda: partial_derivative(f, q, axis),
        "cullen_derivative": lambda: cullen_derivative(f, q),
        "spherical_derivative": lambda: spherical_derivative(f, q),
        "complex_jacobian": lambda: complex_jacobian(f, q),
        "classical_multiplicity": lambda: classical_multiplicity(f, q),
    }
    sphere = _refused_as_none(lambda: Sphere(x0, y0))
    if sphere is not None:
        q1, q2 = sphere.point(unit), sphere.point(other)
        calls.update({
            "Sphere.point": lambda: sphere.point(unit),
            "Sphere.contains": lambda: sphere.contains(q, EPS_ROOT),
            "SlicePoly.sphere_quadratic":
                lambda: SlicePoly.sphere_quadratic(sphere),
            "quadratic_div": lambda: f.quadratic_div(sphere),
            "representation_eval": lambda: representation_eval(
                q1, q, q2, p, sphere, sphere.point(UNIT_K)),
            "expand_pair": lambda: expand_pair(f, sphere, q1, q2, order),
            "modulus_bounds": lambda: modulus_bounds(q, sphere),
            "analyze_sphere": lambda: analyze_sphere(f, sphere),
            "expansion_multiplicity":
                lambda: expansion_multiplicity(f, sphere),
        })
    domain = _refused_as_none(lambda: LemniscateDomain(x0, y0, radius))
    if domain is not None:
        calls.update({
            "LemniscateDomain.classify": lambda: domain.classify(q),
            "LemniscateDomain.shape": domain.shape,
            "boundary_parameterization":
                lambda: boundary_parameterization(domain, 8),
        })
    return calls


@settings(max_examples=400, deadline=None, derandomize=True)
@given(f=st.lists(_finite_quaternions, max_size=4),
       g=st.lists(_finite_quaternions, max_size=3), q=_quaternions,
       p=_quaternions, s=_finite_quaternions,
       c=st.builds(complex, _components, _components), x0=_signed,
       y0=_sizes, radius=_sizes, order=st.integers(0, 3),
       axis=st.integers(0, 3), unit=st.sampled_from(_UNITS))
def test_every_public_call_returns_finite_values_or_refuses(
        f, g, q, p, s, c, x0, y0, radius, order, axis, unit):
    # Coefficients come from the finite values; a polynomial whose
    # coefficient modulus overflows is refused by SlicePoly itself.
    f, g = (_refused_as_none(lambda: SlicePoly(coeffs)) for coeffs in (f, g))
    if f is None or g is None:
        return
    calls = _public_calls(f, g, q, p, s, c, x0, y0, radius, order, axis,
                          unit)
    for name, call in calls.items():
        try:
            value = _refused_as_none(call)
        except ZeroDivisionError:
            # The documented inverse of a (near-)zero quaternion, and only
            # that: s is finite, so a modulus that overflows is not small.
            modulus = abs(s)
            assert name == "Quaternion.inverse"
            assert math.isfinite(modulus)
            assert modulus <= guard(EPS_ZERO, modulus)
            continue
        if name == "radius_of_convergence":
            # All coefficients exactly zero: the radius is infinite.
            assert value is None or value > 0.0, value
        elif name == "LemniscateDomain.classify":
            # A region holds no float, but it is a verdict on q: a q that
            # is not finite must be refused, not placed.
            assert value is None or _is_finite(q), (name, q, value)
        else:
            assert _is_finite(value), (name, value)
