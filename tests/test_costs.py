"""Quaternion and SlicePoly constructions per call, pinned as upper
bounds.

In pure Python, building an object dominates the cost of the algebra
layers, and unlike wall time the count is deterministic.  A change that
lowers a count lowers its pin; one that must raise a pin says why.
"""

import random

import pytest

from slicereg import (UNIT_J, Quaternion, SlicePoly, Sphere, analyze_sphere,
                      cauchy_eval, circle_contour, coefficient_integral,
                      complex_jacobian, directional_derivative, embed_complex,
                      eval_expansion, expand_at, expansion_multiplicity)
from slicereg.calculus import _first_two
from slicereg.zeros import _first_level, _threshold
from oracles import random_quaternion

DEGREES = (4, 16, 48)

# Upper bounds per layer, one per degree in DEGREES.  The "deep" layers
# read a planted zero with m = 2, whose first two levels vanish: their
# cofactor is built only when read.  "spherical_multiplicity_deep" is the
# part of analyze_sphere before the peel, 2m and the cofactor, and
# "derivative_bundle" the pair (A1, A2) every first derivative reads.  A
# contour integral splits f's coefficients with one splitter per call, so
# its count does not grow with the degree.
PINS = {
    "star": (9, 33, 97),
    "horner": (1, 1, 1),
    "remainder_div": (5, 17, 49),
    "quadratic_div": (5, 17, 49),
    "expand_at": (8, 26, 74),
    "eval_expansion": (5, 5, 5),
    "analyze_sphere": (15, 46, 110),
    "expansion_multiplicity": (10, 10, 10),
    "analyze_sphere_deep": (17, 46, 110),
    "spherical_multiplicity_deep": (14, 25, 57),
    "expansion_multiplicity_deep": (12, 12, 12),
    "derivative_bundle": (5, 5, 5),
    "directional_derivative": (12, 12, 12),
    "complex_jacobian": (46, 46, 46),
    "coefficient_integral": (8, 8, 8),
    "cauchy_eval": (8, 8, 8),
}

# SlicePolys per call, the same at every degree.
POLY_PINS = {
    "star": 1,
    "horner": 0,
    "remainder_div": 1,
    "quadratic_div": 2,
    "expand_at": 0,
    "eval_expansion": 0,
    "analyze_sphere": 2,
    "expansion_multiplicity": 0,
    "analyze_sphere_deep": 2,
    "spherical_multiplicity_deep": 1,
    "expansion_multiplicity_deep": 0,
    "derivative_bundle": 0,
    "directional_derivative": 0,
    "complex_jacobian": 0,
    "coefficient_integral": 0,
    "cauchy_eval": 0,
}


@pytest.fixture
def constructions(monkeypatch):
    """constructions(fn, *args): the Quaternions and the SlicePolys built
    by fn(*args).  Every SlicePoly stores its coefficients once, with
    `_store`, however it is built."""
    made = [0, 0]
    new, store = Quaternion.__new__, SlicePoly._store

    def counting(cls, *args):
        made[0] += 1
        return new(cls, *args)

    def storing(self, *values):
        made[1] += 1
        store(self, *values)

    def count(fn, *args):
        made[:] = 0, 0
        monkeypatch.setattr(Quaternion, "__new__", counting)
        monkeypatch.setattr(SlicePoly, "_store", storing)
        try:
            fn(*args)
        finally:
            monkeypatch.undo()
        return tuple(made)

    return count


def _spherical_part(f: SlicePoly, sphere: Sphere) -> tuple:
    m, cofactor, _ = _first_level(f, sphere, _threshold(f, None))
    return 2 * m, cofactor()


def _call(layer: str, degree: int) -> tuple:
    """The call of `layer` at `degree`: random f and g, a point q0 of a
    sphere and a point near it, the expansion of f at q0 to order d, and
    planted Q*(q - q0)*h and Q^2*(q - q0)*h with Q the sphere's
    quadratic, and a 64-node circle around the sphere in q0's plane."""
    rng = random.Random(degree)
    f = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    sphere = Sphere(0.3, 0.8)
    q0 = sphere.point(Quaternion(0.0, 0.0, 1.0, 0.0))
    quad = SlicePoly.sphere_quadratic(sphere)
    planted = (quad * SlicePoly.linear_factor(q0)
               * SlicePoly([random_quaternion(rng)
                            for _ in range(degree - 3)]))
    g = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    deep = (quad * quad * SlicePoly.linear_factor(q0)
            * SlicePoly([random_quaternion(rng)
                         for _ in range(max(degree - 4, 1))]))
    near = q0 + Quaternion(0.1, 0.05, -0.1, 0.05)
    contour = circle_contour(0.3, 1.8, UNIT_J, 64)
    return {
        "star": (f.__mul__, g),
        "horner": (f, q0),
        "remainder_div": (f.remainder_div, q0),
        "quadratic_div": (f.quadratic_div, sphere),
        "expand_at": (expand_at, f, q0, 2 * degree),
        "eval_expansion": (eval_expansion, expand_at(f, q0, degree), near),
        "analyze_sphere": (analyze_sphere, planted, sphere),
        "expansion_multiplicity": (expansion_multiplicity, planted, sphere),
        "analyze_sphere_deep": (analyze_sphere, deep, sphere),
        "spherical_multiplicity_deep": (_spherical_part, deep, sphere),
        "expansion_multiplicity_deep": (expansion_multiplicity, deep, sphere),
        "derivative_bundle": (_first_two, f, q0),
        "directional_derivative": (directional_derivative, f, q0,
                                   Quaternion(0.0, 0.6, 0.0, 0.8)),
        "complex_jacobian": (complex_jacobian, f, q0),
        "coefficient_integral": (coefficient_integral, f, q0, 3, contour),
        "cauchy_eval": (cauchy_eval, f, embed_complex(0.4 + 0.9j, UNIT_J),
                        contour),
    }[layer]


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("layer", sorted(PINS))
def test_quaternion_constructions_within_pin(constructions, layer, degree):
    pin = PINS[layer][DEGREES.index(degree)]
    assert constructions(*_call(layer, degree))[0] <= pin


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("layer", sorted(POLY_PINS))
def test_slicepoly_constructions_within_pin(constructions, layer, degree):
    assert constructions(*_call(layer, degree))[1] <= POLY_PINS[layer]
