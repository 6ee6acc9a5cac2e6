"""Quaternion constructions per call, pinned as upper bounds.

In pure Python, building an object dominates the cost of the algebra
layers, and unlike wall time the count is deterministic.  A change that
lowers a count lowers its pin; one that must raise a pin says why.
"""

import random

import pytest

from slicereg import (Quaternion, SlicePoly, Sphere, analyze_sphere,
                      complex_jacobian, derivative_bundle,
                      directional_derivative, expand_at,
                      expansion_multiplicity)
from oracles import random_quaternion

DEGREES = (4, 16, 48)

# Upper bounds per layer, one per degree in DEGREES.
PINS = {
    "star": (9, 33, 97),
    "horner": (1, 1, 1),
    "remainder_div": (5, 17, 49),
    "quadratic_div": (5, 17, 49),
    "expand_at": (15, 51, 147),
    "analyze_sphere": (15, 58, 154),
    "expansion_multiplicity": (12, 24, 56),
    "derivative_bundle": (6, 6, 6),
    "directional_derivative": (13, 13, 13),
    "complex_jacobian": (52, 52, 52),
}


@pytest.fixture
def constructions(monkeypatch):
    """constructions(fn, *args): the Quaternions built by fn(*args)."""
    made = [0]
    new = Quaternion.__new__

    def counting(cls, *args):
        made[0] += 1
        return new(cls, *args)

    def count(fn, *args):
        made[0] = 0
        monkeypatch.setattr(Quaternion, "__new__", counting)
        try:
            fn(*args)
        finally:
            monkeypatch.undo()
        return made[0]

    return count


def _call(layer: str, degree: int) -> tuple:
    """The call of `layer` at `degree`: random f and g, a point q0 of a
    sphere, and a planted Q*(q - q0)*h with Q the sphere's quadratic."""
    rng = random.Random(degree)
    f = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    sphere = Sphere(0.3, 0.8)
    q0 = sphere.point(Quaternion(0.0, 0.0, 1.0, 0.0))
    planted = (SlicePoly.sphere_quadratic(sphere) * SlicePoly.linear_factor(q0)
               * SlicePoly([random_quaternion(rng)
                            for _ in range(degree - 3)]))
    g = SlicePoly([random_quaternion(rng) for _ in range(degree + 1)])
    return {
        "star": (f.__mul__, g),
        "horner": (f, q0),
        "remainder_div": (f.remainder_div, q0),
        "quadratic_div": (f.quadratic_div, sphere),
        "expand_at": (expand_at, f, q0, 2 * degree),
        "analyze_sphere": (analyze_sphere, planted, sphere),
        "expansion_multiplicity": (expansion_multiplicity, planted, sphere),
        "derivative_bundle": (derivative_bundle, f, q0),
        "directional_derivative": (directional_derivative, f, q0,
                                   Quaternion(0.0, 0.6, 0.0, 0.8)),
        "complex_jacobian": (complex_jacobian, f, q0),
    }[layer]


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("layer", sorted(PINS))
def test_quaternion_constructions_within_pin(constructions, layer, degree):
    pin = PINS[layer][DEGREES.index(degree)]
    assert constructions(*_call(layer, degree)) <= pin
