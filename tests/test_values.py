"""Value semantics of the library's records.

Every record is an immutable slotted value: built positionally or by
keyword, equal only to an instance of its own class with equal fields,
hashable, pickled and copied by its fields, matched positionally in the
order of its fields, and refusing invalid fields in its constructor.  A
quantity that the fields determine is a read-only property.
"""

import copy
import pickle

import pytest

from slicereg import (ONE, UNIT_I, UNIT_J, CoefficientBoundReport,
                      ComplexJacobian, Contour, ExpansionMultiplicity,
                      LemniscateDomain, MultiplicityReport, Quaternion,
                      SlicePoly, SliceRegError, Sphere, SphericalExpansion,
                      sigma_distance, slice_decompose)

UNIT_SPHERE = Sphere(0.0, 1.0)
RESIDUAL = SlicePoly([ONE, UNIT_J])

# (class, field names, one valid set of field values)
RECORDS = [
    (Sphere, ("x0", "y0"), (0.5, 2.0)),
    (LemniscateDomain, ("x0", "y0", "radius"), (0.5, 1.0, 2.0)),
    (SphericalExpansion, ("base_point", "coeffs", "sphere_coeffs"),
     (UNIT_I, (UNIT_J, ONE), (UNIT_J - UNIT_I, ONE))),
    (Contour, ("unit", "points", "weights"),
     (UNIT_I, (1 + 0j, 1j, -1 + 0j), (0.5j, -0.5 + 0j, -0.5j))),
    (CoefficientBoundReport,
     ("domain", "constant", "boundary_max", "boundary_length", "coeff_mags",
      "bounds", "margins"),
     (LemniscateDomain(0.0, 1.0, 2.0), 1.25, 3.0, 12.5, (1.0, 0.5),
      (3.75, 1.875), (2.75, 1.375))),
    (ComplexJacobian, ("slice_unit", "normal_unit", "holo", "antiholo"),
     (UNIT_I, UNIT_J, ((2j, 0j), (0j, -2j)), ((0j, 0j), (0j, 0j)))),
    (MultiplicityReport,
     ("sphere", "spherical_mult", "isolated_point", "isolated_mult",
      "factors", "residual"),
     (UNIT_SPHERE, 2, UNIT_I, 1, (UNIT_I,), RESIDUAL)),
    (ExpansionMultiplicity, ("spherical_mult", "has_isolated",
                             "isolated_point"), (2, True, UNIT_I)),
]

parametrize = pytest.mark.parametrize(
    "cls, names, values", RECORDS, ids=[case[0].__name__ for case in RECORDS])


@parametrize
def test_positional_and_keyword_construction(cls, names, values):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert cls.__match_args__ == names
    for name, value in zip(names, values):
        assert getattr(record, name) == value
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_defaults():
    expansion = SphericalExpansion(UNIT_I, (UNIT_J, ONE))
    assert expansion.sphere_coeffs is None
    assert expansion.coeffs == (UNIT_J, ONE)


# A quantity that a record's fields determine is a read-only property,
# not a field: it is neither stored, compared nor pickled.
@pytest.mark.parametrize("record, name, value", [
    (Sphere(0.5, 0.0), "is_point", True),
    (Contour(UNIT_I, (1 + 0j, 1j, -1 + 0j), (0.5j, -0.5 + 0j, -0.5j)),
     "total_length", 1.5),
], ids=["sphere-is-point", "contour-length"])
def test_derived_quantities_are_read_only_properties(record, name, value):
    assert getattr(record, name) == value
    assert name not in type(record).__slots__
    assert getattr(type(record), name).fset is None
    with pytest.raises(AttributeError):
        setattr(record, name, value)


@parametrize
def test_equality_and_hash(cls, names, values):
    record = cls(*values)
    twin = cls(*values)
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    assert record != values
    assert record != list(values)
    assert values != record


def test_equality_is_class_exact():
    assert Sphere(0.5, 1.0) != Quaternion(0.5, 1.0, 0.0, 0.0)
    assert Sphere(0.5, 1.0) != LemniscateDomain(0.5, 1.0, 1.0)
    assert Sphere(0.5, 1.0) != Sphere(0.5, 1.5)


@parametrize
def test_immutable(cls, names, values):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


@parametrize
def test_pickle_and_copy(cls, names, values):
    record = cls(*values)
    clones = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(record), copy.deepcopy(record)]
    for clone in clones:
        assert type(clone) is cls
        assert clone == record


@parametrize
def test_match_on_fields(cls, names, values):
    match cls(*values):
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            pytest.fail("positional pattern did not match")


@pytest.mark.parametrize("build, message", [
    (lambda: Sphere(0, -1), "sphere radius y0 must be >= 0"),
    (lambda: LemniscateDomain(0, 1, 0), "radius must be > 0"),
    (lambda: Contour(Quaternion(0, 2, 0, 0), (), ()),
     "is not an imaginary unit"),
    (lambda: Contour(UNIT_I, (1 + 0j, 1j), (1j,)), "2 points but 1 weights"),
    (lambda: Contour(UNIT_I, (), ()), "at least one node"),
], ids=["sphere", "lemniscate", "contour", "contour-unpaired",
        "contour-empty"])
def test_refusals(build, message):
    with pytest.raises(SliceRegError, match=message):
        build()


def test_expansion_families_with_equal_odd_entries_accepted():
    # expand_at shares the odd objects between the two families; a record
    # built by hand with equal but distinct odd objects is accepted too.
    # The base-point-free family is data that no computation sums, so it
    # is stored as given, whatever its odd entries.
    odd, twin = Quaternion(0.5, -0.0, 0, 2), Quaternion(0.5, 0.0, 0, 2)
    assert odd is not twin
    record = SphericalExpansion(UNIT_I, (ONE, odd, UNIT_J),
                                (ONE - UNIT_I, twin, UNIT_J))
    assert record.sphere_coeffs[1] is twin
    record = SphericalExpansion(UNIT_I, (ONE, ONE), (ONE, -ONE))
    assert record.sphere_coeffs == (ONE, -ONE)


NAN, INF = float("nan"), float("inf")


# A non-finite field is a named refusal: SliceRegError, which library
# callers can catch apart from other ValueErrors, also when the record is
# built on their behalf.
@pytest.mark.parametrize("build, message", [
    (lambda: Sphere(NAN, 1), "sphere x0 must be finite"),
    (lambda: Sphere(-INF, 1), "sphere x0 must be finite"),
    (lambda: Sphere(0, NAN), "sphere y0 must be finite"),
    (lambda: Sphere(0, INF), "sphere y0 must be finite"),
    (lambda: LemniscateDomain(NAN, 1, 1), "x0 must be finite"),
    (lambda: LemniscateDomain(0, INF, 1), "y0 must be finite"),
    (lambda: LemniscateDomain(0, 1, NAN), "radius must be finite"),
    (lambda: LemniscateDomain(0, 1, INF), "radius must be finite"),
    (lambda: slice_decompose(Quaternion(INF, 0, 0, 0)),
     "sphere x0 must be finite"),
    (lambda: sigma_distance(Quaternion(INF, 0, 0, 0), UNIT_J),
     "sphere x0 must be finite"),
], ids=["sphere-x0-nan", "sphere-x0-inf", "sphere-y0-nan", "sphere-y0-inf",
        "lemniscate-x0-nan", "lemniscate-y0-inf", "lemniscate-radius-nan",
        "lemniscate-radius-inf", "slice-decompose-inf", "sigma-distance-inf"])
def test_non_finite_fields_refused(build, message):
    with pytest.raises(SliceRegError, match=message):
        build()
