"""The tuple-backed value records: matrices, presentations, group maps,
complexes and chain maps.

They key every cache, so hashing them must stay in C, equal structures must
hash equal, and their tuple storage must not leak: no tuple operators, no
assignment, no rendering as a list in a certificate.
"""

import random
import sys

import pytest

from towercalc.certificates import passed
from towercalc.complexes import ChainComplex, ChainMap, moore_complex, sphere_complex
from towercalc.exactalg import GroupMap, IntegerMatrix, Presentation
from towercalc.gen import random_complex

_MATRIX = IntegerMatrix(2, 2, (1, 2, 3, 4))
_Z2 = Presentation(1, IntegerMatrix(1, 1, (2,)))


def _frames_entered_hashing(*values) -> int:
    """How many Python frames hashing `values` enters."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        for value in values:
            hash(value)
    finally:
        sys.setprofile(None)
    return calls


def test_hashing_a_complex_and_its_identity_enters_no_python_frame():
    x = random_complex(random.Random(5))
    f = ChainMap.identity(x)
    assert len(x.degrees) >= 3
    assert _frames_entered_hashing(x, f) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equal_structures_built_twice_are_equal_and_hash_equal(seed):
    x, y = random_complex(random.Random(seed)), random_complex(random.Random(seed))
    f = ChainMap(x, x, tuple(IntegerMatrix.identity(p.generators) for p in x.degrees))
    g = ChainMap.identity(y)
    assert x is not y and f is not g
    assert x == y and hash(x) == hash(y)
    assert f == g and hash(f) == hash(g)
    assert not x != y and not f != g


def test_records_of_different_types_never_compare_equal():
    assert ChainComplex(0, (), ()) != IntegerMatrix(0, 0, ())
    assert not ChainComplex(0, (), ()) == IntegerMatrix(0, 0, ())
    assert _Z2 != (1, IntegerMatrix(1, 1, (2,)))
    assert _MATRIX != (2, 2, (1, 2, 3, 4))
    z = Presentation.free(1)
    assert GroupMap(z, z, IntegerMatrix.identity(1)) != (z, z, IntegerMatrix.identity(1))


def test_reprs_name_every_field():
    assert repr(_Z2) == ("Presentation(generators=1, "
                         "relations=IntegerMatrix(rows=1, cols=1, entries=(2,)))")
    assert repr(sphere_complex(2)) == (
        "ChainComplex(min_deg=2, degrees=(Presentation(generators=1, "
        "relations=IntegerMatrix(rows=1, cols=0, entries=())),), differentials=())")


def test_a_witness_renders_records_by_str_and_plain_tuples_as_lists():
    witness = passed("probe", matrix=_MATRIX, presentation=_Z2, pair=(1, 2)).to_dict()["witness"]
    assert witness == {"matrix": "[1 2; 3 4]", "presentation": str(_Z2), "pair": [1, 2]}


@pytest.mark.parametrize("op", [
    lambda: 2 * _MATRIX,
    lambda: _MATRIX * 2,
    lambda: _MATRIX < _MATRIX,
    lambda: _MATRIX >= _MATRIX,
    lambda: _Z2 + _Z2,
    lambda: moore_complex(2) + sphere_complex(0),
    lambda: 3 * sphere_complex(0),
])
def test_tuple_operators_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_matrix_arithmetic_is_its_own():
    assert _MATRIX + _MATRIX == _MATRIX.scale(2)
    assert _MATRIX - _MATRIX == IntegerMatrix.zero(2, 2)
    assert -_MATRIX == _MATRIX.scale(-1)


@pytest.mark.parametrize("record, field", [
    (_MATRIX, "rows"),
    (_MATRIX, "extra"),
    (_Z2, "relations"),
    (sphere_complex(0), "min_deg"),
    (ChainMap.identity(sphere_complex(0)), "components"),
])
def test_assigning_an_attribute_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_constructors_validate_with_their_messages():
    with pytest.raises(ValueError, match="negative matrix dimension"):
        IntegerMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="entry count does not match dimensions"):
        IntegerMatrix(1, 2, (1,))
    with pytest.raises(ValueError, match="relation height must equal generator count"):
        Presentation(2, IntegerMatrix(1, 0, ()))
