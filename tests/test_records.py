"""The tuple-backed value records: matrices, presentations, group maps,
complexes and chain maps.

They key every cache, so hashing them must stay in C, equal structures must
hash equal, and their tuple storage must not leak: no tuple operators, no
assignment, no rendering as a list in a certificate.  Where shapes or object
identity decide a result, the builders hand back an existing equal record
instead of a copy, so later cache hits compare by identity.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc import fracture, hofib, holim, sections, trunc
from towercalc.certificates import passed
from towercalc.complexes import ChainComplex, ChainMap, moore_complex, sphere_complex
from towercalc.exactalg import (
    GroupMap,
    IntegerMatrix,
    Presentation,
    block_diag,
    column_basis,
    integer_kernel,
    preimage_lattice,
    smith_normal_form,
)
from towercalc.gen import random_complex
from towercalc.serialize import matrix_from_doc

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


# ---------------------------------------------------------------------------
# sharing: results decided by shapes or identity are existing records


def _filled(rows, cols):
    return IntegerMatrix(rows, cols, tuple(range(1, 1 + rows * cols)))


@pytest.mark.parametrize("n, k, m", [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0), (0, 2, 0), (3, 0, 0)])
def test_a_product_with_an_empty_dimension_is_the_shared_zero(n, k, m):
    assert _filled(n, k) @ _filled(k, m) is IntegerMatrix.zero(n, m)


def test_a_product_with_the_shared_identity_is_the_other_operand():
    a = _filled(2, 3)
    assert IntegerMatrix.identity(2) @ a is a
    assert a @ IntegerMatrix.identity(3) is a
    # an equal identity that is not the shared one takes the general path
    unshared = IntegerMatrix(2, 2, (1, 0, 0, 1))
    assert unshared @ a == a and unshared @ a is not a


def test_stacking_onto_an_empty_side_returns_the_other_side():
    a = _filled(2, 3)
    assert a.hstack(IntegerMatrix.zero(2, 0)) is a
    assert IntegerMatrix.zero(2, 0).hstack(a) is a
    assert a.vstack(IntegerMatrix.zero(0, 3)) is a
    assert IntegerMatrix.zero(0, 3).vstack(a) is a
    empty, wide, tall = IntegerMatrix.zero(0, 0), _filled(0, 4), _filled(4, 0)
    assert empty.hstack(wide) is wide and wide.hstack(_filled(0, 0)) is wide
    assert empty.vstack(tall) is tall and tall.vstack(_filled(0, 0)) is tall
    assert a.take_rows(0, 2) is a
    assert a.take_rows(0, 1) == _filled(1, 3)


def test_an_empty_block_sum_is_the_shared_zero():
    assert block_diag(_filled(2, 0), _filled(3, 0)) is IntegerMatrix.zero(5, 0)
    assert block_diag(_filled(0, 2), _filled(0, 0)) is IntegerMatrix.zero(0, 2)


def test_presentation_shortcuts_return_an_existing_side():
    z2 = Presentation(1, IntegerMatrix(1, 1, (2,)))
    assert z2.quotient(IntegerMatrix.zero(1, 0)) is z2
    assert Presentation.free(0).direct_sum(z2) is z2
    assert z2.direct_sum(Presentation.free(0)) is z2
    # no generators but a relation column: the sum keeps that column
    odd = Presentation(0, IntegerMatrix.zero(0, 1))
    assert odd.direct_sum(z2) == Presentation(1, IntegerMatrix(1, 2, (0, 2)))


def test_an_untouched_smith_transform_is_the_shared_identity():
    settled = smith_normal_form(IntegerMatrix(2, 3, (1, 0, 0, 0, 2, 0)))
    assert settled.U is IntegerMatrix.identity(2) and settled.V is IntegerMatrix.identity(3)
    # one row phase: V is untouched, U is not
    shear = IntegerMatrix(2, 2, (1, 1, 0, 1))
    rows_only = smith_normal_form(shear)
    assert rows_only.V is IntegerMatrix.identity(2)
    assert rows_only.U == IntegerMatrix(2, 2, (1, -1, 0, 1))
    assert rows_only.U @ shear @ rows_only.V == IntegerMatrix.identity(2)
    # diag(2, 3) needs no phase, but the chain exchange changes both transforms
    m = IntegerMatrix(2, 2, (2, 0, 0, 3))
    chained = smith_normal_form(m)
    assert chained.d == (1, 6)
    assert chained.U != IntegerMatrix.identity(2) and chained.V != IntegerMatrix.identity(2)
    assert chained.U @ m @ chained.V == IntegerMatrix(2, 2, (1, 0, 0, 6))


def test_a_full_kernel_and_an_identity_basis_are_shared():
    assert integer_kernel(IntegerMatrix.zero(2, 3)) is IntegerMatrix.identity(3)
    identity = IntegerMatrix.identity(3)
    assert column_basis(identity) is identity


def test_a_preimage_under_the_identity_is_the_relation_lattice():
    rel = IntegerMatrix.from_rows([[2, 4], [0, 6]])
    assert preimage_lattice(IntegerMatrix.identity(2), rel) is rel
    # an equal identity that is not the shared one takes the general route
    general = preimage_lattice(IntegerMatrix(2, 2, (1, 0, 0, 1)), rel)
    assert column_basis(general) == column_basis(rel)


def test_a_document_identity_is_the_shared_identity():
    assert matrix_from_doc([["1", "0"], ["0", "1"]], 2, 2, "m") is IntegerMatrix.identity(2)
    assert matrix_from_doc([], 0, 0, "m") is IntegerMatrix.identity(0)
    for rows in ([["1", "0"], ["0", "2"]], [["0", "1"], ["1", "0"]]):
        assert matrix_from_doc(rows, 2, 2, "m") != IntegerMatrix.identity(2)


def test_accessors_read_the_window_and_are_zero_outside_it():
    x = random_complex(random.Random(5))
    f = ChainMap.identity(x)
    lo, hi = x.min_deg, x.min_deg + len(x.degrees) - 1
    assert lo < hi
    for i in range(lo - 2, hi + 3):
        inside = lo <= i <= hi
        assert x.pres_at(i) is (x.degrees[i - lo] if inside else Presentation.free(0))
        assert f.component_at(i) is (f.components[i - lo] if inside
                                     else IntegerMatrix.zero(0, 0))
        below = x.pres_at(i - 1).generators
        assert x.diff_at(i) is (x.differentials[i - lo - 1] if lo < i <= hi
                                else IntegerMatrix.zero(below, x.pres_at(i).generators))


# entrywise definitions, independent of the builders' shortcuts

def _product(a, b):
    return IntegerMatrix(a.rows, b.cols, tuple(
        sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def _side_by_side(a, b):
    return IntegerMatrix(a.rows, a.cols + b.cols, tuple(
        a.entry(i, j) if j < a.cols else b.entry(i, j - a.cols)
        for i in range(a.rows) for j in range(a.cols + b.cols)))


def _on_top(a, b):
    return IntegerMatrix(a.rows + b.rows, a.cols, tuple(
        a.entry(i, j) if i < a.rows else b.entry(i - a.rows, j)
        for i in range(a.rows + b.rows) for j in range(a.cols)))


def _blocks(a, b):
    return _on_top(_side_by_side(a, IntegerMatrix.zero(a.rows, b.cols)),
                   _side_by_side(IntegerMatrix.zero(b.rows, a.cols), b))


_DIM = st.integers(0, 3)


@st.composite
def _matrices(draw, rows, cols):
    if rows == cols and draw(st.booleans()):
        return IntegerMatrix.identity(rows)
    return IntegerMatrix(rows, cols, tuple(draw(st.lists(
        st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shortcut_results_equal_the_entrywise_results(data):
    n, k, m, r = (data.draw(_DIM) for _ in range(4))
    a, b = data.draw(_matrices(n, k)), data.draw(_matrices(k, m))
    beside, below = data.draw(_matrices(n, m)), data.draw(_matrices(m, k))
    assert a @ b == _product(a, b)
    assert a.hstack(beside) == _side_by_side(a, beside)
    assert a.vstack(below) == _on_top(a, below)
    assert a.take_rows(0, n) == IntegerMatrix(n, k, tuple(a.entry(i, j) for i in range(n) for j in range(k)))
    assert block_diag(a, b) == _blocks(a, b)
    p, q = Presentation(n, a), Presentation(r, data.draw(_matrices(r, m)))
    assert p.quotient(beside) == Presentation(n, _side_by_side(a, beside))
    assert p.direct_sum(q) == Presentation(n + r, _blocks(a, q.relations))
    assert q.direct_sum(p) == Presentation(n + r, _blocks(q.relations, a))


@pytest.mark.parametrize("op", [
    lambda: IntegerMatrix.zero(2, 0) @ IntegerMatrix.zero(1, 3),
    lambda: IntegerMatrix.identity(2) @ IntegerMatrix.zero(3, 2),
    lambda: IntegerMatrix.zero(3, 2) @ IntegerMatrix.identity(3),
    lambda: IntegerMatrix.zero(2, 0).hstack(IntegerMatrix.zero(3, 0)),
    lambda: IntegerMatrix.zero(0, 2).vstack(IntegerMatrix.zero(0, 3)),
    lambda: Presentation.free(2).quotient(IntegerMatrix.zero(3, 0)),
])
def test_shape_mismatches_still_raise(op):
    with pytest.raises(ValueError):
        op()


def _certify(x):
    """The acceptance battery on one complex."""
    holim.hypercomplete_check(x)
    tower = sections.postnikov_tower(x, max(x.top_deg, 0))
    sections.is_post_fibrant(tower)
    sections.is_homotopy_cartesian(tower)
    for k in range(x.min_deg - 1, x.top_deg + 1):
        trunc.fiber_sequence_check(x, k)
        hofib.derived_counit_check(x, k)
        hofib.layer_equivalence_check(x, k)
    fracture.arithmetic_square_check(x, fracture.PrimePartition({2}, {3, 5}))


@pytest.mark.trusted_builds
@pytest.mark.single_route
def test_certifying_one_complex_builds_few_matrices():
    x = random_complex(random.Random(5))
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is IntegerMatrix.__new__.__code__

    sys.setprofile(profile)
    try:
        _certify(x)
    finally:
        sys.setprofile(None)
    # measured: 1,956 when every builder made a fresh copy, 923 once they
    # shared existing records, 762 since isomorphism, injectivity and
    # exactness are decided from invariant factors
    assert built <= 762
