"""Tests for truncation: sections from above, covers from below, the fiber
sequence relating them, and single homology layers.

Instances come from direct sums of elementary pieces whose homology is known
in closed form, so every truncation claim is checked against an expected
profile that never routes through the code under test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    HomologyProfile,
    direct_sum,
    disk_complex,
    homology,
    homology_group,
    induced_map,
    is_quasi_iso,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.exactalg import FpAbelianGroup, IntegerMatrix, Presentation
from towercalc.trunc import (
    connective_cover,
    fiber_sequence_check,
    is_n_type,
    is_Pn_weq,
    layer,
    postnikov_section,
)

# ---------------------------------------------------------------------------
# instance builders with closed-form homology


def cyclic_layer(t, n):
    return ChainComplex(n, (Presentation(1, IntegerMatrix.from_rows([[t]])),), ())


def _piece(kind, n, t):
    if kind == 0:
        return sphere_complex(n), {n: FpAbelianGroup.free(1)}
    if kind == 1:
        return disk_complex(n), {}
    if kind == 2:
        return moore_complex(t, n), {n: FpAbelianGroup.cyclic(t)}
    return cyclic_layer(t, n), {n: FpAbelianGroup.cyclic(t)}


def build_sum(pieces):
    out = zero_complex()
    expected: dict[int, FpAbelianGroup] = {}
    for kind, n, t in pieces:
        cx, h = _piece(kind, n, t)
        out = direct_sum(out, cx)
        for d, g in h.items():
            expected[d] = expected.get(d, FpAbelianGroup.zero()).direct_sum(g)
    return out, HomologyProfile.of(expected.items())


piece_st = st.tuples(st.integers(0, 3), st.integers(-2, 4), st.integers(2, 9))
pieces_st = st.lists(piece_st, min_size=1, max_size=4)
cut_st = st.integers(-3, 5)


# ---------------------------------------------------------------------------
# sections


def test_section_above_everything_returns_the_complex_itself():
    x = moore_complex(3, 1)
    p, q = postnikov_section(x, 7)
    assert p == x
    assert all(c == IntegerMatrix.identity(1) for c in q.components)


def test_section_below_everything_is_zero():
    x = sphere_complex(3)
    p, q = postnikov_section(x, 2)
    assert p.is_zero
    assert q.component_at(3).rows == 0


def test_section_quotients_the_cut_degree():
    """Two-term multiplication block in degrees 3, 2 cut at 2: the boundary
    becomes a relation and the section is Z/2 sitting in degree 2."""
    x = moore_complex(2, 2)
    p, q = postnikov_section(x, 2)
    assert p.min_deg == 2 and p.top_deg == 2
    assert homology_group(p, 2) == FpAbelianGroup.cyclic(2)
    assert homology_group(p, 3).is_zero
    assert is_quasi_iso(q).passed  # H_3(x) = ker(2) = 0, so nothing was lost


@given(pieces_st, cut_st)
@settings(max_examples=80, deadline=None)
def test_section_splits_homology_at_the_cut(pieces, n):
    x, profile = build_sum(pieces)
    p, q = postnikov_section(x, n)
    for i in range(-4, 7):
        if i <= n:
            assert homology_group(p, i) == profile.at(i)
        else:
            assert homology_group(p, i).is_zero
    assert is_n_type(p, n).passed
    assert is_Pn_weq(q, n).passed


@given(pieces_st, cut_st, cut_st)
@settings(max_examples=60, deadline=None)
def test_section_idempotent_and_order_free(pieces, m, n):
    x, _ = build_sum(pieces)
    pn, _ = postnikov_section(x, n)
    pmn, _ = postnikov_section(pn, m)
    direct, _ = postnikov_section(x, min(m, n))
    assert homology(pmn) == homology(direct)


@given(pieces_st, cut_st)
@settings(max_examples=60, deadline=None)
def test_section_tower_step_is_strict(pieces, n):
    """Cutting at n+1 and then at n lands exactly on the cut at n, and the
    intermediate quotient map is an equivalence through degree n."""
    x, _ = build_sum(pieces)
    above, _ = postnikov_section(x, n + 1)
    stepped, sigma = postnikov_section(above, n)
    direct, _ = postnikov_section(x, n)
    assert stepped == direct
    assert is_Pn_weq(sigma, n).passed


# ---------------------------------------------------------------------------
# type predicates


def test_n_type_flags_the_least_offending_degree():
    x = direct_sum(sphere_complex(1), sphere_complex(3))
    cert = is_n_type(x, 0)
    assert not cert.passed
    assert cert.witness["degree"] == 1
    assert is_n_type(x, 3).passed


def test_acyclic_complex_is_a_type_for_every_n():
    assert is_n_type(disk_complex(5), -2).passed


def test_truncated_weq_ignores_degrees_above_the_cut():
    x = direct_sum(sphere_complex(0), sphere_complex(2))
    p, q = postnikov_section(x, 1)
    assert is_Pn_weq(q, 1).passed
    assert not is_quasi_iso(q).passed
    assert not is_Pn_weq(q, 2).passed
    # the degree walk stops at the top degree, so a huge level costs nothing
    assert is_Pn_weq(ChainMap.identity(x), 10**18).passed
    assert is_Pn_weq(q, 10**18).witness["degree"] == 2


# ---------------------------------------------------------------------------
# covers


def test_cover_below_everything_is_the_identity():
    x = sphere_complex(3)
    c, j = connective_cover(x, 0)
    assert c == x
    assert j.source is x and j.target is x


def test_cover_above_everything_is_zero():
    c, j = connective_cover(moore_complex(3, 0), 4)
    assert c.is_zero


def test_cover_of_a_multiplication_block_at_its_bottom_is_trivial():
    """ker(x2) = 0, so covering Z --2--> Z above degree 0 leaves nothing."""
    c, j = connective_cover(moore_complex(2, 0), 0)
    assert c.is_zero


def test_cover_restricts_to_cycles():
    x = direct_sum(moore_complex(2, 0), sphere_complex(1))
    c, j = connective_cover(x, 0)
    assert homology_group(c, 1) == FpAbelianGroup.free(1)
    assert homology_group(c, 0).is_zero
    assert induced_map(j, 1).is_iso()


@given(pieces_st, cut_st)
@settings(max_examples=80, deadline=None)
def test_cover_splits_homology_at_the_cut(pieces, k):
    x, profile = build_sum(pieces)
    c, j = connective_cover(x, k)
    for i in range(-4, 7):
        if i > k:
            assert homology_group(c, i) == profile.at(i)
            assert induced_map(j, i).is_iso()
        else:
            assert homology_group(c, i).is_zero
    # above the cycles at k + 1 the cover is x itself, included by identities
    for i in range(k + 2, x.top_deg + 1):
        assert c.pres_at(i) == x.pres_at(i)
        assert j.component_at(i) == IntegerMatrix.identity(x.pres_at(i).generators)
        if i > k + 2:
            assert c.diff_at(i) == x.diff_at(i)


# ---------------------------------------------------------------------------
# the fiber sequence cover -> total -> section


def test_fiber_sequence_on_a_multiplication_block():
    cert = fiber_sequence_check(moore_complex(5, 0), 0)
    assert cert.passed, cert.failures()


def test_fiber_sequence_with_interesting_boundary():
    x = direct_sum(moore_complex(2, 1), sphere_complex(0))
    cert = fiber_sequence_check(x, 1)
    assert cert.passed, cert.failures()


@given(pieces_st, cut_st)
@settings(max_examples=50, deadline=None)
def test_fiber_sequence_certificate_holds(pieces, k):
    x, _ = build_sum(pieces)
    cert = fiber_sequence_check(x, k)
    assert cert.passed, cert.failures()


# ---------------------------------------------------------------------------
# layers


def test_layer_picks_out_one_homology_group():
    x = direct_sum(moore_complex(4, 1), sphere_complex(2))
    lay = layer(x, 0)
    assert homology(lay) == HomologyProfile.of([(1, FpAbelianGroup.cyclic(4))])


def test_layer_of_missing_degree_is_trivial():
    lay = layer(sphere_complex(3), 0)
    assert homology(lay) == HomologyProfile.of([])


@given(pieces_st, cut_st)
@settings(max_examples=80, deadline=None)
def test_layer_concentrates_homology(pieces, k):
    x, profile = build_sum(pieces)
    lay = layer(x, k)
    expected = HomologyProfile.of([(k + 1, profile.at(k + 1))])
    assert homology(lay) == expected
