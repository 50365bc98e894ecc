"""Tests for tower limits, the degreewise Milnor argument, reconstruction
from truncation towers, sphere commutation, and the Hom-truncation ladder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    direct_sum,
    disk_complex,
    homology,
    homology_group,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc import exactalg
from towercalc.errors import NotCofibrant
from towercalc.exactalg import FpAbelianGroup, IntegerMatrix, Presentation
from towercalc.holim import (
    generator_commutation_check,
    hypercomplete_check,
    milnor_check,
    tower_limit,
    uct_ladder,
)
from towercalc.sections import TowerSection, constant_tower, postnikov_tower

# ---------------------------------------------------------------------------
# builders


def cyclic_layer(t, n):
    return ChainComplex(n, (Presentation(1, IntegerMatrix.from_rows([[t]])),), ())


def _piece(kind, n, t):
    if kind == 0:
        return sphere_complex(n)
    if kind == 1:
        return disk_complex(n)
    if kind == 2:
        return moore_complex(t, n)
    return cyclic_layer(t, n)


def build_sum(pieces):
    out = zero_complex()
    for kind, n, t in pieces:
        out = direct_sum(out, _piece(kind, n, t))
    return out


piece_st = st.tuples(st.integers(0, 3), st.integers(-1, 3), st.integers(2, 7))
free_piece_st = st.tuples(st.integers(0, 2), st.integers(-1, 3), st.integers(2, 7))
pieces_st = st.lists(piece_st, min_size=1, max_size=3)
free_pieces_st = st.lists(free_piece_st, min_size=1, max_size=3)

# pieces whose homology sits entirely in degree 0 (free complexes)
concentrated_piece_st = st.one_of(
    st.tuples(st.just(0), st.just(0), st.just(2)),
    st.tuples(st.just(1), st.integers(-1, 3), st.just(2)),
    st.tuples(st.just(2), st.just(0), st.integers(2, 7)),
)
concentrated_st = st.lists(concentrated_piece_st, min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# tower limits


def test_limit_of_a_constant_tower_is_the_complex_itself():
    x = direct_sum(moore_complex(2, 0), sphere_complex(1))
    limit, projections = tower_limit(constant_tower(x, 3))
    assert limit == x
    assert all(p == ChainMap.identity(x) for p in projections)


def test_limit_of_a_truncation_tower_is_the_top_level():
    x = direct_sum(moore_complex(2, 1), sphere_complex(0))
    tower = postnikov_tower(x, x.top_deg + 1)
    limit, projections = tower_limit(tower)
    assert limit == tower.level(tower.length)
    assert homology(limit) == homology(x)
    assert len(projections) == tower.length + 1


def test_fake_stabilization_never_reaches_the_limit():
    """A tower that is not constant from level 0 derives a later index, and
    its limit is the top level, not the bottom one."""
    x, y = sphere_complex(0), sphere_complex(0, 2)
    proj = ChainMap(y, x, (IntegerMatrix.from_rows([[1, 0]]),))
    tower = TowerSection((x, y), (proj,))
    assert tower.stabilization == 1
    limit, projections = tower_limit(tower)
    assert limit == y
    assert projections == (proj, ChainMap.identity(y))


# ---------------------------------------------------------------------------
# Milnor sequence


def test_milnor_on_a_truncation_tower_recovers_homology():
    x = direct_sum(moore_complex(4, 0), sphere_complex(2))
    tower = postnikov_tower(x, 3)
    for i in range(0, 3):
        cert = milnor_check(tower, i)
        assert cert.passed, cert.failures()
        value = [c for c in cert.children if c.check == "limit_homology_matches"]
        assert value[0].witness["value"] == str(homology_group(x, i))


def test_milnor_on_a_constant_tower():
    assert milnor_check(constant_tower(moore_complex(3, 0), 2), 0).passed


def test_milnor_far_above_the_span_is_trivially_exact():
    tower = postnikov_tower(sphere_complex(1), 2)
    assert milnor_check(tower, 10).passed


def test_milnor_on_a_late_stabilizing_tower():
    # 0 <- Z/2 <- Z/4 <- Z/4 <- Z/4 in degree 0: constant from level 2 on
    z2, z4 = cyclic_layer(2, 0), cyclic_layer(4, 0)
    zc = zero_complex()
    tower = TowerSection(
        (zc, z2, z4, z4, z4),
        (ChainMap.zero_map(z2, zc), ChainMap(z4, z2, (IntegerMatrix.from_rows([[1]]),)),
         ChainMap.identity(z4), ChainMap.identity(z4)))
    assert tower.stabilization == 2
    cert = milnor_check(tower, 0)
    assert cert.passed, cert.failures()
    value = [c for c in cert.children if c.check == "limit_homology_matches"]
    assert value[0].witness["value"] == str(FpAbelianGroup.cyclic(4))
    below = milnor_check(tower, -1)
    assert below.passed, below.failures()
    assert below.children[0].witness == {"degree": 0}


def test_lim1_fails_when_image_chains_never_settle(monkeypatch):
    """The lim^1 verdict is computed: if no two image lattices compared
    equal, the chains would never settle and the check must fail."""
    monkeypatch.setattr(exactalg, "nested_lattices_equal", lambda outer, inner: False)
    tower = postnikov_tower(direct_sum(moore_complex(4, 0), sphere_complex(2)), 3)
    cert = milnor_check(tower, 1)
    lim1 = next(c for c in cert.children if c.check == "lim1_vanishes")
    assert not cert.passed and not lim1.passed
    assert lim1.witness == {"degree": 2, "horizon": tower.length + 1}


@given(pieces_st, st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_milnor_passes_at_every_degree(pieces, i):
    x = build_sum(pieces)
    tower = postnikov_tower(x, max(x.top_deg, 0) + 1)
    assert milnor_check(tower, i).passed


# ---------------------------------------------------------------------------
# reconstruction from the truncation tower


def test_sphere_is_hypercomplete():
    assert hypercomplete_check(sphere_complex(3)).passed


def test_multiplication_block_is_hypercomplete():
    assert hypercomplete_check(moore_complex(5, 1)).passed


@given(pieces_st)
@settings(max_examples=40, deadline=None)
def test_bounded_complexes_are_hypercomplete(pieces):
    cert = hypercomplete_check(build_sum(pieces))
    assert cert.passed, cert.failures()


# ---------------------------------------------------------------------------
# sphere commutation


def test_degree_zero_sphere_reduces_to_plain_truncation():
    x = direct_sum(moore_complex(2, 0), sphere_complex(2))
    assert generator_commutation_check(0, x, 1).passed


def test_shifted_sphere_against_shifted_block():
    x = moore_complex(2, 2)
    for n in range(-1, 5):
        cert = generator_commutation_check(1, x, n)
        assert cert.passed, (n, cert.witness)


def test_sphere_above_the_span_compares_zeros():
    assert generator_commutation_check(7, moore_complex(3, 0), 2).passed


def test_torsion_source_is_rejected():
    with pytest.raises(NotCofibrant):
        generator_commutation_check(0, cyclic_layer(2, 0), 1)


@given(free_pieces_st, st.integers(0, 3), st.integers(-1, 4))
@settings(max_examples=40, deadline=None)
def test_sphere_commutation_property(pieces, i, n):
    x = build_sum(pieces)
    cert = generator_commutation_check(i, x, n)
    assert cert.passed, cert.witness
    # the full side really is the shifted homology of x
    from towercalc.complexes import hom_complex
    assert homology(hom_complex(sphere_complex(i), x)) == homology(x).shifted(-i)


# ---------------------------------------------------------------------------
# the Hom-truncation ladder


def test_ladder_for_a_degree_zero_sphere_source():
    n = direct_sum(moore_complex(6, 1), sphere_complex(0))
    report = uct_ladder(sphere_complex(0), n, 1)
    assert report.certificate.passed
    assert report.discrepancy.is_zero
    for rung in report.rungs:
        assert rung.middle == homology_group(n, rung.degree)
        assert rung.ext_corner.is_zero


def test_ladder_exhibits_the_truncation_obstruction():
    m = moore_complex(2, 0)     # homology Z/2 in degree 0
    n = moore_complex(2, 1)     # homology Z/2 in degree 1
    report = uct_ladder(m, n, 0)
    assert report.discrepancy == FpAbelianGroup.cyclic(2)
    at_cut = report.rung_at(0)
    assert at_cut.middle == FpAbelianGroup.cyclic(2)
    assert at_cut.middle_cut.is_zero
    assert at_cut.middle != at_cut.middle_cut
    assert report.certificate.passed  # honest: obstruction recorded, not hidden


def test_ladder_equality_at_the_cut_for_torsion_free_sources():
    # Ext out of free homology vanishes, so the cut rung closes up even
    # though the target still has homology right above the cut.
    m = direct_sum(sphere_complex(0), disk_complex(2))
    n = direct_sum(sphere_complex(0), sphere_complex(2))
    report = uct_ladder(m, n, 1)
    assert report.certificate.passed
    assert report.discrepancy.is_zero
    at_cut = report.rung_at(1)
    assert at_cut.middle == at_cut.middle_cut


def test_ladder_equality_at_a_cut_with_nothing_above_it():
    m = direct_sum(moore_complex(3, 0), sphere_complex(0))
    n = direct_sum(sphere_complex(0), sphere_complex(2))
    report = uct_ladder(m, n, 2)
    assert report.certificate.passed
    assert report.discrepancy.is_zero
    assert report.rung_at(2).middle == report.rung_at(2).middle_cut


def test_ladder_requires_a_free_source():
    with pytest.raises(NotCofibrant):
        uct_ladder(cyclic_layer(2, 0), sphere_complex(0), 1)


@given(concentrated_st, pieces_st, st.integers(-1, 4))
@settings(max_examples=25, deadline=None)
def test_ladder_certifications_hold(m_pieces, n_pieces, cut):
    m = build_sum(m_pieces)
    n = build_sum(n_pieces)
    report = uct_ladder(m, n, cut)
    assert report.certificate.passed, report.certificate.failures()
    at_cut = report.rung_at(cut)
    if report.discrepancy.is_zero:
        assert at_cut.middle == at_cut.middle_cut
    else:
        assert at_cut.middle != at_cut.middle_cut
