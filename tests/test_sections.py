"""Tests for tower and cospan sections: construction-time validation, the
componentwise weq/cofibration classifier, tower fibrations and fibrancy, and
the truncation-tower builders.

Random complexes are direct sums of elementary pieces with closed-form
homology, as in the complex tests.
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
    is_quasi_iso,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.errors import IllFormedMap, InputError
from towercalc.exactalg import PRIME_CERTIFY_BOUND, FpAbelianGroup, IntegerMatrix, Presentation
from towercalc.sections import (
    MAX_TOWER_LENGTH,
    CospanSection,
    Section,
    SectionMorphism,
    Tag,
    TowerSection,
    classify_injective,
    constant_tower,
    free_postnikov_tower,
    identity_morphism,
    is_homotopy_cartesian,
    is_post_fibrant,
    is_tow_cofibrant,
    is_tower_fibration,
    postnikov_tower,
)
from towercalc.serialize import tower_from_doc, tower_to_doc
from towercalc.trunc import connective_cover, postnikov_section

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


piece_st = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(2, 7))
pieces_st = st.lists(piece_st, min_size=1, max_size=3)
free_pieces_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(2, 7)),
    min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# construction-time validation


def test_tower_requires_matching_endpoints():
    s0, s1 = sphere_complex(0), sphere_complex(1)
    with pytest.raises(IllFormedMap):
        TowerSection((s0, s1), (ChainMap.identity(s0),))


def test_tower_rejects_false_stabilization_claim():
    """No index is taken on trust: a projection Z^2 -> Z is not an identity,
    so the tower derives stabilization 1, never 0."""
    x, y = sphere_complex(0), sphere_complex(0, 2)
    proj = ChainMap(y, x, (IntegerMatrix.from_rows([[1, 0]]),))
    assert TowerSection((x, y), (proj,)).stabilization == 1


def test_cospan_checks_leg_endpoints():
    s = sphere_complex(0)
    with pytest.raises(IllFormedMap):
        CospanSection(s, s, sphere_complex(1), ChainMap.identity(s), ChainMap.identity(s))


def test_section_rejects_edges_to_vertices_it_does_not_have():
    """On one vertex, an edge to vertex 1 or to vertex -1 names no vertex;
    neither may index past the end or wrap around to the last vertex."""
    s = sphere_complex(0)
    for edge in ((0, 1), (0, -1)):
        with pytest.raises(IllFormedMap, match=rf"edge 0 \({edge[0]}, {edge[1]}\)"):
            Section((s,), (edge,), (ChainMap.identity(s),), (Tag(),))


def test_morphism_squares_must_commute():
    s = sphere_complex(0)
    tower = constant_tower(s, 1)
    i = ChainMap.identity(s)
    double = ChainMap(s, s, (IntegerMatrix.from_rows([[2]]),))
    cospan = CospanSection(s, s, s, i, i)
    assert identity_morphism(cospan).components == (i, i, i)
    bad = [
        (tower, tower, (i, double)),
        (tower, cospan, (i, i, i)),  # a tower -> cospan morphism
        (tower, constant_tower(s, 2), (i, i)),  # towers of different lengths
        (tower, tower, (i, i, i)),  # the wrong number of components
        (tower, tower, (i, ChainMap.identity(sphere_complex(1)))),  # wrong endpoints
        (constant_tower(s, 0), constant_tower(sphere_complex(1), 0), (i,)),  # wrong target
        (cospan, cospan, (i, i, double)),  # the right square does not commute
    ]
    for source, target, components in bad:
        with pytest.raises(IllFormedMap):
            SectionMorphism(source, target, components)


# ---------------------------------------------------------------------------
# componentwise classification


def test_identity_morphism_is_weq_and_cofibration():
    tower = postnikov_tower(moore_complex(3, 1), 2)
    cert = classify_injective(identity_morphism(tower))
    assert cert.passed
    assert cert.witness == {"weq": True, "cofib": True}


def test_cover_inclusion_is_a_cofibration_but_not_a_weq():
    x = direct_sum(sphere_complex(0), sphere_complex(2))
    cover, j = connective_cover(x, 0)
    phi = SectionMorphism(constant_tower(cover, 1), constant_tower(x, 1), (j, j))
    cert = classify_injective(phi)
    assert cert.witness["cofib"]
    assert not cert.witness["weq"]  # H_0 is dropped by the cover


def test_non_injective_component_is_flagged_with_its_level():
    s = sphere_complex(0)
    zero_tower = constant_tower(zero_complex(), 1)
    phi = SectionMorphism(constant_tower(s, 1), zero_tower,
                          (ChainMap.zero_map(s, zero_complex()),) * 2)
    cert = classify_injective(phi)
    assert not cert.witness["cofib"]
    bad = [c for c in cert.children if c.check == "componentwise_cofibration"][0]
    assert bad.witness["level"] == 0 and bad.witness["degree"] == 0


def test_torsion_cokernel_blocks_the_cofibration_verdict():
    s = sphere_complex(0)
    double = ChainMap(s, s, (IntegerMatrix.from_rows([[2]]),))
    phi = SectionMorphism(constant_tower(s, 0), constant_tower(s, 0), (double,))
    cert = classify_injective(phi)
    assert not cert.witness["cofib"]
    assert cert.witness["weq"] is False  # x2 is not an iso on H_0


def first_summand_inclusion(a, b):
    """The inclusion of a into b = direct_sum(a, rest)."""
    comps = []
    for i in a.span():
        ga, gb = a.pres_at(i).generators, b.pres_at(i).generators
        comps.append(IntegerMatrix.from_cols(
            [tuple(1 if r == col else 0 for r in range(gb)) for col in range(ga)],
            rows=gb))
    return ChainMap(a, b, tuple(comps))


@given(free_pieces_st, free_pieces_st)
@settings(max_examples=30, deadline=None)
def test_composite_of_cofibrations_is_a_cofibration(left, right):
    a = build_sum(left)
    b = direct_sum(a, build_sum(right))
    c = direct_sum(b, sphere_complex(1))
    phi1 = SectionMorphism(constant_tower(a, 0), constant_tower(b, 0),
                           (first_summand_inclusion(a, b),))
    phi2 = SectionMorphism(constant_tower(b, 0), constant_tower(c, 0),
                           (first_summand_inclusion(b, c),))
    assert classify_injective(phi1).witness["cofib"]
    assert classify_injective(phi2).witness["cofib"]
    composite = SectionMorphism(
        phi1.source, phi2.target,
        tuple(g.compose(f) for f, g in zip(phi1.components, phi2.components)))
    assert classify_injective(composite).witness["cofib"]


# ---------------------------------------------------------------------------
# tower fibrations


def test_projection_to_the_zero_tower_is_a_fibration():
    x = direct_sum(moore_complex(2, 1), sphere_complex(0))
    tower = postnikov_tower(x, 2)
    zt = constant_tower(zero_complex(), 2)
    phi = SectionMorphism(tower, zt, tuple(
        ChainMap.zero_map(tower.level(i), zero_complex()) for i in range(3)))
    assert is_tower_fibration(phi).passed


def test_missing_pullback_generator_fails_with_witness():
    s1 = sphere_complex(1)
    double = ChainMap(s1, s1, (IntegerMatrix.from_rows([[2]]),))
    tower = TowerSection((s1, s1), (double,))
    zt = constant_tower(zero_complex(), 1)
    phi = SectionMorphism(tower, zt,
                          (ChainMap.zero_map(s1, zero_complex()),) * 2)
    cert = is_tower_fibration(phi)
    assert not cert.passed
    assert cert.failures()[0].witness["degree"] == 1


# ---------------------------------------------------------------------------
# fibrancy of towers


def test_postnikov_tower_is_fibrant():
    x = direct_sum(moore_complex(4, 0), sphere_complex(2))
    assert is_post_fibrant(postnikov_tower(x, 3)).passed


def test_zero_tower_is_fibrant():
    assert is_post_fibrant(constant_tower(zero_complex(), 2)).passed


def test_non_surjective_structure_map_fails_fibrancy_both_ways():
    m = moore_complex(2, 0)
    zero_map = ChainMap(m, m, (IntegerMatrix.zero(1, 1), IntegerMatrix.zero(1, 1)))
    tower = TowerSection((m, m), (zero_map,))
    cert = is_post_fibrant(tower)
    assert not cert.passed
    for route in cert.children:
        assert not route.passed


# ---------------------------------------------------------------------------
# homotopy-cartesian and cofibrant towers


def test_constant_tower_is_homotopy_cartesian():
    x = direct_sum(moore_complex(2, 0), sphere_complex(1))
    assert is_homotopy_cartesian(constant_tower(x, 2)).passed


def test_dropping_a_level_breaks_homotopy_cartesianness():
    s = sphere_complex(0)
    zc = zero_complex()
    tower = TowerSection(
        (zc, zc, s),
        (ChainMap.zero_map(zc, zc), ChainMap.zero_map(s, zc)))
    cert = is_homotopy_cartesian(tower)
    assert not cert.passed
    assert cert.failures()[0].witness["level"] == 1


def test_torsion_level_is_not_cofibrant():
    tower = postnikov_tower(moore_complex(2, 0), 1)
    cert = is_tow_cofibrant(tower)
    assert not cert.passed
    assert any(c.check == "level_free" and not c.passed for c in cert.children)


def test_structure_map_dropping_homology_is_not_cofibrant():
    s = sphere_complex(0)
    tower = TowerSection((s, s), (ChainMap(s, s, (IntegerMatrix.zero(1, 1),)),))
    cert = is_tow_cofibrant(tower)
    assert not cert.passed
    assert any(c.check == "structure_map_weq" and not c.passed for c in cert.children)


def test_homotopy_cartesian_cospan_with_truncated_vertex():
    x = direct_sum(moore_complex(3, 1), sphere_complex(0))
    p, q = postnikov_section(x, 1)
    cospan = CospanSection(x, p, x, q, q, ("plain", "ptype:1", "plain"))
    assert is_homotopy_cartesian(cospan).passed


def test_homotopy_cartesian_cospan_fails_on_a_dead_leg():
    x = sphere_complex(0)
    p, q = postnikov_section(x, 1)
    dead = ChainMap.zero_map(zero_complex(), p)
    cospan = CospanSection(zero_complex(), p, x, dead, q, ("point", "ptype:1", "plain"))
    cert = is_homotopy_cartesian(cospan)
    assert not cert.passed
    assert cert.failures()[0].check == "left_leg_weq"


def test_cospan_parses_its_tags_once():
    x = sphere_complex(0)
    i = ChainMap.identity(x)
    for level in ("x", "", "1.5", "+1", " 1", "1_0", "7" * 5000):
        with pytest.raises(InputError):
            CospanSection(x, x, x, i, i, ("plain", f"ptype:{level}", "plain"))
    for bad in ("local:4", "local:x", "local:", "local:,", "local:1_3", "local:+3",
                "local:-3", "local:" + "7" * 5000, f"local:{PRIME_CERTIFY_BOUND + 2}",
                "bogus", "Plain", "rational:2", "ptype"):
        with pytest.raises(InputError):
            CospanSection(x, x, x, i, i, (bad, "plain", "plain"))
    with pytest.raises(InputError):
        CospanSection(x, x, x, i, i, ("plain", 3, "plain"))
    assert CospanSection(x, x, x, i, i, ("plain", "ptype:-2", "plain")).tags[1].level == -2
    assert CospanSection(x, x, x, i, i, ("plain", "rational", "plain")).tags[1].level is None
    # blanks around and between primes are skipped; the text is canonical
    spaced = CospanSection(x, x, x, i, i, ("local: 3, ,2,", "rational", "point"))
    assert spaced.tags[0] == Tag("local", primes=frozenset({2, 3}))
    assert tuple(map(str, spaced.tags)) == ("local:2,3", "rational", "point")
    for text in ("plain", "point", "ptype:0", "ptype:-2", "rational", "local:2,3,5"):
        assert str(Tag.parse(text)) == text


# ---------------------------------------------------------------------------
# tower builders


def test_sphere_tower_levels():
    tower = postnikov_tower(sphere_complex(2), 4)
    assert tower.level(0).is_zero and tower.level(1).is_zero
    for i in (2, 3, 4):
        assert tower.level(i) == sphere_complex(2)
    assert tower.stabilization == 2


def test_moore_tower_homology_per_level():
    x = moore_complex(2, 1)  # degrees 2, 1; homology Z/2 in degree 1
    tower = postnikov_tower(x, 3)
    assert homology_group(tower.level(0), 0).is_zero
    assert homology_group(tower.level(1), 1) == FpAbelianGroup.cyclic(2)
    for i in (2, 3):
        assert homology(tower.level(i)) == homology(x)


def test_tower_length_must_reach_the_top_degree():
    with pytest.raises(ValueError):
        postnikov_tower(sphere_complex(3), 1)
    # a top degree past the int-to-str digit limit is written in hex
    top = 10 ** 4300
    with pytest.raises(InputError, match=f"top degree {hex(top)} or level 0"):
        postnikov_tower(sphere_complex(top), 0)


def test_tower_length_below_level_zero_is_an_input_error():
    # a negative top degree must not let a length below 0 through to an empty tower
    with pytest.raises(InputError):
        postnikov_tower(sphere_complex(2), 1)
    for build in (postnikov_tower, free_postnikov_tower):
        for x in (zero_complex(), sphere_complex(-2)):
            with pytest.raises(InputError):
                build(x, -1)
    assert postnikov_tower(zero_complex(), 0).length == 0
    assert postnikov_tower(sphere_complex(-2), 0).length == 0


def test_tower_length_past_the_bound_is_an_input_error():
    # a shifted complex would otherwise have every level from 0 up built
    x = moore_complex(6, 10**18)
    for build in (postnikov_tower, free_postnikov_tower):
        with pytest.raises(InputError, match=f"bound of {MAX_TOWER_LENGTH} "):
            build(x, x.top_deg + 1)
        with pytest.raises(InputError):
            build(sphere_complex(0), MAX_TOWER_LENGTH + 1)
    assert MAX_TOWER_LENGTH == 10_000


@given(pieces_st)
@settings(max_examples=25, deadline=None)
def test_postnikov_tower_is_fibrant_and_its_free_model_is_cofibrant(pieces):
    x = build_sum(pieces)
    m = max(x.top_deg, 0) + 1
    tower = postnikov_tower(x, m)
    assert is_post_fibrant(tower).passed
    free_tower, compare = free_postnikov_tower(x, m)
    assert is_tow_cofibrant(free_tower).passed
    assert is_homotopy_cartesian(free_tower).passed
    for comp in compare.components:
        assert is_quasi_iso(comp).passed


@given(pieces_st)
@settings(max_examples=25, deadline=None)
def test_free_tower_levels_match_truncated_homology(pieces):
    x = build_sum(pieces)
    m = max(x.top_deg, 0)
    free_tower, _ = free_postnikov_tower(x, m)
    for n in range(m + 1):
        assert homology(free_tower.level(n)) == homology(x).truncated(n)
        assert free_tower.level(n).is_degreewise_free


def _least_constant_index(t):
    def constant_from(s):
        return all(t.level(j + 1) == t.level(j)
                   and t.structure_maps[j] == ChainMap.identity(t.level(j))
                   for j in range(s, t.length))
    return min(s for s in range(t.length + 1) if constant_from(s))


@given(pieces_st, st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_derived_stabilization_is_the_least_constant_index(pieces, extra):
    x = build_sum(pieces)
    m = max(x.top_deg, 0) + extra
    post = postnikov_tower(x, m)
    assert post.stabilization == max(0, min(x.top_deg, m))
    assert [str(t) for t in post.tags] == [f"ptype:{i}" for i in range(m + 1)]
    free, _ = free_postnikov_tower(x, m)
    const = constant_tower(x, extra)
    assert const.stabilization == 0
    for t in (post, free, const):
        assert t.stabilization == _least_constant_index(t)
        loaded = tower_from_doc(tower_to_doc(t))
        assert loaded == t and loaded.stabilization == t.stabilization
