"""Tests for the truncation homotopy-fiber machinery: the factored cospan,
the colocality biconditional, the counit facts, and single layers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cut_st, free_sum, small_free_pieces_st
from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    cotuple,
    degreewise_kernel,
    direct_sum,
    direct_sum_map,
    disk_complex,
    homology,
    homology_group,
    is_quasi_iso,
    les_certificate,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.errors import NotCofibrant
from towercalc.exactalg import FpAbelianGroup, GroupMap, IntegerMatrix, Presentation
from towercalc.hofib import (
    build_hofib_section,
    compatibility_check,
    derived_counit_check,
    fibrant_adjustment,
    hofib_factorization,
    layer_equivalence_check,
)
from towercalc.sections import CospanSection, surjective_in_positive_degrees
from towercalc.trunc import connective_cover, postnikov_section

# ---------------------------------------------------------------------------
# reference: cover one generator at a time, summing one disk per step


def _one_disk_cover(p, i, g):
    gens = p.pres_at(i).generators
    top = IntegerMatrix.from_cols([[1 if r == g else 0 for r in range(gens)]], rows=gens)
    return ChainMap(disk_complex(i), p, (p.diff_at(i) @ top, top))


def folded_factorization(x, k):
    p, q = postnikov_section(x, k)
    incl, proj = ChainMap.identity(x), q
    for i in p.span():
        for g in range(p.pres_at(i).generators):
            incl = direct_sum_map(incl, ChainMap.zero_map(zero_complex(), disk_complex(i)))
            proj = cotuple(proj, _one_disk_cover(p, i, g))
    return incl, proj


def folded_adjustment(s):
    left, right = s.left, s.right
    for i in s.x0.span():
        for g in range(s.x0.pres_at(i).generators):
            left = cotuple(left, _one_disk_cover(s.x0, i, g))
            right = cotuple(right, _one_disk_cover(s.x0, i, g))
    return CospanSection(left.source, s.x0, right.source, left, right, tags=s.tags)


# ---------------------------------------------------------------------------
# the factored section


def test_section_above_the_top_keeps_everything():
    x = sphere_complex(1)
    s = build_hofib_section(x, 2)
    assert tuple(map(str, s.tags)) == ("point", "ptype:2", "plain")
    assert s.x1.is_zero
    assert homology(s.x0) == homology(x)
    assert homology(s.x2) == homology(x)
    assert is_quasi_iso(s.right).passed


def test_section_below_the_bottom_is_all_fiber():
    x = sphere_complex(1)
    s = build_hofib_section(x, 0)
    assert s.x0.is_zero
    assert homology(s.x2) == homology(x)


def test_factorization_shape():
    x = direct_sum(moore_complex(2, 1), sphere_complex(0))
    incl, proj = hofib_factorization(x, 1)
    assert incl.source == x
    assert incl.target == proj.source
    assert is_quasi_iso(incl).passed
    for i in proj.target.span():
        comp = GroupMap(proj.source.pres_at(i), proj.target.pres_at(i),
                        proj.component_at(i))
        assert comp.is_surjective()
    coker_sizes = [proj.source.pres_at(i).generators - x.pres_at(i).generators
                   for i in proj.source.span() if i in x.span()]
    assert all(c >= 0 for c in coker_sizes)


def test_fiber_homology_matches_the_cover_on_a_moore_cut():
    x = moore_complex(2, 1)
    _, proj = hofib_factorization(x, 1)
    fiber, _ = degreewise_kernel(proj)
    cover, _ = connective_cover(x, 1)
    assert homology(fiber) == homology(cover)


def test_relations_are_not_cofibrant():
    torsion = ChainComplex(0, (Presentation(1, IntegerMatrix.from_rows([[2]])),), ())
    with pytest.raises(NotCofibrant):
        build_hofib_section(torsion, 0)


def test_adjusted_section_has_surjective_legs():
    x = direct_sum(moore_complex(3, 2), sphere_complex(1))
    s = fibrant_adjustment(build_hofib_section(x, 1))
    assert surjective_in_positive_degrees(s.left, "left").passed
    assert surjective_in_positive_degrees(s.right, "right").passed
    assert homology(s.x1) == homology(zero_complex())
    assert homology(s.x0) == homology(x).truncated(1)


@given(small_free_pieces_st, cut_st)
@settings(max_examples=40, deadline=None)
def test_one_shot_disk_cover_matches_the_per_generator_fold(pieces, k):
    x = free_sum(pieces)
    assert hofib_factorization(x, k) == folded_factorization(x, k)
    s = build_hofib_section(x, k)
    assert fibrant_adjustment(s) == folded_adjustment(s)


def test_factorization_builds_as_many_chain_maps_for_any_section_size(monkeypatch):
    built = []
    check = ChainMap.__init__

    def counted(self, *fields):
        built.append(self)
        check(self, *fields)

    monkeypatch.setattr(ChainMap, "__init__", counted)
    counts = []
    for rank in (2, 12):
        x = sphere_complex(0, rank)
        assert postnikov_section(x, 0)[0].pres_at(0).generators == rank
        built.clear()
        hofib_factorization(x, 0)
        counts.append(len(built))
    assert counts[0] == counts[1]


@given(small_free_pieces_st, cut_st)
@settings(max_examples=30, deadline=None)
def test_fiber_always_carries_the_cover_homology(pieces, k):
    x = free_sum(pieces)
    _, proj = hofib_factorization(x, k)
    fiber, _ = degreewise_kernel(proj)
    cover, _ = connective_cover(x, k)
    assert homology(fiber) == homology(cover)


@given(small_free_pieces_st, cut_st)
@settings(max_examples=30, deadline=None)
def test_adjusted_sections_are_always_fibrant(pieces, k):
    s = fibrant_adjustment(build_hofib_section(free_sum(pieces), k))
    assert surjective_in_positive_degrees(s.left, "left").passed
    assert surjective_in_positive_degrees(s.right, "right").passed


# ---------------------------------------------------------------------------
# compatibility of the cover/truncation pair


def test_shifted_sphere_is_colocal():
    cert = compatibility_check(1, [sphere_complex(2)])
    assert cert.passed
    (child,) = cert.children
    assert child.witness["colocal"] is True
    assert child.witness["local_triviality"] is True


def test_sphere_at_the_cut_is_not_colocal():
    cert = compatibility_check(1, [sphere_complex(1)])
    assert cert.passed  # the two sides agree: both false
    (child,) = cert.children
    assert child.witness["colocal"] is False
    assert child.witness["local_triviality"] is False


def test_low_torsion_defeats_both_sides_with_a_witness():
    k = 2
    x = direct_sum(moore_complex(3, k), sphere_complex(k + 2))
    cert = compatibility_check(k, [x])
    (child,) = cert.children
    assert child.passed
    assert child.witness["colocal"] is False
    assert child.witness["degree"] == k


def test_compatibility_requires_free_corpus():
    torsion = ChainComplex(0, (Presentation(1, IntegerMatrix.from_rows([[5]])),), ())
    with pytest.raises(NotCofibrant):
        compatibility_check(0, [sphere_complex(1), torsion])


@given(st.lists(small_free_pieces_st, min_size=1, max_size=4), cut_st)
@settings(max_examples=25, deadline=None)
def test_compatibility_holds_on_generated_corpora(corpus, k):
    cert = compatibility_check(k, [free_sum(p) for p in corpus])
    assert cert.passed, cert.failures()


# ---------------------------------------------------------------------------
# derived counit


def test_counit_on_a_sphere_at_every_cut():
    x = sphere_complex(1)
    for k in range(-1, 4):
        assert derived_counit_check(x, k).passed


def test_counit_across_the_cut_with_a_working_boundary():
    x = moore_complex(3, 0)
    incl, proj = hofib_factorization(x, 0)
    fiber, j = degreewise_kernel(proj)
    # the fiber is a real complex (not the zero object) that the long exact
    # sequence of the degreewise short exact sequence certifies away
    assert not fiber.is_zero
    assert les_certificate(j, proj).passed
    assert derived_counit_check(x, 0).passed


@given(small_free_pieces_st, cut_st)
@settings(max_examples=25, deadline=None)
def test_counit_properties(pieces, k):
    assert derived_counit_check(free_sum(pieces), k).passed


# ---------------------------------------------------------------------------
# single layers


def test_layer_of_separated_spheres_is_one_free_group():
    x = direct_sum(sphere_complex(1), sphere_complex(3))
    cert = layer_equivalence_check(x, 0)
    assert cert.passed
    for child in cert.children:
        assert child.witness["value"] == str(FpAbelianGroup(1, ()))


def test_layer_with_nothing_above_the_cut_is_acyclic():
    cert = layer_equivalence_check(sphere_complex(0), 0)
    assert cert.passed
    for child in cert.children:
        assert child.witness["value"] == str(FpAbelianGroup.zero())


def test_layer_of_a_moore_complex_is_its_torsion():
    k = 1
    x = moore_complex(4, k + 1)
    cert = layer_equivalence_check(x, k)
    assert cert.passed
    for child in cert.children:
        assert child.witness["value"] == str(FpAbelianGroup.cyclic(4))


@given(small_free_pieces_st, cut_st)
@settings(max_examples=25, deadline=None)
def test_layer_properties(pieces, k):
    x = free_sum(pieces)
    cert = layer_equivalence_check(x, k)
    assert cert.passed, cert.failures()
