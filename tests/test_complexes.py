"""Tests for chain complexes: homology, mapping complexes, cones, pullbacks,
and free replacement.

Random instances are assembled from elementary summands (spheres, disks,
two-term multiplication blocks, and zero-differential cyclic degrees), so the
expected homology is always known in closed form independently of the
homology engine under test.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_caches
from helpers import (
    complex_from_homology,
    free_sum,
    small_free_pieces_st,
    stepwise_free_approximation,
)
from towercalc.complexes import (
    MAX_DEGREE_SIZE,
    ChainComplex,
    ChainMap,
    HomologyProfile,
    chain_maps_agree,
    cofibrant_replacement,
    cokernel_complex,
    connecting_map,
    degreewise_kernel,
    degreewise_pullback,
    direct_sum,
    direct_sum_map,
    disk_complex,
    disk_cover,
    disk_factorization,
    hom_complex,
    homology,
    homology_data,
    homology_group,
    induced_map,
    is_quasi_iso,
    les_certificate,
    mapping_cone,
    moore_complex,
    shift,
    sphere_complex,
    support,
    zero_complex,
)
from towercalc.errors import IllFormedMap, InputError, NotCofibrant, ValidationError
from towercalc.exactalg import (
    BUILD_CACHE_MAXSIZE,
    CACHE_MAXSIZE,
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    ext_group,
    hom_group,
    integer_kernel,
    kernel_image_cokernel,
    pullback_group,
)
from towercalc.hofib import hofib_factorization
from towercalc.trunc import connective_cover, postnikov_section

# ---------------------------------------------------------------------------
# instance builders with closed-form homology


def cyclic_layer(t, n):
    """Z/t concentrated in degree n (zero differentials)."""
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
    """Direct sum of elementary pieces plus its closed-form homology."""
    out = zero_complex()
    expected: dict[int, FpAbelianGroup] = {}
    for kind, n, t in pieces:
        cx, h = _piece(kind, n, t)
        out = direct_sum(out, cx)
        for d, g in h.items():
            expected[d] = expected.get(d, FpAbelianGroup.zero()).direct_sum(g)
    return out, HomologyProfile.of(expected.items())


piece_st = st.tuples(st.integers(0, 3), st.integers(-2, 4), st.integers(2, 9))
free_piece_st = st.tuples(st.integers(0, 2), st.integers(-2, 4), st.integers(2, 9))
pieces_st = st.lists(piece_st, min_size=1, max_size=4)
free_pieces_st = st.lists(free_piece_st, min_size=1, max_size=4)


# ---------------------------------------------------------------------------
# construction-time validation


def test_d_squared_is_rejected():
    with pytest.raises(ValidationError):
        ChainComplex(0,
                     (Presentation.free(1), Presentation.free(1), Presentation.free(1)),
                     (IntegerMatrix.identity(1), IntegerMatrix.identity(1)))


def test_relation_breaking_differential_is_rejected():
    z3 = Presentation(1, IntegerMatrix.from_rows([[3]]))
    z2 = Presentation(1, IntegerMatrix.from_rows([[2]]))
    with pytest.raises(ValidationError):
        ChainComplex(0, (z3, z2), (IntegerMatrix.from_rows([[1]]),))
    # only a relation-free source skips the check, never a relation-free target
    with pytest.raises(ValidationError):
        ChainComplex(0, (Presentation.free(1), z2), (IntegerMatrix.from_rows([[1]]),))


def test_zero_degree_windows_are_stripped():
    padded = ChainComplex(
        -1,
        (Presentation.free(0), Presentation.free(1), Presentation.free(0)),
        (IntegerMatrix.zero(0, 1), IntegerMatrix.zero(1, 0)),
    )
    assert padded == sphere_complex(0)
    assert padded.min_deg == 0 and len(padded.degrees) == 1


def test_chain_map_commutation_is_enforced():
    with pytest.raises(IllFormedMap):
        # disk -> sphere(0) "collapse" does not commute with d
        ChainMap(disk_complex(1), sphere_complex(0),
                 (IntegerMatrix.identity(1), IntegerMatrix.zero(0, 1)))
    # the square at the source's lowest degree, where only the target goes on below
    with pytest.raises(IllFormedMap, match="square at degree 1"):
        ChainMap(sphere_complex(1), disk_complex(1), (IntegerMatrix.identity(1),))


def test_relation_breaking_chain_map_is_rejected():
    z2 = ChainComplex(0, (Presentation(1, IntegerMatrix.from_rows([[2]])),), ())
    with pytest.raises(IllFormedMap):
        ChainMap(z2, sphere_complex(0), (IntegerMatrix.identity(1),))
    ChainMap(z2, z2, (IntegerMatrix.from_rows([[3]]),))


def test_rejections_at_huge_degrees_write_the_degree_in_hex():
    # one digit past the int-to-str limit: str() of these degrees raises
    n = 10 ** 4300
    free = Presentation.free(1)
    z2 = Presentation(1, IntegerMatrix.from_rows([[2]]))
    z3 = Presentation(1, IntegerMatrix.from_rows([[3]]))
    with pytest.raises(ValidationError, match=f"degree {hex(n + 1)}: differential shape"):
        ChainComplex(n, (free, free), (IntegerMatrix.zero(2, 1),))
    with pytest.raises(ValidationError, match=f"degree {hex(n + 1)}: differential does not"):
        ChainComplex(n, (z3, z2), (IntegerMatrix.from_rows([[1]]),))
    with pytest.raises(ValidationError, match=f"degree {hex(n + 2)}: d composed with d"):
        ChainComplex(n, (free, free, free), (IntegerMatrix.identity(1),) * 2)
    torsion = ChainComplex(n, (z2,), ())
    with pytest.raises(IllFormedMap, match=f"component at degree {hex(n)} has shape"):
        ChainMap(torsion, torsion, (IntegerMatrix.zero(2, 1),))
    with pytest.raises(IllFormedMap, match=f"component at degree {hex(n)} does not respect"):
        ChainMap(torsion, sphere_complex(n), (IntegerMatrix.identity(1),))
    with pytest.raises(IllFormedMap, match=f"square at degree {hex(n)} does not commute"):
        ChainMap(disk_complex(n), sphere_complex(n - 1),
                 (IntegerMatrix.identity(1), IntegerMatrix.zero(0, 1)))


# ---------------------------------------------------------------------------
# homology


def test_homology_of_sphere():
    assert homology(sphere_complex(3)) == HomologyProfile.of([(3, FpAbelianGroup.free(1))])


def test_homology_of_disk_vanishes():
    assert homology(disk_complex(5)) == HomologyProfile.of([])


def test_homology_of_moore_complex():
    prof = homology(moore_complex(2, 0))
    # oracle: kernel/cokernel of the 1x1 matrix [2] on Z
    f = GroupMap(Presentation.free(1), Presentation.free(1), IntegerMatrix.from_rows([[2]]))
    ker, _, coker = kernel_image_cokernel(f)
    assert prof.at(1) == ker == FpAbelianGroup.zero()
    assert prof.at(0) == coker == FpAbelianGroup.cyclic(2)


@given(pieces_st)
@settings(max_examples=120, deadline=None)
def test_homology_of_elementary_sums(pieces):
    cx, expected = build_sum(pieces)
    assert homology(cx) == expected


def test_normal_form_caches_are_bounded():
    # the whole inventory: a new memo is a deliberate, measured edit here
    caches = all_caches()
    assert set(caches) == {
        "towercalc.exactalg._normal_forms", "towercalc.complexes.homology_data",
        "towercalc.exactalg.solve_matrix", "towercalc.exactalg.preimage_lattice",
        "towercalc.exactalg.subquotient", "towercalc.trunc.postnikov_section",
        "towercalc.hofib.hofib_factorization", "towercalc.holim.tower_limit",
        "towercalc.exactalg.IntegerMatrix.zero", "towercalc.exactalg.IntegerMatrix.identity",
        "towercalc.exactalg.Presentation.free", "towercalc.serialize.loads",
        "towercalc.cli._build_parser"}
    for name, fn in caches.items():
        assert fn.cache_info().maxsize in (CACHE_MAXSIZE, BUILD_CACHE_MAXSIZE), name
    first = moore_complex(2, 0)
    want = homology_data(first, 0)
    for t in range(3, CACHE_MAXSIZE + 50):
        x = moore_complex(t, 0)
        homology_data(x, 0)
        induced_map(postnikov_section(x, 0)[1], 0)
        connective_cover(x, 0)
    for name, fn in caches.items():
        info = fn.cache_info()
        assert info.currsize <= info.maxsize, name
    misses = homology_data.cache_info().misses
    assert homology_data(first, 0) == want
    assert homology_data.cache_info().misses == misses + 1  # it had been evicted


# ---------------------------------------------------------------------------
# quasi-isomorphisms


def test_identity_is_quasi_iso():
    x = moore_complex(6, 1)
    assert is_quasi_iso(ChainMap.identity(x))


def test_disk_to_zero_is_quasi_iso():
    cert = is_quasi_iso(ChainMap.zero_map(disk_complex(4), zero_complex()))
    assert cert.passed


def test_sphere_into_moore_fails_at_zero():
    f = ChainMap(sphere_complex(0), moore_complex(2, 0),
                 (IntegerMatrix.identity(1),))
    cert = is_quasi_iso(f)
    assert not cert.passed
    assert cert.witness["degree"] == 0


# ---------------------------------------------------------------------------
# shift, direct sum, cone


@given(pieces_st, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_shift_moves_homology(pieces, n):
    cx, expected = build_sum(pieces)
    assert shift(cx, n).differentials == tuple(
        d.scale(-1 if n % 2 else 1) for d in cx.differentials)
    assert homology(shift(cx, n)) == expected.shifted(n)


def test_shift_of_base_sphere():
    assert shift(sphere_complex(0), 4) == sphere_complex(4)
    assert shift(sphere_complex(2), -2) == sphere_complex(0)


@given(pieces_st, pieces_st)
@settings(max_examples=60, deadline=None)
def test_direct_sum_homology_is_additive(p1, p2):
    x, hx = build_sum(p1)
    y, hy = build_sum(p2)
    total = {}
    for d in set(hx.support()) | set(hy.support()):
        total[d] = hx.at(d).direct_sum(hy.at(d))
    assert homology(direct_sum(x, y)) == HomologyProfile.of(total.items())


@given(pieces_st)
@settings(max_examples=60, deadline=None)
def test_cone_of_identity_is_acyclic(pieces):
    cx, _ = build_sum(pieces)
    cone = mapping_cone(ChainMap.identity(cx))
    assert homology(cone) == HomologyProfile.of([])


def test_cone_detects_non_quasi_iso():
    f = ChainMap(sphere_complex(0), moore_complex(2, 0), (IntegerMatrix.identity(1),))
    cone = mapping_cone(f)
    # H(cone) = Z in degree 1: the kernel 2Z of Z -> Z/2, shifted up
    assert homology(cone) == HomologyProfile.of([(1, FpAbelianGroup.free(1))])
    assert not is_quasi_iso(f).passed


def test_a_cone_with_a_zero_side_is_the_other_side():
    """Cone(0 -> Y) is Y itself and Cone(X -> 0) is X shifted up by one, with
    no window laid out between the two sides, however far apart they are."""
    far = sphere_complex(10**12)
    assert mapping_cone(ChainMap.zero_map(zero_complex(), far)) is far
    cone = mapping_cone(ChainMap.zero_map(moore_complex(3, 10**12), zero_complex()))
    assert cone == ChainComplex(10**12 + 1, (Presentation.free(1),) * 2,
                                (IntegerMatrix.from_rows([[-3]]),))
    # checked both ways: a map between complexes 10^12 apart commutes at once
    assert is_quasi_iso(ChainMap(sphere_complex(-10**12), sphere_complex(10**12),
                                 (IntegerMatrix.zero(0, 1),))).witness["degree"] == -10**12


def test_support_skips_the_degrees_where_every_complex_is_zero():
    assert support() == support(zero_complex()) == ()
    # windows that overlap or touch give one range
    assert support(moore_complex(2, 3), zero_complex(), sphere_complex(5)) == range(3, 6)
    assert support(disk_complex(5), sphere_complex(4)) == range(4, 6)
    # a gap is skipped, however wide
    assert support(sphere_complex(7), disk_complex(5)) == (4, 5, 7)
    assert support(sphere_complex(10**12), sphere_complex(-10**12)) == (-10**12, 10**12)


# ---------------------------------------------------------------------------
# mapping complexes


@given(free_pieces_st, st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_hom_out_of_a_sphere_shifts(pieces, i):
    n, hn = build_sum(pieces)
    hom = hom_complex(sphere_complex(i), n)
    # H_k(Hom(Z[i], N)) = H_{k+i}(N)
    assert homology(hom) == hn.shifted(-i)


def test_hom_into_zero_complex():
    assert hom_complex(moore_complex(3, 0), zero_complex()) == zero_complex()


def test_hom_requires_free_source():
    with pytest.raises(NotCofibrant):
        hom_complex(cyclic_layer(2, 0), sphere_complex(0))


def test_hom_degree_sizes_sum_over_the_source_window():
    """Degree 0 of hom(M, M) has 32 * 32 + 1 * 1 generators here, one past the
    bound, and is refused before any matrix is built; so is a degree of two
    generators with 2 * 513 relations."""
    m = direct_sum(sphere_complex(0, 32), sphere_complex(1))
    with pytest.raises(InputError, match=f"degree 0 has {MAX_DEGREE_SIZE + 1} generators"):
        hom_complex(m, m)
    many_relations = ChainComplex(0, (Presentation(1, IntegerMatrix.from_rows([[2] * 513])),), ())
    with pytest.raises(InputError, match="degree 0 has 1026 relations"):
        hom_complex(sphere_complex(0, 2), many_relations)
    assert homology(hom_complex(m, sphere_complex(1))) == HomologyProfile.of(
        [(0, FpAbelianGroup.free(1)), (1, FpAbelianGroup.free(32))])


def test_hom_moore_into_sphere_frozen():
    hom = hom_complex(moore_complex(2, 0), sphere_complex(0))
    assert homology(hom) == HomologyProfile.of([(-1, FpAbelianGroup.cyclic(2))])


def test_hom_moore_into_moore_frozen():
    hom = hom_complex(moore_complex(2, 0), moore_complex(4, 0))
    assert homology(hom) == HomologyProfile.of(
        [(-1, FpAbelianGroup.cyclic(2)), (0, FpAbelianGroup.cyclic(2))])


@given(free_pieces_st, free_pieces_st)
@settings(max_examples=40, deadline=None)
def test_hom_homology_sizes_follow_uct(mp, np_):
    m, hm = build_sum(mp)
    n, hn = build_sum(np_)
    hom = hom_complex(m, n)
    lo = hom.min_deg - 1 if not hom.is_zero else 0
    hi = hom.top_deg + 1 if not hom.is_zero else 0
    for i in range(lo, hi + 1):
        got = homology_group(hom, i)
        hom_term = FpAbelianGroup.zero()
        ext_term = FpAbelianGroup.zero()
        for s in set(hm.support()):
            hom_term = hom_term.direct_sum(hom_group(hm.at(s), hn.at(s + i)))
            ext_term = ext_term.direct_sum(ext_group(hm.at(s), hn.at(s + i + 1)))
        assert got.rank == hom_term.rank + ext_term.rank
        if got.rank == 0:
            assert got.torsion_order == hom_term.torsion_order * ext_term.torsion_order


# ---------------------------------------------------------------------------
# degreewise pullback / kernel / cokernel


def _assert_degreewise_pullback_groups(pb, f, g):
    """Each degree of the chain-level pullback is the group-level pullback of
    that degree's components, whose square commutes."""
    for i in range(min(f.source.min_deg, g.source.min_deg),
                   max(f.source.top_deg, g.source.top_deg) + 1):
        fi, gi = (GroupMap(h.source.pres_at(i), h.target.pres_at(i), h.component_at(i))
                  for h in (f, g))
        group, p1, p2 = pullback_group(fi, gi)
        assert pb.pres_at(i).group() == group
        assert fi.target.contains_in_relations(fi.matrix @ p1.matrix - gi.matrix @ p2.matrix)


@given(pieces_st)
@settings(max_examples=40, deadline=None)
def test_pullback_of_identities(pieces):
    cx, _ = build_sum(pieces)
    ident = ChainMap.identity(cx)
    pb, p1, p2 = degreewise_pullback(ident, ident)
    assert is_quasi_iso(p1).passed and is_quasi_iso(p2).passed
    _assert_degreewise_pullback_groups(pb, ident, ident)


@given(pieces_st, pieces_st)
@settings(max_examples=40, deadline=None)
def test_pullback_over_zero_is_sum(p1, p2):
    x, _ = build_sum(p1)
    y, _ = build_sum(p2)
    f = ChainMap.zero_map(x, zero_complex())
    g = ChainMap.zero_map(y, zero_complex())
    pb, _, _ = degreewise_pullback(f, g)
    assert homology(pb) == homology(direct_sum(x, y))
    _assert_degreewise_pullback_groups(pb, f, g)


def test_pullback_of_surjection_against_zero_is_kernel():
    x = direct_sum(moore_complex(2, 0), sphere_complex(0))
    p = sphere_complex(0)
    q = ChainMap(x, p, (IntegerMatrix.from_rows([[0, 1]]), IntegerMatrix.zero(0, 1)))
    z = ChainMap.zero_map(zero_complex(), p)
    pb, p1, p2 = degreewise_pullback(q, z)
    ker, incl = degreewise_kernel(q)
    assert homology(pb) == homology(ker) == homology(moore_complex(2, 0))
    _assert_degreewise_pullback_groups(pb, q, z)
    # with a zero leg source, A + 0 is A itself, so the pullback is the kernel
    assert (pb, p1) == (ker, incl) and p2.target.is_zero
    pb, p1, p2 = degreewise_pullback(z, q)
    assert (pb, p2) == (ker, incl) and p1.target.is_zero


def test_cokernel_complex_of_multiplication():
    two = ChainMap(sphere_complex(0), sphere_complex(0), (IntegerMatrix.from_rows([[2]]),))
    quo, q = cokernel_complex(two)
    assert homology(quo) == HomologyProfile.of([(0, FpAbelianGroup.cyclic(2))])
    assert induced_map(q, 0).is_surjective()


@given(small_free_pieces_st)
@settings(max_examples=25, deadline=None)
def test_disk_cover_is_onto_from_free_acyclic_disks(pieces):
    """At every cut, from below the complex's degrees to above them, the
    cover of the section is onto in every degree from a degreewise-free
    acyclic sum of disks, and the homotopy-fiber factorization includes X as
    the first summand of X plus those disks.  The disk factorization of the
    quotient onto the section, of the section's free replacement and of the
    zero map into the section composes back to the map, through an inclusion
    that is a quasi-isomorphism and a projection onto in every degree."""
    x = free_sum(pieces)
    for k in range(x.min_deg - 1, x.top_deg + 2):
        p, q = postnikov_section(x, k)
        cover = disk_cover(p)
        disks = cover.source
        assert disks.is_degreewise_free and homology(disks) == homology(zero_complex())
        for i in support(disks, p):
            assert GroupMap(disks.pres_at(i), p.pres_at(i), cover.component_at(i)).is_surjective()
        assert hofib_factorization(x, k)[0] == direct_sum_map(
            ChainMap.identity(x), ChainMap.zero_map(zero_complex(), disks))
        for f in (q, cofibrant_replacement(p)[1], ChainMap.zero_map(x, p)):
            incl, proj = disk_factorization(f)
            assert chain_maps_agree(proj.compose(incl), f)
            assert is_quasi_iso(incl).passed
            assert all(proj.group_map(i).is_surjective() for i in support(proj.source, p))


# ---------------------------------------------------------------------------
# long exact sequence


def test_les_of_split_sequence():
    a, _ = build_sum([(2, 1, 4)])   # Moore(4) at degree 1
    b, _ = build_sum([(0, 0, 2)])   # sphere at 0
    x = direct_sum(a, b)
    j = ChainMap(a, x, tuple(
        IntegerMatrix.identity(a.pres_at(i).generators).vstack(
            IntegerMatrix.zero(b.pres_at(i).generators, a.pres_at(i).generators))
        for i in a.span()))
    q = ChainMap(x, b, tuple(
        IntegerMatrix.zero(b.pres_at(i).generators, a.pres_at(i).generators).hstack(
            IntegerMatrix.identity(b.pres_at(i).generators))
        for i in x.span()))
    assert les_certificate(j, q).passed


def test_les_with_nontrivial_connecting_map():
    # sphere(0) -> disk(1) -> quotient: the connecting map H_1(Q) -> H_0(C)
    # must be an isomorphism for exactness
    c = sphere_complex(0)
    x = disk_complex(1)
    j = ChainMap(c, x, (IntegerMatrix.identity(1),))
    quo, q = cokernel_complex(j)
    delta = connecting_map(j, q, 1)
    assert delta.is_iso()
    assert les_certificate(j, q).passed


# ---------------------------------------------------------------------------
# cofibrant replacement


def test_replacement_of_free_complex_is_identity():
    x, _ = build_sum([(0, 0, 2), (2, 1, 3)])
    f, q = cofibrant_replacement(x)
    assert f == x
    assert q.components == ChainMap.identity(x).components


def test_replacement_of_cyclic_layer_is_moore():
    f, q = cofibrant_replacement(cyclic_layer(2, 0))
    assert f == moore_complex(2, 0)
    assert is_quasi_iso(q).passed


def test_replacement_of_torsion_acyclic_complex():
    z2 = Presentation(1, IntegerMatrix.from_rows([[2]]))
    x = ChainComplex(0, (z2, z2), (IntegerMatrix.identity(1),))
    assert homology(x) == HomologyProfile.of([])
    f, q = cofibrant_replacement(x)
    assert f.is_degreewise_free
    assert homology(f) == HomologyProfile.of([])
    assert is_quasi_iso(q).passed


@given(pieces_st)
@settings(max_examples=60, deadline=None)
def test_replacement_is_free_and_quasi_iso(pieces):
    x, expected = build_sum(pieces)
    f, q = cofibrant_replacement(x)
    assert f.is_degreewise_free
    assert homology(f) == expected
    assert is_quasi_iso(q).passed


@st.composite
def twisted_complexes(draw):
    """A valid complex with relations in several degrees whose differential
    squares to zero only modulo relations.  A free complex d (d∘d = 0) is
    perturbed by t·E into the degrees lo..k that carry t·I among their
    relations, so d∘d becomes a nonzero multiple of t; each degree also
    carries boundaries d(B) as relations, and a degree may list t·I twice,
    so the relation columns need not be independent."""
    lo = draw(st.integers(-2, 2))
    gens = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
    top = lo + len(gens) - 1
    k = draw(st.integers(lo + 1, top))  # degrees lo..k carry t·I
    t = draw(st.integers(2, 6))

    def small(rows, cols):
        return IntegerMatrix(rows, cols, tuple(
            draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))))

    diffs = [small(gens[0], gens[1])]
    for j in range(2, len(gens)):
        cycles = integer_kernel(diffs[-1])
        diffs.append(cycles @ small(cycles.cols, gens[j]))
    diffs = [d + small(d.rows, d.cols).scale(t) if lo + j <= k else d
             for j, d in enumerate(diffs)]
    degs = []
    for j, g in enumerate(gens):
        rel = IntegerMatrix.zero(g, 0)
        if lo + j <= k:
            torsion = IntegerMatrix.identity(g).scale(t)
            rel = torsion.hstack(torsion) if draw(st.booleans()) else torsion
        if j + 1 < len(gens):
            rel = rel.hstack(diffs[j] @ small(gens[j + 1], draw(st.integers(0, 2))))
        degs.append(Presentation(g, rel))
    return ChainComplex(lo, tuple(degs), tuple(diffs))


def _scaled_block(x, f, block, factor):
    """F's differentials with one block of each D_i times `factor`: "h" is
    the lower-left block (rows past X's generators in degree i-1, columns up
    to X's in degree i), "s" the lower-right one."""
    out = []
    for i in range(f.min_deg + 1, f.top_deg + 1):
        rows, below, here = f.diff_at(i).to_rows(), x.pres_at(i - 1).generators, x.pres_at(i).generators
        for r in range(below, len(rows)):
            for c in range(len(rows[r])):
                if (c < here) == (block == "h"):
                    rows[r][c] *= factor
        out.append(IntegerMatrix(len(rows), f.diff_at(i).cols, tuple(v for row in rows for v in row)))
    return tuple(out)


@given(twisted_complexes())
@settings(max_examples=40, deadline=None)
def test_twisted_replacement_passes_the_public_constructors(x):
    on_generators = [x.diff_at(i - 1) @ x.diff_at(i) for i in range(x.min_deg + 2, x.top_deg + 1)]
    assume(any(not m.is_zero for m in on_generators))
    f, q = cofibrant_replacement(x)
    assert f.is_degreewise_free
    assert ChainComplex(f.min_deg, f.degrees, f.differentials) == f
    assert ChainMap(f, x, q.components) == q
    assert is_quasi_iso(q).passed
    assert homology(f) == homology(x)
    # the stepwise reference route builds another free model of the same homology
    g, p = stepwise_free_approximation(x)
    assert g.is_degreewise_free and is_quasi_iso(p).passed
    assert homology(g) == homology(f)
    # h carries d∘d, and s the differential on relations: neither may be dropped
    for block, factor in (("h", 0), ("s", -1)):
        mutated = _scaled_block(x, f, block, factor)
        if mutated != f.differentials:
            with pytest.raises(ValidationError, match="d composed with d is nonzero"):
                ChainComplex(f.min_deg, f.degrees, mutated)


def test_twisted_replacement_needs_h_and_the_sign_of_s():
    # Z/4 --2--> Z/4 --2--> Z/4: d∘d = 4 vanishes only modulo relations
    z4 = Presentation(1, IntegerMatrix.from_rows([[4]]))
    two = IntegerMatrix.from_rows([[2]])
    x = ChainComplex(0, (z4, z4, z4), (two, two))
    f, q = cofibrant_replacement(x)
    assert homology(f) == homology(x) == HomologyProfile.of(
        [(0, FpAbelianGroup.cyclic(2)), (2, FpAbelianGroup.cyclic(2))])
    assert is_quasi_iso(ChainMap(f, x, q.components)).passed
    for block, factor in (("h", 0), ("s", -1)):
        mutated = _scaled_block(x, f, block, factor)
        assert mutated != f.differentials
        with pytest.raises(ValidationError):
            ChainComplex(f.min_deg, f.degrees, mutated)


# ---------------------------------------------------------------------------
# free models of prescribed homology


@given(st.lists(
    st.tuples(st.integers(-2, 4),
              st.builds(FpAbelianGroup.from_orders, st.integers(0, 2),
                        st.lists(st.integers(2, 9), max_size=2))),
    max_size=3))
@settings(max_examples=60, deadline=None)
def test_complex_from_homology_round_trip(pairs):
    seen = {}
    for d, g in pairs:
        seen[d] = seen.get(d, FpAbelianGroup.zero()).direct_sum(g)
    profile = HomologyProfile.of(seen.items())
    model = complex_from_homology(profile)
    assert model.is_degreewise_free
    assert homology(model) == profile
