"""Constructions that only the tests use: closed-form oracles, inverse
constructions that the library itself never needs, and reference routes
that check the library's faster ones."""

from math import gcd

from hypothesis import strategies as st

from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    HomologyProfile,
    direct_sum,
    disk_complex,
    homology_group,
    mapping_cone,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.exactalg import (
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    SnfDecomposition,
    _column_hermite,
    _group_from_hermite,
    column_basis,
    lattice_contains,
    preimage_lattice,
    solve_matrix,
)
from towercalc.fracture import localize_group

# small degreewise-free complexes as (kind, degree, order) pieces: a sphere
# (kind 0), a disk (1) or a Moore complex of that order (2); and a cut to
# truncate them at, from below their degrees to above them
small_free_pieces_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-1, 3), st.integers(2, 7)), min_size=1, max_size=3)
cut_st = st.integers(-2, 4)


def free_sum(pieces) -> ChainComplex:
    """The direct sum of the pieces, in order."""
    out = zero_complex()
    for kind, n, t in pieces:
        out = direct_sum(out, (sphere_complex(n), disk_complex(n), moore_complex(t, n))[kind])
    return out


def tensor_group(a: FpAbelianGroup, b: FpAbelianGroup) -> FpAbelianGroup:
    """Bilinear with Z/t (x) Z/s = Z/gcd(t,s)."""
    orders = [t for t in a.torsion for _ in range(b.rank)]
    orders += [s for s in b.torsion for _ in range(a.rank)]
    orders += [gcd(t, s) for t in a.torsion for s in b.torsion]
    return FpAbelianGroup.from_orders(a.rank * b.rank, orders)


def diagonal_matrix(snf: SnfDecomposition, rows: int, cols: int) -> IntegerMatrix:
    """The rows x cols matrix with the invariants of `snf` on its diagonal."""
    out = [[0] * cols for _ in range(rows)]
    for i, di in enumerate(snf.d):
        out[i][i] = di
    return IntegerMatrix.from_rows(out) if rows else IntegerMatrix.zero(0, cols)


def det(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def localize_homology(x: ChainComplex, primes: frozenset[int]) -> dict[int, FpAbelianGroup]:
    """Localized homology in every degree of the span."""
    return {i: localize_group(homology_group(x, i), primes) for i in x.span()}


def complex_from_homology(profile: HomologyProfile) -> ChainComplex:
    """A degreewise-free complex realizing the profile: one sphere summand per
    free rank, one two-term t-multiplication block per invariant factor."""
    out = zero_complex()
    for d, g in profile.entries:
        if g.rank:
            out = direct_sum(out, sphere_complex(d, g.rank))
        for t in g.torsion:
            out = direct_sum(out, moore_complex(t, d))
    return out


# ---------------------------------------------------------------------------
# reference routes: isomorphism, injectivity and exactness decided by kernel
# presentations and lattice solves, with no appeal to the Hopfian property,
# and quasi-isomorphism decided by the mapping cone


def lattice_eq(a: IntegerMatrix, b: IntegerMatrix) -> bool:
    """Equal column lattices, by membership both ways."""
    return lattice_contains(a, b) and lattice_contains(b, a)


def injective_by_kernel(f: GroupMap) -> bool:
    """The kernel's presentation presents the zero group."""
    pres, _ = f.kernel_data()
    return pres.group().is_zero


def iso_by_kernel(f: GroupMap) -> bool:
    return injective_by_kernel(f) and f.is_surjective()


def exact_pair_by_containment(f: GroupMap, g: GroupMap):
    """`is_exact_pair` by solving for each inclusion of im f and ker g."""
    composite = g.matrix @ f.matrix
    if not g.target.contains_in_relations(composite):
        return False, "composite is nonzero"
    im = f.matrix.hstack(f.target.relations)
    ker = g.kernel_lattice()
    if not lattice_contains(ker, im):
        return False, "image not contained in kernel"
    if not lattice_contains(im, ker):
        return False, "kernel not contained in image"
    return True, ""


def transform_free_group(relations: IntegerMatrix) -> FpAbelianGroup:
    """`group_from_presentation` by its transform-free route alone, uncached:
    the column Hermite form of the relations, then its diagonal, never a
    Smith form."""
    return _group_from_hermite(relations.rows, _column_hermite(relations))


def quasi_iso_by_cone(f: ChainMap) -> bool:
    """H(Cone f) = 0: the long exact sequence ... -> H_i(X) -> H_i(Y) ->
    H_i(Cone f) -> H_{i-1}(X) -> ... makes every H_i(f) an isomorphism
    exactly when the cone is acyclic."""
    cone = mapping_cone(f)
    return all(homology_group(cone, i).is_zero for i in cone.span())


# ---------------------------------------------------------------------------
# reference route: the stepwise free approximation


def stepwise_free_approximation(x: ChainComplex):
    """(F, q) with F degreewise free and q: F -> X a quasi-isomorphism, built
    degree by degree: start from the free group on the bottom generators,
    then in each next degree adjoin one generator per cycle of X (to keep
    homology surjective) and one per kernel class downstairs (to make it
    injective).  F and q go through the public constructors."""
    f_gens = [x.degrees[0].generators]
    f_diffs: list[IntegerMatrix] = []
    q_comps = [IntegerMatrix.identity(f_gens[0])]

    for step in range(1, len(x.degrees) + 1):
        n = x.min_deg + step
        prev_gens = f_gens[-1]
        dn = x.diff_at(n)
        rel_below = x.pres_at(n - 1).relations
        # kernel classes downstairs: dF z = 0 and q z dies in H_{n-1}(X)
        df_prev = f_diffs[-1] if f_diffs else IntegerMatrix.zero(0, prev_gens)
        boundaries = dn.hstack(rel_below)
        zero_over_boundaries = IntegerMatrix.zero(df_prev.rows, boundaries.cols).vstack(boundaries)
        killers = column_basis(preimage_lattice(df_prev.vstack(q_comps[-1]),
                                                zero_over_boundaries))
        witnesses = solve_matrix(boundaries, q_comps[-1] @ killers)
        assert witnesses is not None
        witness_cols = witnesses.take_rows(0, dn.cols).columns()
        # cycles of X at degree n, one new free generator each
        zn = column_basis(preimage_lattice(dn, rel_below))
        count = killers.cols + zn.cols
        f_gens.append(count)
        d_cols = list(killers.columns()) + [(0,) * prev_gens] * zn.cols
        f_diffs.append(IntegerMatrix.from_cols(d_cols, rows=prev_gens))
        q_cols = witness_cols + list(zn.columns())
        q_comps.append(IntegerMatrix.from_cols(q_cols, rows=x.pres_at(n).generators))

    free = ChainComplex(x.min_deg, tuple(Presentation.free(g) for g in f_gens), tuple(f_diffs))
    comps = tuple(q_comps[i - x.min_deg] for i in free.span())
    return free, ChainMap(free, x, comps)
