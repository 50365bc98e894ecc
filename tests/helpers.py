"""Constructions that only the tests use: closed-form oracles and inverse
constructions that the library itself never needs."""

from math import gcd

from towercalc.complexes import (
    ChainComplex,
    HomologyProfile,
    direct_sum,
    homology_group,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.exactalg import (
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    SnfDecomposition,
    lattice_contains,
)
from towercalc.fracture import LocalizedGroup, localize_group


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


def localize_homology(x: ChainComplex, primes: frozenset[int] | None) -> dict[int, LocalizedGroup]:
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
# presentations and lattice solves, with no appeal to the Hopfian property


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
