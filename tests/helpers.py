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
from towercalc.exactalg import FpAbelianGroup, IntegerMatrix, SnfDecomposition
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
