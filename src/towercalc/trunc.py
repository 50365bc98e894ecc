"""Good truncation from above and below, and the fiber sequence between them.

``postnikov_section(X, n)`` kills homology above n by quotienting degree n by
the incoming boundaries: it is `complexes.truncation`, memoized here (see
"Caches" in `complexes`).  ``connective_cover(X, k)`` kills homology at or
below k: it is the `subcomplex` of X on the cycles in degree k+1 and all of
X above, with nothing at or below k.  The two fit into a
degreewise short exact sequence whose long exact homology sequence is checked
spot by spot, not assumed.  Both are built by `complexes`, so this module
lays out no complex and builds nothing unchecked.
"""
from __future__ import annotations

from functools import lru_cache

from .certificates import Certificate, bundle, failed, passed
from .complexes import (
    ChainComplex,
    ChainMap,
    cokernel_complex,
    homology_group,
    induced_map,
    is_quasi_iso,
    les_certificate,
    subcomplex,
    support,
    truncation,
)
from .exactalg import BUILD_CACHE_MAXSIZE, preimage_lattice


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def postnikov_section(x: ChainComplex, n: int):
    """(P, q) = `complexes.truncation(x, n)`: degrees above n dropped, degree
    n quotiented by boundaries, q the degreewise quotient map.  H_i(P) =
    H_i(X) for i <= n, zero above."""
    return truncation(x, n)


def is_n_type(x: ChainComplex, n: int) -> Certificate:
    """Pass iff homology vanishes strictly above degree n."""
    for i in x.span():
        if i > n:
            h = homology_group(x, i)
            if not h.is_zero:
                return failed("n_type", level=n, degree=i, homology=str(h))
    return passed("n_type", level=n)


def is_Pn_weq(f: ChainMap, n: int) -> Certificate:
    """Pass iff H_i(f) is an isomorphism for every i <= n.  The walk visits only
    the degrees where source or target is nonzero and stops past n, however large."""
    for i in support(f.source, f.target):
        if i > n:
            break
        if not induced_map(f, i).is_iso():
            return failed("truncated_weq", level=n, degree=i,
                          source=str(homology_group(f.source, i)),
                          target=str(homology_group(f.target, i)))
    return passed("truncated_weq", level=n)


def connective_cover(x: ChainComplex, k: int):
    """(C, j): degrees at or below k dropped, degree k+1 restricted to the
    cycles, j the evident inclusion.  H_i(C) = H_i(X) for i > k, zero below.

    Below the window X is its own cover and comes back as the caller's own
    object."""
    if k < x.min_deg:
        return x, ChainMap.identity(x)
    lattices = []
    if k < x.top_deg:
        cycles = preimage_lattice(x.diff_at(k + 1), x.pres_at(k).relations)
        lattices = [cycles] + [None] * (x.top_deg - k - 1)
    return subcomplex(x, k + 1, lattices)


def fiber_sequence_check(x: ChainComplex, k: int) -> Certificate:
    """Certify the three layers of C_kX -> X -> P_kX being a fiber sequence:
    zero composite, quotient comparison, and the full long exact sequence."""
    cover, j = connective_cover(x, k)
    section, q = postnikov_section(x, k)

    composite = q.compose(j)
    zero_ok = all(section.pres_at(i).contains_in_relations(composite.component_at(i))
                  for i in cover.span())
    zero_cert = (passed("composite_vanishes") if zero_ok
                 else failed("composite_vanishes"))

    quo, qq = cokernel_complex(j)
    compare = is_quasi_iso(ChainMap.prefix(quo, section))
    compare_cert = (passed("quotient_matches_section") if compare.passed
                    else failed("quotient_matches_section", **compare.witness))

    les = les_certificate(j, qq)
    return bundle("fiber_sequence", [zero_cert, compare_cert, les], cut=k)


def layer(x: ChainComplex, k: int) -> ChainComplex:
    """The k-th Postnikov layer: cover at k of the section at k+1; homology
    is H_{k+1}(X) concentrated in degree k+1."""
    section, _ = postnikov_section(x, k + 1)
    cover, _ = connective_cover(section, k)
    return cover
