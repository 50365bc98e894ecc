"""Homotopy fibers of truncation.

Factoring the quotient onto a truncation through an intermediate complex
(X plus one acyclic two-term block per target generator, the source of
`complexes.disk_cover`) turns the fiber of the truncation into an honest
degreewise kernel; `complexes.disk_factorization` builds that factorization
of any chain map.  The checks here
certify that this kernel is the connective cover, that the comparison map
into the factorization is a quasi-isomorphism, and that cutting one degree
deeper leaves a single homology group — the layer.

`hofib_factorization` memoizes the factorization of one truncation, like
the section it is built from (BUILD_CACHE_MAXSIZE entries; see
`complexes`), so the counit and layer checks of one complex share each
factorization.
"""
from __future__ import annotations

from functools import lru_cache

from .certificates import Certificate, bundle, failed, passed
from .complexes import (
    ChainComplex,
    ChainMap,
    cofibrant_replacement,
    degreewise_kernel,
    disk_factorization,
    homology,
    homology_group,
    is_quasi_iso,
    zero_complex,
)
from .errors import NotCofibrant
from .exactalg import BUILD_CACHE_MAXSIZE
from .sections import CospanSection, Tag
from .trunc import connective_cover, is_Pn_weq, layer, postnikov_section


def _require_free(x: ChainComplex) -> None:
    if not x.is_degreewise_free:
        raise NotCofibrant("expected a degreewise free complex")


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def hofib_factorization(x: ChainComplex, k: int):
    """(incl, proj): X -> X' -> P_kX, the `disk_factorization` of the
    quotient onto the k-section.

    incl is a split-injective quasi-isomorphism with free cokernel (the
    adjoined disks), proj is surjective in every degree because each target
    generator is covered by its own disk.
    """
    _require_free(x)
    return disk_factorization(postnikov_section(x, k)[1])


def build_hofib_section(x: ChainComplex, k: int) -> CospanSection:
    """The cospan (point -> truncation <- factored total complex)."""
    _, proj = hofib_factorization(x, k)
    p = proj.target
    return CospanSection(zero_complex(), p, proj.source,
                         ChainMap.zero_map(zero_complex(), p), proj,
                         tags=(Tag("point"), Tag("ptype", level=k), Tag("plain")))


def fibrant_adjustment(s: CospanSection) -> CospanSection:
    """Make both legs surjective without moving any vertex's homotopy type
    by summing one acyclic disk block per generator of the middle into each."""
    left, right = disk_factorization(s.left)[1], disk_factorization(s.right)[1]
    return CospanSection(left.source, s.x0, right.source, left, right, tags=s.tags)


def compatibility_check(k: int, corpus) -> Certificate:
    """Colocality against the shifted sphere vs triviality of the cover.

    For each complex, "homology vanishes at and below the cut" is evaluated
    twice — once directly and once as point -> X being an equivalence after
    truncation — and the two verdicts must agree.
    """
    checks = []
    for idx, x in enumerate(corpus):
        _require_free(x)
        colocal = all(homology_group(x, i).is_zero for i in x.span() if i <= k)
        local_triv = is_Pn_weq(ChainMap.zero_map(zero_complex(), x), k).passed
        witness = {"element": idx, "colocal": colocal, "local_triviality": local_triv}
        if not colocal:
            witness["degree"] = next(i for i in x.span()
                                     if i <= k and not homology_group(x, i).is_zero)
        checks.append(passed("sides_agree", **witness) if colocal == local_triv
                      else failed("sides_agree", **witness))
    return bundle("compatibility", checks, cut=k)


def derived_counit_check(x: ChainComplex, k: int) -> Certificate:
    """The comparison into the factorization is an equivalence, and the
    degreewise fiber of the projection is the connective cover (by homology)."""
    incl, proj = hofib_factorization(x, k)
    unit = is_quasi_iso(incl)
    unit_cert = (passed("inclusion_is_equivalence") if unit.passed
                 else failed("inclusion_is_equivalence", **unit.witness))
    fiber, _ = degreewise_kernel(proj)
    cover, _ = connective_cover(x, k)
    got, want = homology(fiber), homology(cover)
    fiber_cert = (passed("fiber_is_connective_cover", value=str(got)) if got == want
                  else failed("fiber_is_connective_cover", fiber=str(got), cover=str(want)))
    return bundle("derived_counit", [unit_cert, fiber_cert], cut=k)


def layer_equivalence_check(x: ChainComplex, k: int) -> Certificate:
    """Both routes to the k-th layer carry exactly H_{k+1}(X) in degree k+1.

    Route one is the truncation-tower layer; route two cuts the homotopy
    fiber inside a free model of the (k+1)-section.
    """
    _require_free(x)
    section, _ = postnikov_section(x, k + 1)
    model, _ = cofibrant_replacement(section)
    _, proj = hofib_factorization(model, k)
    fiber, _ = degreewise_kernel(proj)
    expected = homology_group(x, k + 1)
    checks = []
    for name, cx in (("tower_layer", layer(x, k)), ("fiber_layer", fiber)):
        concentrated = all(homology_group(cx, i).is_zero for i in cx.span() if i != k + 1)
        if concentrated and homology_group(cx, k + 1) == expected:
            checks.append(passed(name, value=str(expected)))
        else:
            checks.append(failed(name, profile=str(homology(cx)), expected=str(expected)))
    return bundle("layer_equivalence", checks, cut=k)
