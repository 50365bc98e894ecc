"""Limits of stabilized towers and the checks that justify them.

A finite tower is constant from its derived stabilization index on, so its
strict limit is its top level.  The Milnor sequence argument that the strict
limit is the right answer is replayed here degreewise: lim^1 of the homology
tower is computed from its image chains (the Mittag-Leffler condition), not
assumed, and the homology of the limit matches the limit of the homologies.
On top of that sit the two reconstruction checks: every bounded complex is
recovered from its truncation tower, and truncation commutes with mapping
out of a sphere — plus the degreewise mapping-complex ladder that controls
exactly when truncation commutes with Hom.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .certificates import Certificate, bundle, failed, passed
from .complexes import (
    ChainComplex,
    ChainMap,
    chain_maps_agree,
    hom_complex,
    homology,
    homology_data,
    homology_group,
    induced_map,
    is_quasi_iso,
    sphere_complex,
    support,
)
from .errors import NotCofibrant
from .exactalg import (
    BUILD_CACHE_MAXSIZE,
    FpAbelianGroup,
    GroupMap,
    ext_group,
    hom_group,
    mittag_leffler_diagnostic,
)
from .sections import TowerSection, postnikov_tower
from .trunc import postnikov_section


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def tower_limit(t: TowerSection):
    """(limit, projections): the top level of the tower, which it equals
    from `t.stabilization` on, together with the canonical map onto every
    level (composites of the structure maps).  Cached: `milnor_check` asks
    for the same tower's limit once per degree."""
    limit = t.level(t.length)
    projections = []
    current = ChainMap.identity(limit)
    for i in range(t.length, 0, -1):
        projections.append(current)
        current = t.structure_maps[i - 1].compose(current)
    projections.append(current)
    return limit, tuple(reversed(projections))


def milnor_check(t: TowerSection, i: int) -> Certificate:
    """The two halves of the Milnor sequence at degree i: lim^1 of the
    degree-(i+1) homology tower vanishes, and the homology of the limit maps
    isomorphically onto the limit of the degree-i homologies.

    lim^1 vanishes when the image chains of the degree-(i+1) tower, continued
    by the identity on its top group, settle within the tower's length + 1
    steps; a failure records that horizon."""
    limit, projections = tower_limit(t)

    maps = tuple(induced_map(m, i + 1) for m in t.structure_maps)
    top = GroupMap.identity(homology_data(t.level(t.length), i + 1).presentation)
    horizon = len(maps) + 1
    if mittag_leffler_diagnostic(maps + (top,), horizon=horizon) is not None:
        lim1_cert = passed("lim1_vanishes", degree=i + 1)
    else:
        lim1_cert = failed("lim1_vanishes", degree=i + 1, horizon=horizon)

    lim_group = homology_group(t.level(t.stabilization), i)
    comparison = induced_map(projections[t.stabilization], i)
    if comparison.is_iso() and homology_group(limit, i) == lim_group:
        lim_cert = passed("limit_homology_matches", degree=i, value=str(lim_group))
    else:
        lim_cert = failed("limit_homology_matches", degree=i,
                          limit_side=str(homology_group(limit, i)),
                          tower_side=str(lim_group))
    return bundle("milnor_sequence", [lim1_cert, lim_cert], degree=i)


def hypercomplete_check(x: ChainComplex) -> Certificate:
    """Certify that x is reconstructed from its truncation tower: the
    canonical map into the tower limit is a quasi-isomorphism, and projecting
    the canonical map to level n recovers the level-n quotient map."""
    m = max(x.top_deg + 1, 0)
    tower = postnikov_tower(x, m)
    limit, projections = tower_limit(tower)
    canonical = postnikov_section(x, m)[1]

    compat = []
    for n in range(m + 1):
        direct = postnikov_section(x, n)[1]
        agree = chain_maps_agree(projections[n].compose(canonical), direct)
        compat.append(passed("projection_compatibility", level=n) if agree
                      else failed("projection_compatibility", level=n))

    weq = is_quasi_iso(canonical)
    weq_cert = (passed("canonical_map_weq") if weq.passed
                else failed("canonical_map_weq", **weq.witness))
    return bundle("hypercomplete", [weq_cert] + compat)


def generator_commutation_check(i: int, x: ChainComplex, n: int) -> Certificate:
    """Mapping out of a degree-i sphere commutes with truncation at n: the
    homology of hom(Z[i], P_n x) equals the homology of hom(Z[i], x) cut at
    degree n - i (mapping out of Z[i] shifts degrees down by i)."""
    if not x.is_degreewise_free:
        raise NotCofibrant("commutation is checked against a degreewise free complex")
    sphere = sphere_complex(i)
    section = postnikov_section(x, n)[0]
    truncated_side = homology(hom_complex(sphere, section))
    full_side = homology(hom_complex(sphere, x)).truncated(n - i)
    if truncated_side == full_side:
        return passed("generator_commutation", generator_degree=i, level=n)
    degrees = sorted(set(truncated_side.support()) | set(full_side.support()))
    witness = next(d for d in degrees if truncated_side.at(d) != full_side.at(d))
    return failed("generator_commutation", generator_degree=i, level=n,
                  degree=witness,
                  truncated=str(truncated_side.at(witness)),
                  full=str(full_side.at(witness)))


# ---------------------------------------------------------------------------
# the mapping-complex ladder


@dataclass(frozen=True)
class LadderRung:
    """One degree of the comparison ladder; corners are the closed-form
    torsion/free pieces, middles are computed straight from the mapping
    complexes."""

    degree: int
    ext_corner: FpAbelianGroup
    hom_corner: FpAbelianGroup
    middle: FpAbelianGroup
    ext_corner_cut: FpAbelianGroup
    hom_corner_cut: FpAbelianGroup
    middle_cut: FpAbelianGroup


@dataclass(frozen=True)
class LadderReport:
    cut: int
    rungs: tuple[LadderRung, ...]
    certificate: Certificate
    discrepancy: FpAbelianGroup

    def rung_at(self, i: int) -> LadderRung:
        for r in self.rungs:
            if r.degree == i:
                return r
        raise KeyError(i)


def _corner(m_profile, n_profile, i: int, shift: int, op) -> FpAbelianGroup:
    total = FpAbelianGroup.zero()
    for s, g in m_profile.entries:
        total = total.direct_sum(op(g, n_profile.at(s + i + shift)))
    return total


def uct_ladder(m: ChainComplex, n: ChainComplex, cut: int) -> LadderReport:
    """Compare H_*(hom(m, n)) with H_*(hom(m, P_cut n)) degree by degree
    against the split short exact sequence with Ext and Hom corners.

    Certifies: (a) each middle is the direct sum of its corners; (b) the
    truncated side vanishes above the cut; (c) the two sides agree strictly
    below the cut; (d) at the cut they agree exactly when the Ext corner
    vanishes, and the report records that corner as the discrepancy group
    otherwise.  (b)-(d) are the guarantees for sources with homology
    concentrated in degree zero; the certificate evaluates them honestly for
    any input.
    """
    section = postnikov_section(n, cut)[0]
    hom_full = hom_complex(m, n)
    hom_cut = hom_complex(m, section)
    hm = homology(m)
    hn = homology(n)
    hsec = homology(section)

    rungs = []
    split_checks = []
    vanish_checks = []
    agree_checks = []
    for i in sorted({cut, *support(hom_full, hom_cut)}):
        rung = LadderRung(
            degree=i,
            ext_corner=_corner(hm, hn, i, 1, ext_group),
            hom_corner=_corner(hm, hn, i, 0, hom_group),
            middle=homology_group(hom_full, i),
            ext_corner_cut=_corner(hm, hsec, i, 1, ext_group),
            hom_corner_cut=_corner(hm, hsec, i, 0, hom_group),
            middle_cut=homology_group(hom_cut, i),
        )
        rungs.append(rung)
        for label, ext, hom, mid in (("full", rung.ext_corner, rung.hom_corner, rung.middle),
                                     ("truncated", rung.ext_corner_cut,
                                      rung.hom_corner_cut, rung.middle_cut)):
            expected = ext.direct_sum(hom)
            split_checks.append(
                passed("split_sequence", degree=i, side=label) if expected == mid
                else failed("split_sequence", degree=i, side=label,
                            expected=str(expected), got=str(mid)))
        if i > cut:
            vanish_checks.append(
                passed("vanishes_above_cut", degree=i) if rung.middle_cut.is_zero
                else failed("vanishes_above_cut", degree=i, got=str(rung.middle_cut)))
        if i < cut:
            agree_checks.append(
                passed("agrees_below_cut", degree=i)
                if rung.middle_cut == rung.middle
                else failed("agrees_below_cut", degree=i,
                            truncated=str(rung.middle_cut), full=str(rung.middle)))

    at_cut = next(r for r in rungs if r.degree == cut)
    discrepancy = at_cut.ext_corner
    if discrepancy.is_zero:
        cut_check = (passed("exact_at_cut", degree=cut)
                     if at_cut.middle_cut == at_cut.middle
                     else failed("exact_at_cut", degree=cut,
                                 truncated=str(at_cut.middle_cut),
                                 full=str(at_cut.middle)))
    else:
        cut_check = passed("exact_at_cut", degree=cut, obstruction=str(discrepancy))

    cert = bundle("hom_truncation_ladder",
                  split_checks + vanish_checks + agree_checks + [cut_check],
                  cut=cut)
    return LadderReport(cut, tuple(rungs), cert, discrepancy)
