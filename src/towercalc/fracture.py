"""Homology localized at sets of primes, and the fracture square that glues
the localized pieces back together.

A finitely generated group is determined by its rank and invariant factors,
and inverting the primes outside J simply filters each invariant factor down
to its J-part.  Q is the empty prime set, so rationalizing erases torsion
altogether.  Localization finds a J-part by dividing out the primes of J
and never factors an order.  That makes every check in this module an exact
computation: the short exact sequence

    0 -> A -> A_J + A_K -> A_Q -> 0

is built out of literal integer matrices and certified by kernel/image
comparisons, and the reassembly of A as the pullback of its localizations is
checked by actually computing the pullback group.

A word of warning before exporting this pattern elsewhere: the square glues
because the two localizations overlap in a common rationalization that is
nontrivial and receives an honest map from each leg.  Localization pairs
whose composite is trivial admit no such square.  The standard instance is
chromatic: the K(n)-localization of an E(n-1)-local spectrum vanishes, so in
the would-be fibered product over L_{n-1}L_{K(n)} every fibrant-cofibrant
section has a trivial comparison leg and nothing can be reassembled.  The
checks here are therefore deliberately scoped to complementary sets of
primes over Q, where the overlap never degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import Certificate, bundle, failed, passed
from .complexes import (
    ChainComplex,
    ChainMap,
    direct_sum_map,
    homology,
    homology_group,
    induced_map,
    moore_complex,
    sphere_complex,
    support,
    zero_complex,
)
from .errors import InputError, PartitionTooSmall
from .exactalg import (
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    block_diag,
    certified_primes,
    difference_map,
    is_exact_pair,
    kernel_image_cokernel,
    prime_part,
    pullback_group,
)
from .sections import CospanSection, Tag, surjective_in_positive_degrees

# ---------------------------------------------------------------------------
# primes and partitions


@dataclass(frozen=True)
class PrimePartition:
    """Two disjoint finite sets of primes meant to cover some torsion."""

    j: frozenset[int]
    k: frozenset[int]

    def __init__(self, j, k):
        object.__setattr__(self, "j", certified_primes(j))
        object.__setattr__(self, "k", certified_primes(k))
        if self.j & self.k:
            raise InputError(f"sides overlap in {sorted(self.j & self.k)}")

    def require_covers(self, orders) -> None:
        """Every prime of every torsion order lies in J or K."""
        covered = self.j | self.k
        missing = {t // prime_part(t, covered) for t in orders} - {1}
        if missing:
            raise PartitionTooSmall(missing)


# ---------------------------------------------------------------------------
# localized groups and the algebraic fracture square


def localize_group(g: FpAbelianGroup, primes: frozenset[int]) -> FpAbelianGroup:
    """g tensored with Z_J for J = `primes`: the rank and the J-parts of the
    invariant factors, which still form a divisibility chain.  Q is the
    empty prime set, which keeps only the rank."""
    return FpAbelianGroup(g.rank, tuple(u for t in g.torsion if (u := prime_part(t, primes)) > 1))


def _localization(a: FpAbelianGroup, primes: frozenset[int]) -> GroupMap:
    """λ: A -> A_J between canonical presentations: the identity on the free
    generators and a 0/1 pick of the torsion generators that survive."""
    n = len(a.torsion)
    kept = [i for i, t in enumerate(a.torsion) if prime_part(t, primes) > 1]
    pick = IntegerMatrix(len(kept), n, tuple(int(i == k) for k in kept for i in range(n)))
    return GroupMap(Presentation.of_group(a), Presentation.of_group(localize_group(a, primes)),
                    block_diag(IntegerMatrix.identity(a.rank), pick))


def _rationalization(local: Presentation, rank: int) -> GroupMap:
    """ρ: A_J -> Z^rank = [I | 0], which forgets the torsion generators."""
    return GroupMap(local, Presentation.free(rank),
                    IntegerMatrix.identity(rank).hstack(IntegerMatrix.zero(rank, local.generators - rank)))


def algebraic_fracture_check(a: FpAbelianGroup, p: PrimePartition) -> Certificate:
    """Exactness of 0 -> A -> A_J + A_K -> A_Q -> 0 plus reassembly of A as
    the pullback of its localizations over the rationalization."""
    p.require_covers(a.torsion)
    aj = localize_group(a, p.j)
    ak = localize_group(a, p.k)

    rank_cert = (passed if aj.rank == ak.rank == a.rank else failed)(
        "rank_bookkeeping", rank=a.rank)

    merged = FpAbelianGroup.from_orders(0, aj.torsion + ak.torsion)
    torsion_cert = (passed if merged == FpAbelianGroup(0, a.torsion) else failed)(
        "torsion_partition", j_part=str(FpAbelianGroup(0, aj.torsion)),
        k_part=str(FpAbelianGroup(0, ak.torsion)))

    # the sequence itself, as honest maps between presentations: left is
    # (λ_J, λ_K) and right is ρ_J - ρ_K, well defined because each part is
    lam_j, lam_k = _localization(a, p.j), _localization(a, p.k)
    rho_j = _rationalization(lam_j.target, a.rank)
    rho_k = _rationalization(lam_k.target, a.rank)
    left = GroupMap(lam_j.source, lam_j.target.direct_sum(lam_k.target),
                    lam_j.matrix.vstack(lam_k.matrix))
    right = difference_map(rho_j, rho_k)

    exact_mid, reason = is_exact_pair(left, right)
    ses_cert = bundle("localization_sequence", [
        passed("left_injective") if left.is_injective() else failed("left_injective"),
        passed("middle_exact") if exact_mid else failed("middle_exact", reason=reason),
        passed("right_surjective") if right.is_surjective() else failed("right_surjective"),
    ])

    reassembled, _, _ = pullback_group(rho_j, rho_k)
    pullback_cert = (passed if reassembled == a else failed)(
        "reassembly", value=str(reassembled), expected=str(a))

    return bundle("algebraic_fracture", [rank_cert, torsion_cert, ses_cert, pullback_cert],
                  primes_j=sorted(p.j), primes_k=sorted(p.k))


def arithmetic_square_check(x: ChainComplex, p: PrimePartition) -> Certificate:
    """Degreewise fracture of H_*(X) plus the observation that per-degree
    short exactness splices to a long exact sequence with zero connecting
    maps."""
    profile = homology(x)
    p.require_covers(t for _, g in profile.entries for t in g.torsion)
    per_degree = [bundle("degree_fracture", [algebraic_fracture_check(g, p)], degree=d)
                  for d, g in profile.entries]
    broken = [c.witness["degree"] for c in per_degree if not c.passed]
    splice = (passed("zero_connecting_maps")
              if not broken else
              failed("zero_connecting_maps", degree=broken[0]))
    return bundle("arithmetic_square", per_degree + [splice],
                  primes_j=sorted(p.j), primes_k=sorted(p.k))


# ---------------------------------------------------------------------------
# cospan models


def fracture_cospan(x: ChainComplex, p: PrimePartition) -> CospanSection:
    """The section (X_J-model -> X_Q-model <- X_K-model) built degreewise
    from localized homology: sphere summands carry the rank into the
    rationalization, multiplication blocks carry the local torsion and die
    there."""
    profile = homology(x)
    p.require_covers(t for _, g in profile.entries for t in g.torsion)

    def leg(primes):
        acc = ChainMap.identity(zero_complex())
        for d, g in profile.entries:
            loc = localize_group(g, primes)
            if loc.rank:
                sph = sphere_complex(d, loc.rank)
                acc = direct_sum_map(acc, ChainMap.identity(sph))
            for t in loc.torsion:
                blk = moore_complex(t, d)
                acc = direct_sum_map(acc, ChainMap.zero_map(blk, zero_complex()))
        return acc

    left, right = leg(p.j), leg(p.k)
    return CospanSection(left.source, left.target, right.source, left, right,
                         tags=tuple(Tag("local", primes=frozenset(q)) for q in (p.j, (), p.k)))


def cospan_model_check(s: CospanSection) -> Certificate:
    """Fibrancy (legs surject in positive degrees) and fractured cofibrancy
    (each vertex carries only the torsion its ring tag allows, and both legs
    rationalize to isomorphisms on homology)."""
    if any(t.kind != "local" for t in s.tags) or s.tags[1].primes:
        return bundle("fracture_cospan_model", [
            failed("ring_tags", tags=[str(t) for t in s.tags],
                   reason="expected (local-or-rational, rational, local-or-rational)")])

    checks = [
        surjective_in_positive_degrees(s.left, "left leg"),
        surjective_in_positive_degrees(s.right, "right leg"),
    ]

    for name, cx, tag in zip(("x1", "x0", "x2"), (s.x1, s.x0, s.x2), s.tags):
        bad = None
        for d in cx.span():
            g = homology_group(cx, d)
            if localize_group(g, tag.primes) != g:
                bad = (d, g)
                break
        checks.append(passed("local_model", vertex=name) if bad is None else
                      failed("local_model", vertex=name, degree=bad[0], value=str(bad[1])))

    for name, leg in (("left", s.left), ("right", s.right)):
        witness = None
        for d in support(leg.source, leg.target):
            ker, _, coker = kernel_image_cokernel(induced_map(leg, d))
            if ker.rank or coker.rank:
                witness = (d, str(ker), str(coker))
                break
        checks.append(passed("rational_equivalence", leg=name) if witness is None else
                      failed("rational_equivalence", leg=name, degree=witness[0],
                             kernel=witness[1], cokernel=witness[2]))

    return bundle("fracture_cospan_model", checks)
