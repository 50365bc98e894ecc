"""Sections over a finite quiver: towers and cospans of complexes.

A `Section` is a diagram of complexes over a finite quiver with no
composition relations: one complex per vertex, one chain map per edge, and
one localization `Tag` per vertex.  Towers and cospans are its two shapes.
A tower X_m -> ... -> X_1 -> X_0 tags level i `ptype:i`, the P_i-local
structure of the Postnikov presheaf, and derives its stabilization index,
the level from which it is literally constant, instead of taking one on
trust.  A cospan X_1 -> X_0 <- X_2 carries the tags it is given; this module
is the one reader of the tag text and of the prime lists in it.  Morphisms
are vertexwise chain maps whose square over every edge commutes, verified at
construction.

The predicates below decide the model-structure classes that make sense
levelwise: weak equivalences and cofibrations are componentwise, fibrations
of towers are checked against the fiber-product condition level by level,
and fibrancy of a tower is computed through two independent characterizations
that must agree.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .certificates import Certificate, bundle, failed, int_text, passed
from .complexes import (
    ChainComplex,
    ChainMap,
    chain_maps_agree,
    cofibrant_replacement,
    degreewise_kernel,
    degreewise_pullback,
    is_quasi_iso,
    pullback_induced_map,
    support,
)
from .errors import CharacterizationMismatch, IllFormedMap, InputError
from .exactalg import IntegerMatrix, certified_primes, column_basis, solve_matrix
from .trunc import is_n_type, is_Pn_weq, postnikov_section

# ---------------------------------------------------------------------------
# localization tags and the integers they are spelled with

_DECIMAL = re.compile(r"-?[0-9]+")


def parse_decimal(text, what: str) -> int:
    """`text` read as `-?[0-9]+` within the interpreter's digit limit; any other
    value or spelling ("+3", " 3", "1_3") raises InputError naming `what`."""
    if isinstance(text, str) and _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise InputError(f"{what} has {len(text.lstrip('-'))} digits, over the "
                             f"interpreter's limit of {sys.get_int_max_str_digits()}") from None
    raise InputError(f"{what} must be a decimal string, got {text!r}")


def parse_primes(text: str, what: str) -> frozenset[int]:
    """A comma-separated list of decimal integers; whitespace around an entry
    and empty entries are skipped.  Primality is certified by the taker."""
    return frozenset(parse_decimal(p.strip(), f"{what} entry")
                     for p in text.split(",") if p.strip())


@dataclass(frozen=True)
class Tag:
    """The localization tag of one cospan vertex: `plain`, `point`, `ptype`
    with a truncation `level`, or `local` with the `primes` kept uninverted
    (none: the rationalization).  `parse` is the one reader of the text
    forms `plain`, `point`, `ptype:N`, `local:P,Q,...` and `rational`, and
    certifies the primes; `str` writes them back with the primes sorted."""

    kind: str = "plain"
    level: int | None = None
    primes: frozenset[int] | None = None

    @classmethod
    def parse(cls, text) -> Tag:
        if not isinstance(text, str):
            raise InputError(f"a tag must be a string, got {type(text).__name__}")
        if text in ("plain", "point"):
            return cls(text)
        if text == "rational":
            return cls("local", primes=frozenset())
        kind, colon, body = text.partition(":")
        if colon and kind == "ptype":
            return cls("ptype", level=parse_decimal(body, "a ptype: level"))
        if colon and kind == "local" and (primes := parse_primes(body, "a local: tag")):
            return cls("local", primes=certified_primes(primes))
        raise InputError(f"malformed tag {text!r}: expected plain, point, ptype:N, "
                         "rational or local:P,Q,...")

    def __str__(self):
        if self.kind == "local":
            return "local:" + ",".join(map(str, sorted(self.primes))) if self.primes else "rational"
        return f"ptype:{self.level}" if self.kind == "ptype" else self.kind


# ---------------------------------------------------------------------------
# section types


@dataclass(frozen=True)
class Section:
    """Complexes over a finite quiver: `maps[e]` goes from vertex
    `edges[e][0]` to vertex `edges[e][1]`, and each vertex has one `Tag`
    (text goes through `Tag.parse`, so a malformed one raises InputError).
    A shape names the homotopy-cartesian check of each edge in `edge_checks`."""

    vertices: tuple[ChainComplex, ...]
    edges: tuple[tuple[int, int], ...]
    maps: tuple[ChainMap, ...]
    tags: tuple[Tag, ...]

    def __post_init__(self):
        if len(self.maps) != len(self.edges):
            raise IllFormedMap("one map per edge required")
        for e, ((s, t), f) in enumerate(zip(self.edges, self.maps)):
            if not (0 <= s < len(self.vertices) and 0 <= t < len(self.vertices)):
                raise IllFormedMap(f"edge {e} ({s}, {t}) has an endpoint outside the "
                                   f"{len(self.vertices)} vertices")
            if f.source != self.vertices[s] or f.target != self.vertices[t]:
                raise IllFormedMap(f"map {e} does not go from vertex {s} to vertex {t}")
        if len(self.tags) != len(self.vertices):
            raise IllFormedMap("one localization tag per vertex required")
        object.__setattr__(self, "tags", tuple(
            t if isinstance(t, Tag) else Tag.parse(t) for t in self.tags))


@dataclass(frozen=True, init=False)
class TowerSection(Section):
    """Levels X_0 ... X_m with structure maps X_{i+1} -> X_i, level i tagged
    `ptype:i`.  `stabilization` is derived at construction: the least s such
    that every structure map from level s on is the identity of one complex
    (its components are identity matrices), so levels s ... m coincide."""

    def __init__(self, complexes, structure_maps):
        complexes, maps = tuple(complexes), tuple(structure_maps)
        if len(complexes) != len(maps) + 1:
            raise IllFormedMap("a tower of m+1 levels needs exactly m structure maps")
        super().__init__(complexes, tuple((i + 1, i) for i in range(len(maps))), maps,
                         tuple(Tag("ptype", level=i) for i in range(len(complexes))))
        s = self.length
        while s > 0 and _is_identity(maps[s - 1]):
            s -= 1
        object.__setattr__(self, "stabilization", s)

    complexes = property(lambda self: self.vertices)
    structure_maps = property(lambda self: self.maps)
    length = property(lambda self: len(self.maps))
    edge_checks = property(lambda self: ("structure_map_weq",) * self.length)

    def level(self, i: int) -> ChainComplex:
        return self.vertices[i]


def _is_identity(f: ChainMap) -> bool:
    return f.source == f.target and f == ChainMap.identity(f.source)


@dataclass(frozen=True, init=False)
class CospanSection(Section):
    """x1 --left--> x0 <--right-- x2: vertices (x1, x0, x2) with one tag
    each, in that order, and edges 0 -> 1 and 2 -> 1.  A `ptype` middle tag
    is the level `is_homotopy_cartesian` compares the legs at."""

    def __init__(self, x1, x0, x2, left, right, tags=(Tag(), Tag(), Tag())):
        super().__init__((x1, x0, x2), ((0, 1), (2, 1)), (left, right), tuple(tags))

    x1 = property(lambda self: self.vertices[0])
    x0 = property(lambda self: self.vertices[1])
    x2 = property(lambda self: self.vertices[2])
    left = property(lambda self: self.maps[0])
    right = property(lambda self: self.maps[1])
    edge_checks = ("left_leg_weq", "right_leg_weq")


@dataclass(frozen=True)
class SectionMorphism:
    """Vertexwise chain maps between two sections of one shape; the square
    over every edge is verified at construction."""

    source: Section
    target: Section
    components: tuple[ChainMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        src, tgt, comps = self.source, self.target, self.components
        if type(src) is not type(tgt) or src.edges != tgt.edges:
            raise IllFormedMap("source and target sections differ in shape")
        if len(comps) != len(src.vertices):
            raise IllFormedMap("one component per vertex required")
        for v, c in enumerate(comps):
            if c.source != src.vertices[v] or c.target != tgt.vertices[v]:
                raise IllFormedMap(f"component {v} does not match the vertices")
        for e, (s, t) in enumerate(src.edges):
            if not chain_maps_agree(comps[t].compose(src.maps[e]), tgt.maps[e].compose(comps[s])):
                raise IllFormedMap(f"square over edge {e} does not commute")


def identity_morphism(section: Section) -> SectionMorphism:
    return SectionMorphism(section, section, tuple(map(ChainMap.identity, section.vertices)))


def constant_tower(x: ChainComplex, m: int) -> TowerSection:
    """x at every level with identity structure maps."""
    return TowerSection((x,) * (m + 1), (ChainMap.identity(x),) * m)


# ---------------------------------------------------------------------------
# componentwise classification


def classify_injective(phi: SectionMorphism) -> Certificate:
    """Componentwise weak-equivalence and cofibration verdicts, bundled; the
    witness records both flags and, per failed class, the first bad spot."""
    weq: Certificate = passed("componentwise_weq")
    for lvl, f in enumerate(phi.components):
        got = is_quasi_iso(f)
        if not got.passed:
            weq = failed("componentwise_weq", level=lvl, degree=got.witness["degree"])
            break

    cofib: Certificate = passed("componentwise_cofibration")
    for lvl, f in enumerate(phi.components):
        bad = None
        for i in support(f.source, f.target):
            gm = f.group_map(i)
            if not gm.is_injective():
                bad = (i, "component is not injective")
                break
            if not gm.cokernel_presentation().group().is_free:
                bad = (i, "cokernel has torsion")
                break
        if bad is not None:
            cofib = failed("componentwise_cofibration", level=lvl,
                           degree=bad[0], reason=bad[1])
            break
    return bundle("injective_classification", [weq, cofib],
                  weq=weq.passed, cofib=cofib.passed)


# ---------------------------------------------------------------------------
# fibrations of towers


def surjective_in_positive_degrees(f: ChainMap, label: str) -> Certificate:
    for i in range(max(f.target.min_deg, 1), f.target.top_deg + 1):
        if not f.group_map(i).is_surjective():
            return failed("fibration", spot=label, degree=i)
    return passed("fibration", spot=label)


def is_tower_fibration(phi: SectionMorphism) -> Certificate:
    """phi is a fibration of towers iff its bottom component is degreewise
    surjective in positive degrees and each level-(i+1) component factors
    through the fiber product of the previous level surjectively (again in
    positive degrees)."""
    if not isinstance(phi.source, TowerSection):
        raise IllFormedMap("tower fibration check needs tower sections")
    checks = [surjective_in_positive_degrees(phi.components[0], "level 0")]
    for i in range(phi.source.length):
        pb, p1, p2 = degreewise_pullback(phi.target.structure_maps[i],
                                         phi.components[i])
        u = pullback_induced_map(p1, p2, phi.components[i + 1],
                                 phi.source.structure_maps[i])
        checks.append(surjective_in_positive_degrees(
            u, f"level {i + 1} into fiber product"))
    return bundle("tower_fibration", checks)


def is_post_fibrant(t: TowerSection) -> Certificate:
    """Fibrancy of a truncation tower, decided twice.

    Route one: the bottom level is a 0-type, every structure map is
    degreewise surjective in positive degrees, and the kernel of the map into
    level n is an (n+1)-type.  Route two: level n is an n-type and every
    structure map is degreewise surjective in positive degrees.  The two
    verdicts provably coincide; a disagreement is an implementation bug and
    raises instead of certifying.
    """
    base = is_n_type(t.level(0), 0)
    surj = [surjective_in_positive_degrees(m, f"level {i + 1} over {i}")
            for i, m in enumerate(t.structure_maps)]

    via_kernels = [base] + list(surj)
    for i, m in enumerate(t.structure_maps):
        ker, _ = degreewise_kernel(m)
        got = is_n_type(ker, i + 1)
        via_kernels.append(
            passed("kernel_type", level=i) if got.passed
            else failed("kernel_type", level=i, degree=got.witness.get("degree")))
    route_one = bundle("fibrant_via_kernels", via_kernels)

    via_types = [is_n_type(t.level(i), i) for i in range(t.length + 1)] + list(surj)
    route_two = bundle("fibrant_via_level_types", via_types)

    if route_one.passed != route_two.passed:
        raise CharacterizationMismatch(
            "the kernel-based and level-type fibrancy characterizations disagree")
    return bundle("postnikov_fibrant", [route_one, route_two])


# ---------------------------------------------------------------------------
# homotopy-cartesian and cofibrant sections


def _replaced_weq(structure_map: ChainMap, level, check_name: str) -> Certificate:
    free, rep = cofibrant_replacement(structure_map.source)
    comparison = structure_map.compose(rep)
    if level is None:
        got = is_quasi_iso(comparison)
    else:
        got = is_Pn_weq(comparison, level)
    if got.passed:
        return passed(check_name, level=level, via="cofibrant_replacement")
    detail = {k: v for k, v in got.witness.items() if k != "level"}
    return failed(check_name, level=level, via="cofibrant_replacement", **detail)


def is_homotopy_cartesian(section: Section) -> Certificate:
    """Every edge map becomes an equivalence (through its target's `ptype`
    level, if it has one) after cofibrant replacement of its source."""
    return bundle("homotopy_cartesian", [
        _replaced_weq(f, section.tags[t].level, name)
        for f, (_, t), name in zip(section.maps, section.edges, section.edge_checks)])


def is_tow_cofibrant(t: TowerSection) -> Certificate:
    """Pass iff every level is degreewise free and the tower is homotopy
    cartesian: the cofibrant objects of the homotopy-limit structure are the
    levelwise cofibrant, homotopy-cartesian sections.  A free level is its
    own replacement, so each structure map is checked as it stands."""
    checks = [passed("level_free", level=i) if c.is_degreewise_free
              else failed("level_free", level=i) for i, c in enumerate(t.complexes)]
    return bundle("tower_cofibrant", checks + list(is_homotopy_cartesian(t).children))


# ---------------------------------------------------------------------------
# tower constructions


# every level from 0 up is built, so a complex shifted far up would make a
# tower too long to build; README states this bound
MAX_TOWER_LENGTH = 10_000


def postnikov_tower(x: ChainComplex, m: int) -> TowerSection:
    """The section (P_n x)_{n <= m} with its quotient structure maps; m must
    clear the top degree so the prefix reaches the stable range, be at
    least 0 so the tower has a level, and be at most MAX_TOWER_LENGTH."""
    if m < max(x.top_deg, 0):
        raise InputError(f"length {int_text(m)} does not reach the top degree "
                         f"{int_text(x.top_deg)} or level 0")
    if m > MAX_TOWER_LENGTH:
        raise InputError(f"length {int_text(m)} (top degree {int_text(x.top_deg)}) is over "
                         f"the bound of {MAX_TOWER_LENGTH} structure maps")
    levels = [postnikov_section(x, n)[0] for n in range(m + 1)]
    maps = [postnikov_section(levels[n + 1], n)[1] for n in range(m)]
    return TowerSection(tuple(levels), tuple(maps))


def free_postnikov_tower(x: ChainComplex, m: int):
    """(tower, comparison): a levelwise degreewise-free tower with strictly
    commuting structure maps, plus a levelwise quasi-isomorphism onto
    postnikov_tower(x, m).

    Level n is the free replacement of the n-section of a free model of x:
    that model through degree n, capped at degree n+1 with a basis of the
    image of the differential, which is again free and kills all homology
    above n.  m is checked as for `postnikov_tower`.
    """
    base = postnikov_tower(x, m)
    free, _ = cofibrant_replacement(x)
    levels = [cofibrant_replacement(postnikov_section(free, n)[0])[0] for n in range(m + 1)]

    maps = []
    for n in range(m):
        upper, lower = levels[n + 1], levels[n]
        if n >= free.top_deg or n < free.min_deg:  # no cap: lower is free or zero
            maps.append(ChainMap.prefix(upper, lower))
            continue
        cap = column_basis(free.diff_at(n + 1))
        comps = []
        for i in upper.span():
            if i <= n:
                comps.append(IntegerMatrix.identity(upper.pres_at(i).generators))
            elif i == n + 1:
                coords = solve_matrix(cap, free.diff_at(n + 1))
                assert coords is not None  # boundaries lie in the image lattice
                comps.append(coords)
            else:
                comps.append(IntegerMatrix.zero(0, upper.pres_at(i).generators))
        maps.append(ChainMap(upper, lower, tuple(comps)))

    tower = TowerSection(tuple(levels), tuple(maps))
    comparisons = (ChainMap.prefix(lvl, base.level(n)) for n, lvl in enumerate(levels))
    return tower, SectionMorphism(tower, base, tuple(comparisons))
