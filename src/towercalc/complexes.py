"""Bounded chain complexes of finitely presented abelian groups.

Degrees are homological: the differential lowers degree by one.  A complex
stores a contiguous window of presentations starting at ``min_deg`` with the
differentials inside it; degrees outside are zero.  Checks walk the degrees of
`support`, the union of windows, so distance from degree 0 costs nothing.
The two builders that combine two complexes degreewise, `direct_sum` and
`mapping_cone`, are the exception: they lay out every degree between the two
windows, so their cost grows with the gap between them.

Layout
------
The stored window (``degrees``, ``differentials``) is this module's own
format: only the builders here lay out a complex, and every other module
builds with them and reads a complex through `pres_at`, `diff_at`, `span`
and the bounds ``min_deg`` and ``top_deg``.  So a change of storage stays in
this module.  There are two exceptions, each pinned by
`tests/test_imports.py`: `serialize`, because a document spells out the
window field by field, in both directions; and `gen`, because a generated
instance enters like a document, as a window rebuilt through the public
constructor after each change of basis of its differentials.

Validation
----------
`ChainComplex`, `ChainMap` and `exactalg.GroupMap` check in two stages:
`_normalise`, which both constructors run, makes tuples, strips zero end
degrees and checks shapes and counts; each class's own `__init__` is the
lattice check, which verifies, modulo relations, that relations go to
relations, d^2 = 0 and every square commutes, skipping only checks already
decided (no relation columns, or a square whose sides are equal matrices).
The public constructors run both, so documents (`serialize`, `cli`), `gen`
and user code are checked in full.  Only builders here and in `exactalg`
use `_trusted`, which runs only `_normalise`, and each one's result follows
from valid inputs, so every other module builds with them or runs every
check (`tests/test_imports.py` pins that).  Identities, sums, composites,
cones and the like are valid because their inputs are; a `truncation`
keeps a prefix of a valid window, quotients its top degree by the incoming
boundaries and maps onto it by the identity, and a `disk_factorization`
includes X as the first summand of a direct sum and projects by a cotuple;
kernels, pullbacks (the kernel of the difference map (f, -g), and
`exactalg.difference_map` for groups) and covers are all carved out by
`subcomplex`, which solves every differential exactly against the subgroup
bases; a free replacement solves its twisting blocks exactly against
relation bases, so D^2 = 0 on the nose and its map commutes up to relations
of X (see `cofibrant_replacement`); an induced map reads exact homology
coordinates of a chain map; and one degree of a chain map
(`ChainMap.group_map`) is well defined because the chain map is.  Maps
whose validity is being claimed, or rests on a condition nobody checked,
stay checked: `ChainMap.prefix`, a chain map only for some pairs, and so
`fiber_sequence_check`'s comparison; `pullback_induced_map`; the chain maps
that `sections` builds; the localization and rationalization maps of
`fracture` and the stack of the two localizations; and `connecting_map`,
which is well defined only on a degreewise short exact pair that
`les_certificate` does not verify.  The test suite routes `_trusted`
through the public constructor, so it re-checks every trusted build.

Caches
------
The caching rule, for every module: memoize normal forms, lattice problems
and homology, plus the two constructions a battery measurably repeats.
Every cache is bounded by CACHE_MAXSIZE or BUILD_CACHE_MAXSIZE.

Complexes and maps here are tuple-backed records (`exactalg.Record`), as are
the matrices and presentations they hold, and the other objects are frozen
dataclasses; all are immutable and compared by structure, and a record
hashes in C without entering a Python frame.  Every cached function is a
pure function of such arguments that returns such values.  So an equal key
may come from another caller's equal complex, the value handed back is
shared without risk, and an evicted entry is simply recomputed to an equal
value.  A hit builds nothing.  Builders here and in `exactalg` hand back an
existing equal record where shapes or identity decide the result, so a hit
on a shared key compares by identity.

- `homology_data`, keyed by (complex, degree), keeps CACHE_MAXSIZE entries,
  like the per-matrix normal-form records in `exactalg`.
- The lattice memos `solve_matrix`, `preimage_lattice` and `subquotient` in
  `exactalg` keep BUILD_CACHE_MAXSIZE entries: the homology and kernel
  computations of one battery repeat most of their lattice problems.
- The two repeated constructions, `postnikov_section` in `trunc` and
  `hofib_factorization` in `hofib`, memoize the builders `truncation` and
  `disk_factorization` here and keep BUILD_CACHE_MAXSIZE entries each.
  So do `tower_limit` in `holim`, which `milnor_check` asks for once per
  degree, and the shared `IntegerMatrix.zero`, `IntegerMatrix.identity`
  and `Presentation.free` in `exactalg`.
- Covers, kernels, induced maps and free replacements are rebuilt on every
  call: built trusted, one costs a few memo hits.  Removed one at a time,
  none of their caches moved a 240-complex battery's CPU time outside its
  noise; removed together with `column_basis`'s, they cost it about 4 %.
- `serialize.loads` keeps the objects of BUILD_CACHE_MAXSIZE documents,
  keyed by their bytes and location: a process that runs several commands
  on one file gets the same complex, tower or cospan each time, so the
  caches above are hit by identity.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .certificates import Certificate, bundle, failed, int_text, passed
from .errors import IllFormedMap, InputError, NotCofibrant, ValidationError
from .exactalg import (
    CACHE_MAXSIZE,
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    Trusted,
    block_diag,
    column_basis,
    is_exact_pair,
    kron,
    preimage_lattice,
    solve_matrix,
    subgroup_presentation,
    subquotient,
)

# Generators and relations per degree, bounded before any matrix is built:
# of a document's degrees in `serialize`, and of a mapping complex's degrees
# here.  The library's transforms are dense, so memory grows with
# the square of this count.
MAX_DEGREE_SIZE = 1024


# ---------------------------------------------------------------------------
# complexes


class ChainComplex(Trusted, namedtuple("ChainComplex", "min_deg degrees differentials")):
    """min_deg plus a contiguous run of degree presentations; differentials[j]
    maps degree min_deg+j+1 to degree min_deg+j on generators."""

    __slots__ = ()

    @staticmethod
    def _normalise(min_deg, degrees, differentials):
        degs = tuple(degrees)
        diffs = tuple(differentials)
        if len(diffs) != max(0, len(degs) - 1):
            raise ValidationError("complex", "differential count must be degree count minus one")
        for j, d in enumerate(diffs):
            if d.rows != degs[j].generators or d.cols != degs[j + 1].generators:
                raise ValidationError(
                    f"degree {int_text(min_deg + j + 1)}",
                    f"differential shape {d.rows}x{d.cols} does not match "
                    f"{degs[j].generators}x{degs[j + 1].generators}")
        # strip zero-generator degrees at both ends in one slice, so equality is structural
        kept = [j for j, p in enumerate(degs) if p.generators]
        if not kept:
            return 0, (), ()
        lo, hi = kept[0], kept[-1] + 1
        return min_deg + lo, degs[lo:hi], diffs[lo:hi - 1]

    def __init__(self, *fields):
        """The lattice check (see "Validation")."""
        degs, diffs = self.degrees, self.differentials
        for j, d in enumerate(diffs):
            rel = degs[j + 1].relations  # with no relation columns there is nothing to carry
            if rel.cols and not degs[j].contains_in_relations(d @ rel):
                raise ValidationError(
                    f"degree {int_text(self.min_deg + j + 1)}",
                    "differential does not carry relations into relations")
        for j in range(len(diffs) - 1):
            if not degs[j].contains_in_relations(diffs[j] @ diffs[j + 1]):
                raise ValidationError(
                    f"degree {int_text(self.min_deg + j + 2)}", "d composed with d is nonzero")

    # -- shape helpers

    @property
    def top_deg(self) -> int:
        """Largest degree in the window; min_deg - 1 for the zero complex."""
        return self.min_deg + len(self.degrees) - 1

    def span(self) -> range:
        return range(self.min_deg, self.top_deg + 1)

    def pres_at(self, i: int) -> Presentation:
        if 0 <= (j := i - self.min_deg) < len(self.degrees):
            return self.degrees[j]
        return Presentation.free(0)

    def diff_at(self, i: int) -> IntegerMatrix:
        """d_i : degree i -> degree i-1 (zero-shaped outside the window)."""
        if 0 <= (j := i - self.min_deg - 1) < len(self.differentials):
            return self.differentials[j]
        return IntegerMatrix.zero(self.pres_at(i - 1).generators, self.pres_at(i).generators)

    @property
    def is_zero(self) -> bool:
        return not self.degrees

    @property
    def is_degreewise_free(self) -> bool:
        return all(p.relations.cols == 0 for p in self.degrees)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = [f"{int_text(i)}:{self.pres_at(i).group()}" for i in self.span()]
        return " | ".join(parts)


def support(*complexes: ChainComplex):
    """The ascending degrees in the window of some of the complexes (the zero
    complex has none): one range if the windows overlap or touch, else a
    tuple that skips each gap, so a walk costs nothing where all are zero."""
    runs = []
    for span in sorted((x.span() for x in complexes if not x.is_zero), key=lambda r: r.start):
        if runs and span.start <= runs[-1].stop:
            runs[-1] = range(runs[-1].start, max(runs[-1].stop, span.stop))
        else:
            runs.append(span)
    return runs[0] if len(runs) == 1 else tuple(i for run in runs for i in run)


def zero_complex() -> ChainComplex:
    return ChainComplex(0, (), ())


def sphere_complex(n: int, rank: int = 1) -> ChainComplex:
    """Z^rank concentrated in degree n."""
    if rank == 0:
        return zero_complex()
    return ChainComplex(n, (Presentation.free(rank),), ())


def disk_complex(n: int) -> ChainComplex:
    """Z in degrees n and n-1 with the identity differential; acyclic."""
    return ChainComplex(n - 1, (Presentation.free(1), Presentation.free(1)),
                        (IntegerMatrix.identity(1),))


def moore_complex(t: int, n: int = 0) -> ChainComplex:
    """Z --t--> Z in degrees n+1, n; homology Z/t in degree n."""
    return ChainComplex(n, (Presentation.free(1), Presentation.free(1)),
                        (IntegerMatrix.from_rows([[t]]),))


# ---------------------------------------------------------------------------
# chain maps


class ChainMap(Trusted, namedtuple("ChainMap", "source target components")):
    """Degreewise map of complexes; components are stored over the source's
    window (outside it every component is forced zero).  Construction checks
    degreewise well-definedness and commutation with the differentials over
    the source's window: elsewhere both sides of a square start at zero."""

    __slots__ = ()

    @staticmethod
    def _normalise(source, target, components):
        comps = tuple(components)
        if len(comps) != len(source.degrees):
            raise IllFormedMap("one component per source degree required")
        for i, sp, f in zip(source.span(), source.degrees, comps):
            tp = target.pres_at(i)
            if f.rows != tp.generators or f.cols != sp.generators:
                raise IllFormedMap(
                    f"component at degree {int_text(i)} has shape {f.rows}x{f.cols}, "
                    f"expected {tp.generators}x{sp.generators}")
        return source, target, comps

    def __init__(self, *fields):
        """The lattice check (see "Validation")."""
        for i, sp, f in zip(self.source.span(), self.source.degrees, self.components):
            if sp.relations.cols and not self.target.pres_at(i).contains_in_relations(f @ sp.relations):
                raise IllFormedMap(f"component at degree {int_text(i)} does not respect relations")
        for i in self.source.span():
            walk_down = self.component_at(i - 1) @ self.source.diff_at(i)
            push_down = self.target.diff_at(i) @ self.component_at(i)
            if walk_down == push_down:  # commutes on the nose
                continue
            if not self.target.pres_at(i - 1).contains_in_relations(walk_down - push_down):
                raise IllFormedMap(f"square at degree {int_text(i)} does not commute")

    def component_at(self, i: int) -> IntegerMatrix:
        if 0 <= (j := i - self.source.min_deg) < len(self.components):
            return self.components[j]
        return IntegerMatrix.zero(self.target.pres_at(i).generators,
                                  self.source.pres_at(i).generators)

    def group_map(self, i: int) -> GroupMap:
        """Degree i as a group map, well defined because the chain map is."""
        return GroupMap._trusted(self.source.pres_at(i), self.target.pres_at(i), self.component_at(i))

    @staticmethod
    def identity(x: ChainComplex) -> "ChainMap":
        return ChainMap._trusted(x, x, tuple(IntegerMatrix.identity(p.generators) for p in x.degrees))

    @staticmethod
    def prefix(source: ChainComplex, target: ChainComplex) -> "ChainMap":
        """In each degree, generator a of the source goes to generator a of the
        target if the target has one, and to 0 otherwise.  Checked: a prefix
        map is a chain map only for some pairs (Z[1] into the disk on degrees
        1, 0 is not one)."""
        return ChainMap(source, target, _prefix_components(source, target))

    @staticmethod
    def zero_map(source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return ChainMap._trusted(source, target, tuple(
            IntegerMatrix.zero(target.pres_at(i).generators, source.pres_at(i).generators)
            for i in source.span()))

    def compose(self, inner: "ChainMap") -> "ChainMap":
        """self after inner."""
        if inner.target != self.source:
            raise IllFormedMap("composition mismatch")
        comps = tuple(self.component_at(inner.source.min_deg + j) @ f
                      for j, f in enumerate(inner.components))
        return ChainMap._trusted(inner.source, self.target, comps)


def _prefix_components(source: ChainComplex, target: ChainComplex):
    """The components of `ChainMap.prefix`: the shared identity where the two
    counts agree, the shared zero where one of them is 0, else [I | 0] or [I; 0]."""
    comps = []
    for i, p in zip(source.span(), source.degrees):
        s, t = p.generators, target.pres_at(i).generators
        if s == t:
            comps.append(IntegerMatrix.identity(s))
        elif s < t:
            comps.append(IntegerMatrix.identity(s).vstack(IntegerMatrix.zero(t - s, s)))
        else:
            comps.append(IntegerMatrix.identity(t).hstack(IntegerMatrix.zero(t, s - t)))
    return tuple(comps)


def chain_maps_agree(f: ChainMap, g: ChainMap) -> bool:
    """Equality of parallel chain maps modulo target relations."""
    for i in f.source.span():
        diff = f.component_at(i) - g.component_at(i)
        if not f.target.pres_at(i).contains_in_relations(diff):
            return False
    return True


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyData:
    """Cycle basis plus a presentation of cycles/boundaries on that basis."""

    basis: IntegerMatrix          # columns: cycle-lattice basis in chain coords
    presentation: Presentation    # homology presented on the basis columns

    def group(self) -> FpAbelianGroup:
        return self.presentation.group()

    def coords_of(self, cycles: IntegerMatrix) -> IntegerMatrix:
        """Express cycle columns in the basis; raises if not cycles."""
        got = solve_matrix(self.basis, cycles)
        if got is None:
            raise ValueError("column is not a cycle")
        return got


@lru_cache(maxsize=CACHE_MAXSIZE)
def homology_data(x: ChainComplex, i: int) -> HomologyData:
    """H_i(x) as cycles modulo boundaries and degree-i relations."""
    cycles = preimage_lattice(x.diff_at(i), x.pres_at(i - 1).relations)
    pres, basis = subquotient(cycles, x.diff_at(i + 1).hstack(x.pres_at(i).relations))
    return HomologyData(basis, pres)


def homology_group(x: ChainComplex, i: int) -> FpAbelianGroup:
    return homology_data(x, i).group()


@dataclass(frozen=True)
class HomologyProfile:
    """Degree -> group, zero groups omitted, sorted by degree."""

    entries: tuple[tuple[int, FpAbelianGroup], ...]

    @staticmethod
    def of(pairs) -> "HomologyProfile":
        kept = tuple(sorted((d, g) for d, g in pairs if not g.is_zero))
        return HomologyProfile(kept)

    def at(self, i: int) -> FpAbelianGroup:
        for d, g in self.entries:
            if d == i:
                return g
        return FpAbelianGroup.zero()

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def truncated(self, n: int) -> "HomologyProfile":
        return HomologyProfile(tuple((d, g) for d, g in self.entries if d <= n))

    def shifted(self, n: int) -> "HomologyProfile":
        return HomologyProfile(tuple((d + n, g) for d, g in self.entries))

    def __str__(self):
        if not self.entries:
            return "0"
        return ", ".join(f"H_{int_text(d)} = {g}" for d, g in self.entries)


def homology(x: ChainComplex) -> HomologyProfile:
    return HomologyProfile.of((i, homology_group(x, i)) for i in x.span())


def induced_map(f: ChainMap, i: int) -> GroupMap:
    """H_i(f) between the cached homology presentations."""
    hx = homology_data(f.source, i)
    hy = homology_data(f.target, i)
    pushed = f.component_at(i) @ hx.basis
    return GroupMap._trusted(hx.presentation, hy.presentation, hy.coords_of(pushed))


def is_quasi_iso(f: ChainMap) -> Certificate:
    """Pass iff homology of f is an isomorphism in every degree; the witness
    carries the least failing degree."""
    for i in support(f.source, f.target):
        if not induced_map(f, i).is_iso():
            return failed("quasi_iso", degree=i,
                          source=str(homology_group(f.source, i)),
                          target=str(homology_group(f.target, i)))
    return passed("quasi_iso")


# ---------------------------------------------------------------------------
# functorial constructions


def shift(x: ChainComplex, n: int) -> ChainComplex:
    """Suspension: degree i of the result is degree i-n of x; differentials
    pick up the usual (-1)^n sign."""
    sign = -1 if n % 2 else 1
    return ChainComplex._trusted(x.min_deg + n, x.degrees, tuple(d.scale(sign) for d in x.differentials))


def direct_sum(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """X + Y degreewise.  The result's window runs from the lower window's
    bottom to the higher one's top, so every degree in a gap between the two
    windows is laid out as a zero degree: the cost grows with that gap."""
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    lo = min(x.min_deg, y.min_deg)
    hi = max(x.top_deg, y.top_deg)
    degs = tuple(x.pres_at(i).direct_sum(y.pres_at(i)) for i in range(lo, hi + 1))
    diffs = tuple(block_diag(x.diff_at(i), y.diff_at(i)) for i in range(lo + 1, hi + 1))
    return ChainComplex._trusted(lo, degs, diffs)


def direct_sum_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """Blockwise f + g between the direct sums of sources and targets."""
    source = direct_sum(f.source, g.source)
    target = direct_sum(f.target, g.target)
    comps = tuple(block_diag(f.component_at(i), g.component_at(i)) for i in source.span())
    return ChainMap._trusted(source, target, comps)


def cotuple(f: ChainMap, g: ChainMap) -> ChainMap:
    """[f | g]: f on the first summand, g on the second, into a shared target."""
    if f.target != g.target:
        raise IllFormedMap("cotuple needs a shared target")
    source = direct_sum(f.source, g.source)
    comps = tuple(f.component_at(i).hstack(g.component_at(i)) for i in source.span())
    return ChainMap._trusted(source, f.target, comps)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone(f)_n = X_{n-1} + Y_n, d(x, y) = (-dx, dy - fx): d_n = [[-d_X, 0], [-f, d_Y]].

    Like `direct_sum`, it lays out every degree between the windows of the
    shifted source and the target, so its cost grows with the gap between
    them."""
    x, y = f.source, f.target
    if x.is_zero or y.is_zero:  # no window to lay out between the two sides
        return y if x.is_zero else shift(x, 1)
    lo = min(x.min_deg + 1, y.min_deg)
    hi = max(x.top_deg + 1, y.top_deg)
    degs = tuple(x.pres_at(n - 1).direct_sum(y.pres_at(n)) for n in range(lo, hi + 1))
    blocks = ((x.diff_at(n - 1), f.component_at(n - 1), y.diff_at(n)) for n in range(lo + 1, hi + 1))
    diffs = tuple((-dx).vstack(-fx).hstack(IntegerMatrix.zero(dx.rows, dy.cols).vstack(dy))
                  for dx, fx, dy in blocks)
    return ChainComplex._trusted(lo, degs, diffs)


def hom_complex(m: ChainComplex, n: ChainComplex) -> ChainComplex:
    """Mapping complex: degree k holds the maps lowering degree by -k,
    i.e. families M_i -> N_{i+k}, with (df)(x) = d(f(x)) + (-1)^{k+1} f(d(x)).

    The source must be degreewise free.  Degree k has the generators
    (i, a, b) in that order, i over M's window: (i, a, b) sends generator a
    of M_i to generator b of N_{i+k}.  In blocks over i, degree k is
    presented by block_diag of kron(I_{g_M(i)}, R_{N,i+k}), and its
    differential is kron(I_{g_M(i)}, d_{N,i+k}) on the block diagonal plus
    (-1)^{k+1} kron(d_{M,i+1}^T, I_{g_N(i+k)}) on the block subdiagonal
    (column block i, row block i+1).  A degree with more than
    MAX_DEGREE_SIZE generators or relations raises InputError before any
    matrix is built."""
    if not m.is_degreewise_free:
        raise NotCofibrant("mapping complex requires a degreewise-free source")
    if m.is_zero or n.is_zero:
        return zero_complex()
    lo = n.min_deg - m.top_deg
    hi = n.top_deg - m.min_deg
    for k in range(lo, hi + 1):
        parts = [(m.pres_at(i).generators, n.pres_at(i + k)) for i in m.span()]
        for what, size in (("generators", sum(g * p.generators for g, p in parts)),
                           ("relations", sum(g * p.relations.cols for g, p in parts))):
            if size > MAX_DEGREE_SIZE:
                raise InputError(f"mapping complex degree {int_text(k)} has {size} {what}, "
                                 f"over the bound of {MAX_DEGREE_SIZE} per degree")

    def eye(x, i):
        return IntegerMatrix.identity(x.pres_at(i).generators)

    rels = (block_diag(*(kron(eye(m, i), n.pres_at(i + k).relations) for i in m.span()))
            for k in range(lo, hi + 1))
    degs = tuple(Presentation(r.rows, r) for r in rels)
    # the subdiagonal as a block diagonal whose first block (i = min_deg - 1) has no columns
    diffs = tuple(
        block_diag(*(kron(eye(m, i), n.diff_at(i + k)) for i in m.span()))
        + block_diag(*(kron(m.diff_at(i + 1).transpose(), eye(n, i + k))
                       for i in range(m.min_deg - 1, m.top_deg + 1))).scale(1 if k % 2 else -1)
        for k in range(lo + 1, hi + 1))
    return ChainComplex._trusted(lo, degs, diffs)


# ---------------------------------------------------------------------------
# sub-complexes (kernels, pullbacks), disk covers and cokernels


def subcomplex(x: ChainComplex, lo: int, lattices):
    """(S, inclusion) with S_i, for lo <= i < lo + len(lattices), the subgroup
    of x_i that the columns of lattices[i - lo] generate; None means all of
    x_i, kept with its own presentation and an identity component.  S is zero
    outside that window.  Each differential of S is d_i solved against the
    subgroup bases, so S exists only if d carries each subgroup into the next."""
    parts = [(x.pres_at(i), None) if lat is None else subgroup_presentation(x.pres_at(i), lat)
             for i, lat in enumerate(lattices, lo)]
    bases = [basis for _, basis in parts]
    diffs = []
    for i in range(lo + 1, lo + len(bases)):
        below, above = bases[i - lo - 1], bases[i - lo]
        pushed = x.diff_at(i) if above is None else x.diff_at(i) @ above
        coords = pushed if below is None else solve_matrix(below, pushed)
        if coords is None:
            raise IllFormedMap(f"sub-complex is not closed under d at degree {int_text(i)}")
        diffs.append(coords)
    sub = ChainComplex._trusted(lo, tuple(pres for pres, _ in parts), tuple(diffs))
    comps = tuple(IntegerMatrix.identity(x.pres_at(i).generators) if bases[i - lo] is None
                  else bases[i - lo] for i in sub.span())
    return sub, ChainMap._trusted(sub, x, comps)


def degreewise_pullback(f: ChainMap, g: ChainMap):
    """Fiber product of f: A -> C and g: B -> C, with projections: the kernel
    of the difference map (f, -g): A + B -> C, whose inclusion's two row
    blocks are the projections to A and B."""
    if f.target != g.target:
        raise IllFormedMap("pullback legs must share a target")
    a, b = f.source, g.source
    ab = direct_sum(a, b)
    difference = ChainMap._trusted(ab, f.target, tuple(
        f.component_at(i).hstack(-g.component_at(i)) for i in ab.span()))
    pb, incl = degreewise_kernel(difference)
    split = [(c, a.pres_at(i).generators) for i, c in zip(pb.span(), incl.components)]
    p1 = ChainMap._trusted(pb, a, tuple(c.take_rows(0, ga) for c, ga in split))
    p2 = ChainMap._trusted(pb, b, tuple(c.take_rows(ga, c.rows) for c, ga in split))
    return pb, p1, p2


def pullback_induced_map(p1: ChainMap, p2: ChainMap, f: ChainMap, g: ChainMap) -> ChainMap:
    """The map W -> pullback determined by f: W -> A and g: W -> B, where
    p1, p2 are the projections returned by degreewise_pullback.  The stacked
    projection components recover the subgroup basis, so solving against them
    yields exact coordinates."""
    if f.source != g.source:
        raise IllFormedMap("both legs must share a source")
    pb = p1.source
    w = f.source
    comps = []
    for i in w.span():
        basis = p1.component_at(i).vstack(p2.component_at(i))
        stacked = f.component_at(i).vstack(g.component_at(i))
        u = solve_matrix(basis, stacked)
        if u is None:
            raise IllFormedMap(f"legs do not land in the fiber product at degree {int_text(i)}")
        comps.append(u)
    return ChainMap(w, pb, tuple(comps))


def degreewise_kernel(f: ChainMap):
    """(K, inclusion) with K_i the kernel of f_i as a subgroup of source_i."""
    x = f.source
    lattices = [preimage_lattice(f.component_at(i), f.target.pres_at(i).relations)
                for i in x.span()]
    return subcomplex(x, x.min_deg, lattices)


def disk_cover(p: ChainComplex) -> ChainMap:
    """Map a sum of disks, one per generator of p, onto p: the sum is
    degreewise free and acyclic, and the map is onto in every degree.

    Degree n of the sum holds the tops of the degree-n disks, then the
    bottoms of the degree-(n+1) disks; each top goes to its generator and
    each bottom to that generator's boundary, so the component is
    [I | d_{n+1}].  The order is that of summing the disks one at a time,
    by degree and then generator.  The sum is laid out in one pass, not
    folded through `direct_sum`.
    """
    lo = p.min_deg - 1
    gens = {n: p.pres_at(n).generators for n in range(lo, p.top_deg + 2)}
    disks = ChainComplex._trusted(
        lo,
        tuple(Presentation.free(gens[n] + gens[n + 1]) for n in range(lo, p.top_deg + 1)),
        tuple(block_diag(IntegerMatrix.zero(gens[n - 1], 0), IntegerMatrix.identity(gens[n]),
                         IntegerMatrix.zero(0, gens[n + 1]))
              for n in range(lo + 1, p.top_deg + 1)))
    return ChainMap._trusted(disks, p, tuple(IntegerMatrix.identity(gens[n]).hstack(p.diff_at(n + 1))
                                             for n in disks.span()))


def disk_factorization(f: ChainMap):
    """(incl, proj) with f = proj after incl, through X + D for f: X -> Y and
    D the sum of disks of `disk_cover(Y)`.  incl, the first-summand
    inclusion, is a split injection with free cokernel D and, D being
    acyclic, a quasi-isomorphism; proj = [f | cover] is onto in every degree
    because the cover is.  The inclusion is built in one shot, not through
    `direct_sum_map`."""
    proj = cotuple(f, disk_cover(f.target))
    return ChainMap._trusted(f.source, proj.source, _prefix_components(f.source, proj.source)), proj


def truncation(x: ChainComplex, n: int):
    """(P, q): degrees above n dropped, degree n quotiented by boundaries,
    q the degreewise quotient map.  H_i(P) = H_i(X) for i <= n, zero above.
    P keeps a prefix of X's window as it stands and cuts it at one degree."""
    if x.is_zero or n < x.min_deg:
        p = zero_complex()
    else:
        cut = min(n, x.top_deg)
        degs = x.degrees[: cut - x.min_deg] + (x.pres_at(cut).quotient(x.diff_at(cut + 1)),)
        p = ChainComplex._trusted(x.min_deg, degs, x.differentials[: cut - x.min_deg])
    return p, ChainMap._trusted(x, p, _prefix_components(x, p))


def cokernel_complex(j: ChainMap):
    """(Q, q) where Q_i = target_i / im(j_i) and q is the quotient map."""
    x = j.target
    degs = tuple(x.pres_at(i).quotient(j.component_at(i)) for i in x.span())
    quo = ChainComplex._trusted(x.min_deg, degs, x.differentials)
    q = ChainMap._trusted(x, quo, tuple(IntegerMatrix.identity(p.generators) for p in x.degrees))
    return quo, q


# ---------------------------------------------------------------------------
# long exact sequence of a degreewise short exact sequence


def connecting_map(j: ChainMap, q: ChainMap, i: int) -> GroupMap:
    """Snake map H_i(Q) -> H_{i-1}(C) for a degreewise-exact pair
    C --j--> X --q--> Q: lift a cycle through q, differentiate, pull back
    through j, and read off homology coordinates."""
    x = j.target
    c = j.source
    quo = q.target
    hq = homology_data(quo, i)
    hc = homology_data(c, i - 1)
    lift_system = q.component_at(i).hstack(quo.pres_at(i).relations)
    lifted = solve_matrix(lift_system, hq.basis)
    if lifted is None:
        raise IllFormedMap(f"quotient map is not surjective at degree {int_text(i)}")
    dx = x.diff_at(i) @ lifted.take_rows(0, x.pres_at(i).generators)
    pull_system = j.component_at(i - 1).hstack(x.pres_at(i - 1).relations)
    pulled = solve_matrix(pull_system, dx)
    if pulled is None:
        raise IllFormedMap(f"boundary does not come from the subcomplex at degree {int_text(i - 1)}")
    mat = pulled.take_rows(0, c.pres_at(i - 1).generators)
    return GroupMap(hq.presentation, hc.presentation, hc.coords_of(mat))


def les_certificate(j: ChainMap, q: ChainMap) -> Certificate:
    """Exactness of the homology long exact sequence of 0 -> C -> X -> Q -> 0
    at every spot from one above the three complexes' support down to its bottom."""
    degrees = support(j.source, j.target, q.target)
    maps, labels = [], []
    for i in range(degrees[-1] + 1, degrees[0] - 1, -1) if degrees else ():
        d, below = int_text(i), int_text(i - 1)
        maps.append(induced_map(j, i))
        labels.append(f"H_{d}(sub) -> H_{d}(total)")
        maps.append(induced_map(q, i))
        labels.append(f"H_{d}(total) -> H_{d}(quotient)")
        maps.append(connecting_map(j, q, i))
        labels.append(f"H_{d}(quotient) -> H_{below}(sub)")
    checks = []
    for a, b, label in zip(maps, maps[1:], labels[1:]):
        ok, reason = is_exact_pair(a, b)
        checks.append(passed("exact_at", spot=label) if ok
                      else failed("exact_at", spot=label, reason=reason))
    return bundle("long_exact_sequence", checks)


# ---------------------------------------------------------------------------
# cofibrant replacement


def cofibrant_replacement(x: ChainComplex):
    """(F, q) with F degreewise free and q: F -> X a quasi-isomorphism.

    Already-free complexes are returned untouched with the identity.  The
    general case is the twisted total complex of generators over relation
    bases.  With g_i generators and rho_i = `column_basis` of the relations
    of X_i (r_i columns), solve d_i rho_i = rho_{i-1} s_i and
    d_{i-1} d_i = rho_{i-2} h_i exactly (X is valid, so both exist); then
    F_i = Z^{g_i} + Z^{r_{i-1}} for min_deg <= i <= top_deg + 1, with

        D_i = [[d_i, rho_{i-1}], [-h_i, -s_{i-1}]]    and    q_i = [I | 0].

    D^2 = 0 holds after multiplying each block by rho on the left, so it
    holds because rho is injective: a generating set with dependent columns
    would not do, which is why rho is a basis.  q is a chain map (its square
    commutes up to rho_{i-1}, a relation of X) and onto in every degree.
    Its kernel is {(rho_i a, y)}, and in the coordinates (a, y + s_i a) the
    differential sends (a, b) to (b, 0): the cone of an identity, which is
    acyclic.  So q is a quasi-isomorphism."""
    if x.is_degreewise_free:
        return x, ChainMap.identity(x)
    lo, hi = x.min_deg, x.top_deg + 1
    rho = {i: column_basis(x.pres_at(i).relations) for i in range(lo - 1, hi)}
    s = {i: solve_matrix(rho[i - 1], x.diff_at(i) @ rho[i]) for i in range(lo, hi)}
    degs, diffs = [], []
    for i in range(lo, hi + 1):
        degs.append(Presentation.free(x.pres_at(i).generators + rho[i - 1].cols))
        if i > lo:
            h = solve_matrix(rho[i - 2], x.diff_at(i - 1) @ x.diff_at(i))
            diffs.append(x.diff_at(i).hstack(rho[i - 1]).vstack(-h.hstack(s[i - 1])))
    free = ChainComplex._trusted(lo, tuple(degs), tuple(diffs))
    return free, ChainMap._trusted(free, x, _prefix_components(free, x))
