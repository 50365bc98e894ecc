"""Seeded random instances.

Complexes are assembled from elementary blocks (spheres, disks, two-term
torsion blocks) whose differentials compose to zero by construction, then
shuffled by signed generator permutations and small shears — unimodular
basis changes, so d squared stays zero and homology is untouched.  Entry
sizes are re-checked after every shear; a shear that would push an entry
past the profile bound is simply skipped, keeping every generated document
inside its declared bounds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import ChainComplex, direct_sum, disk_complex, moore_complex, sphere_complex, zero_complex
from .errors import InputError
from .exactalg import IntegerMatrix, prime_part
from .serialize import complex_to_doc

_HARD_SPAN = 8
_HARD_GENS = 4
_HARD_ENTRY = 5
_HARD_PRIMES = frozenset({2, 3, 5})


@dataclass(frozen=True)
class GenProfile:
    """Bounds for generated complexes; the hard caps keep instances small
    enough for exact arithmetic to stay fast."""

    max_span: int = 5
    max_generators: int = 3
    max_entry: int = 5
    primes: tuple[int, ...] = (2, 3, 5)
    min_degree: int = -2
    homology_degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.max_span <= _HARD_SPAN:
            raise InputError(f"max_span must lie in 1..{_HARD_SPAN}")
        if not 1 <= self.max_generators <= _HARD_GENS:
            raise InputError(f"max_generators must lie in 1..{_HARD_GENS}")
        if not 1 <= self.max_entry <= _HARD_ENTRY:
            raise InputError(f"max_entry must lie in 1..{_HARD_ENTRY}")
        if not set(self.primes) <= _HARD_PRIMES:
            raise InputError(f"torsion primes must lie in {sorted(_HARD_PRIMES)}")

    def torsion_orders(self) -> list[int]:
        return [t for t in range(2, self.max_entry + 1)
                if prime_part(t, self.primes) == t]


def _signed_permutation(rng: random.Random, n: int) -> IntegerMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    cols = []
    for j in range(n):
        col = [0] * n
        col[perm[j]] = rng.choice((1, -1))
        cols.append(col)
    return IntegerMatrix.from_cols(cols, rows=n)


def _shear(n: int, a: int, b: int, c: int) -> IntegerMatrix:
    filled = IntegerMatrix.identity(n).to_rows()
    filled[a][b] = c
    return IntegerMatrix.from_rows(filled)


def _within(m: IntegerMatrix, bound: int) -> bool:
    return all(abs(e) <= bound for e in m.entries)


def _rebase(x: ChainComplex, changes: list[IntegerMatrix],
            inverses: list[IntegerMatrix]) -> ChainComplex:
    diffs = tuple(changes[j] @ x.differentials[j] @ inverses[j + 1]
                  for j in range(len(x.differentials)))
    return ChainComplex(x.min_deg, x.degrees, diffs)


def random_complex(rng: random.Random, profile: GenProfile = GenProfile()) -> ChainComplex:
    """A bounded degreewise-free complex within the profile's bounds."""
    lo = profile.min_degree
    hi = lo + profile.max_span - 1
    orders = profile.torsion_orders()
    out = zero_complex()

    def room_for(piece: ChainComplex) -> bool:
        return all(out.pres_at(i).generators + piece.pres_at(i).generators
                   <= profile.max_generators for i in piece.span())

    kinds = [0] + ([1, 2] if profile.max_span >= 2 and orders
                   else [1] if profile.max_span >= 2 else [])
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(kinds)
        if profile.homology_degrees is not None and kind != 1:
            n = rng.choice(profile.homology_degrees)
        else:
            n = rng.randint(lo, hi)
        if kind == 0:
            piece = sphere_complex(n)
        elif kind == 1:
            piece = disk_complex(min(n + 1, hi))
        else:
            piece = moore_complex(rng.choice(orders), min(n, hi - 1))
        if room_for(piece):
            out = direct_sum(out, piece)
    if out.is_zero:
        fallback = (profile.homology_degrees[0]
                    if profile.homology_degrees is not None else lo)
        out = sphere_complex(fallback)

    # signed permutations per degree, then a few bounded shears
    gens = [out.pres_at(i).generators for i in out.span()]
    changes = [_signed_permutation(rng, g) for g in gens]
    inverses = [c.transpose() for c in changes]
    out = _rebase(out, changes, inverses)
    for _ in range(rng.randint(0, 4)):
        j = rng.randrange(len(gens))
        if gens[j] < 2:
            continue
        a, b = rng.sample(range(gens[j]), 2)
        u = _shear(gens[j], a, b, rng.choice((1, -1)))
        u_inv = _shear(gens[j], a, b, -u.entry(a, b))
        changes = [IntegerMatrix.identity(g) if jj != j else u
                   for jj, g in enumerate(gens)]
        inverses = [IntegerMatrix.identity(g) if jj != j else u_inv
                    for jj, g in enumerate(gens)]
        candidate = _rebase(out, changes, inverses)
        if all(_within(d, profile.max_entry) for d in candidate.differentials):
            out = candidate
    return out


def generate(seed: int, profile: GenProfile = GenProfile()) -> dict:
    """The documented form of a seeded random complex; equal seeds give
    equal documents."""
    rng = random.Random(seed)
    x = random_complex(rng, profile)
    return complex_to_doc(x, f"generated_{seed}", metadata={"seed": str(seed)})
