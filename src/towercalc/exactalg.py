"""Exact integer linear algebra and finitely presented abelian groups.

Everything downstream reduces to lattice arithmetic in Z^n: Smith normal form
with unimodular transforms, integer kernels and linear solves, column-lattice
bases and membership, and subquotient presentations.  All arithmetic is plain
Python int (arbitrary precision); no floating point appears anywhere in this
package.

One lattice core serves all of it: `_hermite` builds row Hermite forms one
row at a time with back-reduction (Kannan-Bachem 1979), so every entry
above a pivot stays below that pivot.  `smith_normal_form` alternates row
and column Hermite forms of the matrix with its transforms appended;
`column_basis` is the nonzero part of one column Hermite form; and
`group_from_presentation` reads the diagonal of a Smith form already
computed, or else runs the same alternation on one column Hermite form
with empty transforms, since invariant factors need none.  The Smith
transforms stay near the size of the matrix's minors: on dense 32 x 32
matrices with entries at most 9 their largest entry measured 136 bits
against a 158-bit Hadamard bound, where a transform-tracking elimination
without reduction reached thousands of bits at 10 x 10.

Caches
------
The caching rule is stated under "Caches" in `complexes`; this module keeps
the normal forms and the lattice memos.  Each matrix has one normal-form
record, kept for the CACHE_MAXSIZE most recently used matrices by
`_normal_forms`: its Smith form, its column Hermite form (the basis
`column_basis` returns) and the group its columns present, each filled in
when first asked for.  Hermite forms and Smith invariants are unique, so
whichever route fills a field gives the same value.  A group asked for after
the Smith form is read off its diagonal; one asked for first comes from the
transform-free Hermite route, whose form then serves `column_basis`.  Within
the cache bound, each normal form of a matrix is computed once per process.
The three lattice problems `solve_matrix`, `preimage_lattice` and
`subquotient` are memos of BUILD_CACHE_MAXSIZE entries: every homotopy limit
downstream (tower limits, fibered products, homotopy fibers) comes down to
kernels and subquotients, and one complex's battery of checks asks for the
same ones again and again.  Their arguments and values are matrices and
presentations (or None): immutable tuple-backed records (see `Record`),
compared and hashed by structure, so a hit hands back a value equal to a
fresh computation.  `column_basis` is no memo of its own: it reads the
normal-form record.  `lattice_contains` is not memoized: its zero-vector and
zero-lattice exits run before any lookup, and the rest reaches the
`solve_matrix` memo.

Builders hand back an existing equal record wherever shapes or object
identity decide the result, reading no entries: a product with an empty
dimension or with the shared identity, a stack onto an empty side, a Smith
transform that no step touched.  Records are immutable, so sharing is safe,
and a memo hit on a shared key compares by identity, not by structure.

Deciding by invariants
----------------------
A finitely generated abelian group is Hopfian: every surjective
endomorphism is injective, so a surjection between isomorphic groups is an
isomorphism (Vasconcelos 1969).  For lattices inner ⊆ outer in Z^n the
quotient map Z^n/inner -> Z^n/outer is such a surjection, so the lattices
are equal exactly when the quotients have the same invariant factors:
`nested_lattices_equal` reads them from two cached `group_from_presentation`
calls and solves nothing.  `GroupMap.is_iso`, `GroupMap.is_injective`,
`is_exact_pair` and the image chains of `mittag_leffler_diagnostic` decide
through it.  The containment is the caller's precondition, and for the
maps it comes from well-definedness: a well-defined map's kernel lattice
holds the source relations, and a well-defined g with g∘f = 0 has f's image
lattice inside its kernel lattice.  A map built unchecked from invalid data
can get a wrong verdict; every public constructor runs the lattice check.

Conventions
-----------
Group elements are integer column vectors on a presentation's generators; a
map's matrix has shape (target generators x source generators) and acts on
the left.  A presentation's relation matrix stores one relation per COLUMN
(shape generators x relations), so its columns span the relation lattice
and every lattice routine takes it as it is.  Only `serialize` sees the
document layout of one relation per row.  Block matrices are built whole
by `hstack`, `vstack`, `block_diag` and `kron` (the Kronecker product).
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, prod

from .certificates import int_text
from .errors import IllFormedMap, InputError

# Entries kept by each normal-form cache (here and in complexes).  Unbounded,
# the caches hold every matrix and complex a long run has seen.
CACHE_MAXSIZE = 1024

# The bound of every cache of the caching rule ("Caches" in `complexes`)
# other than the normal-form and homology records: each lattice memo
# (solve_matrix, preimage_lattice, subquotient), each repeated construction
# (postnikov_section, hofib_factorization, and tower_limit, which
# milnor_check asks for once per degree) and the shared constant matrices.
# Their reuse happens inside one complex's battery.  Over 240 seeded
# complexes, postnikov_section keeps 5,684 of the 5,755 hits it gets at 1024
# entries, and 1024-entry construction caches raised the peak RSS of a
# 480-complex battery from 28.5 to 39.9 MB.  solve_matrix gets 43,786 hits
# against 13,237 misses at 64 entries; at 1024 its misses fall to 5,543 but
# the battery's CPU time does not.
BUILD_CACHE_MAXSIZE = 64


# ---------------------------------------------------------------------------
# records


class Record(tuple):
    """Base of the value types that key the caches: `IntegerMatrix`,
    `Presentation`, `GroupMap` and, in `complexes`, `ChainComplex` and
    `ChainMap`.  Each is a tuple of its fields, named by `namedtuple`, so
    building one is a single `tuple.__new__` and hashing recurses through
    the nested records in C, entering no Python frame.  A record equals only
    a record of its own type with equal fields, and the tuple operators `+`,
    `*` and ordering are switched off: a record is a value, not a sequence.
    Builders return an existing equal record where shapes or identity decide
    the result (see "Caches"), so memo hits mostly compare by identity."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(self) is not type(other) or tuple.__ne__(self, other)

    def _unsupported(self, other):
        return NotImplemented

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _unsupported
    del _unsupported


# ---------------------------------------------------------------------------
# matrices


class IntegerMatrix(Record, namedtuple("IntegerMatrix", "rows cols entries")):
    """Immutable row-major integer matrix."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        return tuple.__new__(cls, (rows, cols, entries))

    @staticmethod
    def from_rows(rows_data) -> "IntegerMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows_data for x in r)
        return IntegerMatrix(nrows, ncols, flat)

    @staticmethod
    def from_cols(cols_data, rows: int | None = None) -> "IntegerMatrix":
        cols_data = [list(c) for c in cols_data]
        if rows is None:
            if not cols_data:
                raise ValueError("cannot infer row count from zero columns")
            rows = len(cols_data[0])
        if any(len(c) != rows for c in cols_data):
            raise ValueError("ragged columns")
        flat = tuple(int(c[i]) for i in range(rows) for c in cols_data)
        return IntegerMatrix(rows, len(cols_data), flat)

    # identity and zero matrices are shared by shape: a run asks for few shapes
    @staticmethod
    @lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    @lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        if not (n and m and k):
            return IntegerMatrix.zero(n, m)
        if n == k and self is IntegerMatrix.identity(k):
            return other
        if k == m and other is IntegerMatrix.identity(k):
            return self
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            base = i * m
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m:(t + 1) * m]
                    for j in range(m):
                        out[base + j] += av * brow[j]
        return IntegerMatrix(n, m, tuple(out))

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntegerMatrix(self.rows, self.cols,
                             tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return self + (-other)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def scale(self, k: int) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple(k * x for x in self.entries))

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        if not (self.cols and other.cols):  # a side with no columns adds nothing
            return self if not other.cols else other
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return IntegerMatrix(self.rows, self.cols + other.cols, tuple(ent))

    def vstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        if not (self.rows and other.rows):  # a side with no rows adds nothing
            return self if not other.rows else other
        return IntegerMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_rows(self, start: int, stop: int) -> "IntegerMatrix":
        if start == 0 and stop == self.rows:
            return self
        return IntegerMatrix(stop - start, self.cols, self.entries[start * self.cols:stop * self.cols])

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __str__(self):
        return "[" + "; ".join(" ".join(map(int_text, self.row(i))) for i in range(self.rows)) + "]"


def block_diag(*mats: IntegerMatrix) -> IntegerMatrix:
    rows, cols = sum(m.rows for m in mats), sum(m.cols for m in mats)
    if not (rows and cols):
        return IntegerMatrix.zero(rows, cols)
    out: list[int] = []
    c = 0
    for m in mats:
        for i in range(m.rows):
            out.extend((0,) * c + m.row(i) + (0,) * (cols - c - m.cols))
        c += m.cols
    return IntegerMatrix(rows, cols, tuple(out))


def kron(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Kronecker product: block (i, j) is a[i, j] * b."""
    return IntegerMatrix(a.rows * b.rows, a.cols * b.cols, tuple(
        x * y for i in range(a.rows) for p in range(b.rows) for x in a.row(i) for y in b.row(p)))


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) and |s| < |b|/g, for b != 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, abs(b) // g)
    return g, s, (g - s * a) // b


def _hermite(rows) -> list[list[int]]:
    """Row Hermite form of `rows` (equal-length lists): the nonzero rows of
    the echelon basis of their row lattice with positive pivots and every
    entry above a pivot in [0, pivot).

    Rows are inserted one at a time (Kannan-Bachem).  A new row is reduced
    by the pivot rows; where a pivot does not divide it, a 2x2 unimodular
    xgcd step replaces the pivot row by the gcd row.  After each insertion
    the rows are back-reduced at the pivots that changed, so each prefix
    reaches its own Hermite form; reducing only the new row lets entries
    grow without bound.
    """
    h: list[list[int]] = []      # pivot rows, ascending pivot column
    cols: list[int] = []         # their pivot columns
    stamp: list[int] = []        # the insertion that last changed each pivot row
    for t, r in enumerate(rows):
        n = len(h)
        last = -1                # the lowest pivot row this insertion changed
        k, prev = 0, -1
        while True:
            c = cols[k] if k < n else len(r)
            if any(r[prev + 1:c]):
                # the leading entry lies in a column without a pivot
                c = prev + 1
                while not r[c]:
                    c += 1
                if r[c] < 0:
                    r[c:] = [-x for x in r[c:]]
                h.insert(k, r)
                cols.insert(k, c)
                stamp.insert(k, t)
                last = k
                break
            if k == n:
                break
            b = r[c]
            if b:
                # both rows vanish before column c, so only their tails change
                p = h[k]
                a = p[c]
                q, rem = divmod(b, a)
                if rem:
                    g, s, u = _xgcd(a, b)
                    a, b = a // g, b // g
                    pt, rt = p[c:], r[c:]
                    h[k] = p = p[:c] + [s * x + u * y for x, y in zip(pt, rt)]
                    r[c:] = [a * y - b * x for x, y in zip(pt, rt)]
                    stamp[k] = t
                    last = k
                else:
                    r[c:] = [y - q * x for x, y in zip(p[c:], r[c:])]
            prev = c
            k += 1
        # A changed row is reduced at every later pivot; an unchanged row
        # only from the first changed pivot it is out of range at.
        n = len(h)
        hot = [k for k in range(last + 1) if stamp[k] == t]
        for j in range(last, -1, -1):
            row = h[j]
            start = j + 1
            if stamp[j] != t:
                start = n
                for k in hot:
                    if k > j and not 0 <= row[cols[k]] < h[k][cols[k]]:
                        start = k
                        break
            for k in range(start, n):
                c = cols[k]
                x, pk = row[c], h[k]
                if x < 0 or x >= pk[c]:
                    q = x // pk[c]
                    row[c:] = [y - q * z for y, z in zip(row[c:], pk[c:])]
    return h


def _settled(a) -> bool:
    """Diagonal, nonnegative, zeros after the nonzero entries."""
    zero_seen = False
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and (i != j or x < 0 or zero_seen):
                return False
        if i >= len(row) or not row[i]:
            zero_seen = True
    return True


def _diagonalize(a, u, vt):
    """Diagonalize `a` (a list of rows) by alternating row and column
    Hermite forms.  Row i of `u` rides along with row i of a and row j of
    `vt` with column j, so identities come back as U and V^T: both
    augmented matrices then have full row rank and no row drops out.  With
    empty transforms (lists of empty rows) zero rows and columns drop out,
    and the caller reads rank-many diagonal entries."""
    nr, nc = len(u), len(vt)
    rows_next = True
    while not _settled(a):
        if rows_next:
            h = _hermite([x + y for x, y in zip(a, u)])
            a, u = [r[:nc] for r in h], [r[nc:] for r in h]
        else:
            h = _hermite([list(x) + y for x, y in zip(zip(*a), vt)])
            a, vt = [list(x) for x in zip(*(r[:nr] for r in h))], [r[nr:] for r in h]
        rows_next = not rows_next
    return a, u, vt


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ matrix @ V == diag(d) with U, V unimodular; d[i] | d[i+1] while
    nonzero, nonzero invariants first, all nonnegative."""

    d: tuple[int, ...]
    U: IntegerMatrix
    V: IntegerMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x)


class _NormalForms:
    """What is known of one matrix, filled in as the readers ask: its Smith
    form `snf`, its column Hermite form `basis` (the matrix `column_basis`
    returns) and the group its columns present."""

    __slots__ = ("snf", "basis", "group")

    def __init__(self):
        self.snf = self.basis = self.group = None


@lru_cache(maxsize=CACHE_MAXSIZE)
def _normal_forms(m: IntegerMatrix) -> _NormalForms:
    """The record of `m`, kept for the CACHE_MAXSIZE most recently used
    matrices."""
    return _NormalForms()


def smith_normal_form(m: IntegerMatrix) -> SnfDecomposition:
    """Diagonalize over Z, tracking the unimodular row/column transforms.

    Row Hermite forms of [m | U] alternate with column Hermite forms of
    [m ; V] until m is diagonal (see `_hermite`); then 2x2 gcd/lcm exchanges
    Z/a + Z/b = Z/gcd + Z/lcm turn the diagonal into a divisibility chain.
    Each Hermite form keeps every entry above a pivot below that pivot, so
    U and V stay near the Hadamard bound of m instead of growing with every
    elimination step (tests pin n times its bit-length).  The result is
    kept in the matrix's normal-form record (see "Caches"), where
    `group_from_presentation` reads its diagonal.
    """
    forms = _normal_forms(m)
    if forms.snf is None:
        forms.snf = _smith_form(m)
    return forms.snf


def _smith_form(m: IntegerMatrix) -> SnfDecomposition:
    """The uncached core of `smith_normal_form`."""
    nr, nc, e = m.rows, m.cols, m.entries
    u0, vt0 = _identity_rows(nr), _identity_rows(nc)
    a, u, vt = _diagonalize([list(e[i * nc:(i + 1) * nc]) for i in range(nr)], u0, vt0)
    d = [a[i][i] for i in range(min(nr, nc))]
    rank = sum(1 for x in d if x)
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = d[i], d[j]
            if y % x:
                u0 = vt0 = None  # the exchange below changes both transforms
                g, s, t = _xgcd(x, y)
                x, y = x // g, y // g
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i] = [s * p + t * q for p, q in zip(ui, uj)]
                u[j] = [x * q - y * p for p, q in zip(ui, uj)]
                vt[i] = [p + q for p, q in zip(vi, vj)]
                vt[j] = [s * x * q - t * y * p for p, q in zip(vi, vj)]
                d[i], d[j] = g, g * x * y
    U = IntegerMatrix.identity(nr) if u is u0 else IntegerMatrix(nr, nr, tuple(chain.from_iterable(u)))
    V = IntegerMatrix.identity(nc) if vt is vt0 else IntegerMatrix(nc, nc, tuple(chain.from_iterable(zip(*vt))))
    return SnfDecomposition(tuple(d), U, V)


def integer_kernel(m: IntegerMatrix) -> IntegerMatrix:
    """Columns form a basis of {x : m @ x = 0}."""
    snf = smith_normal_form(m)
    lim = min(m.rows, m.cols)
    free = [j for j in range(lim) if snf.d[j] == 0] + list(range(lim, m.cols))
    if len(free) == m.cols:  # every column of V, in order
        return snf.V
    return IntegerMatrix.from_cols([snf.V.col(j) for j in free], rows=m.cols)


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def solve_matrix(m: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix | None:
    """X with m @ X = b, or None: X = V @ (diag(d)^-1 @ U @ b), one SNF and
    two matrix products for all columns."""
    if b.rows != m.rows:
        raise ValueError("rhs rows mismatch")
    snf = smith_normal_form(m)
    ub = snf.U @ b
    k = b.cols
    y = []
    for i in range(m.rows):
        row = ub.entries[i * k:(i + 1) * k]
        di = snf.d[i] if i < len(snf.d) else 0
        if di:
            quot = [divmod(x, di) for x in row]
            if any(r for _, r in quot):
                return None
            y.extend(q for q, _ in quot)
        elif any(row):
            return None
    y.extend([0] * (m.cols * k - len(y)))
    return snf.V @ IntegerMatrix(m.cols, k, tuple(y))


def _column_hermite(m: IntegerMatrix) -> IntegerMatrix:
    """The column Hermite form of m, uncached: `_hermite` of its columns,
    whose rows are the basis columns of its column lattice."""
    h = _hermite([list(c) for c in m.columns()])
    return IntegerMatrix(m.rows, len(h), tuple(chain.from_iterable(zip(*h))))


def column_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis (as columns) of the column lattice of m: the nonzero columns of
    its column Hermite form, kept in the matrix's normal-form record, where
    `group_from_presentation` may already have left it."""
    if m.rows == m.cols and m is IntegerMatrix.identity(m.rows):
        return m
    forms = _normal_forms(m)
    if forms.basis is None:
        forms.basis = _column_hermite(m)
    return forms.basis


def lattice_contains(gens: IntegerMatrix, vectors: IntegerMatrix) -> bool:
    """Is every column of `vectors` in the column lattice of `gens`?"""
    if vectors.rows != gens.rows:
        raise ValueError("rhs rows mismatch")
    if vectors.is_zero:
        return True
    if gens.is_zero:
        return False
    return solve_matrix(gens, vectors) is not None


# ---------------------------------------------------------------------------
# abelian groups in invariant-factor normal form


def _invariant_factors(orders) -> tuple[int, ...]:
    """Normalize a list of cyclic orders into an invariant-factor chain.

    Pairwise exchange Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): after pass i,
    slot i holds the gcd of slots i.. and divides every later slot, so the
    slots end as a divisibility chain.  Nothing is factored, and SNF is
    avoided on purpose so the closed-form route stays independent of it.
    """
    chain = [abs(n) for n in orders if abs(n) > 1]
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            b = chain[j]
            g = gcd(a, b)
            a, chain[j] = g, a // g * b
        chain[i] = a
    return tuple(t for t in chain if t > 1)


# Deterministic Miller-Rabin: the first thirteen primes as bases decide
# primality for every n below this bound (Sorenson and Webster, 2015).
PRIME_CERTIFY_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n >= PRIME_CERTIFY_BOUND:
        raise InputError(f"{n} is too large to certify as prime "
                         f"(primes must be below {PRIME_CERTIFY_BOUND})")
    if n < 2:
        return False
    if n in _WITNESSES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def certified_primes(primes) -> frozenset[int]:
    """`primes` as a frozenset, each one certified prime; a non-prime or a
    value past PRIME_CERTIFY_BOUND raises InputError."""
    primes = frozenset(primes)
    for p in primes:
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
    return primes


def prime_part(t: int, primes) -> int:
    """The J-part of t for J = `primes`: its largest divisor built from
    primes in J.  Dividing out gcds with the product of J finds it without
    factoring t."""
    t = abs(t)
    if t == 0:
        raise ValueError("the zero order has no prime part")
    part = 1
    g = gcd(t, prod(primes))
    while g > 1:
        t //= g
        part *= g
        g = gcd(t, g)
    return part


@dataclass(frozen=True)
class FpAbelianGroup:
    """Z^rank + Z/t_1 + ... + Z/t_k with t_1 | t_2 | ..., each t_i >= 2."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for prev, cur in zip((1,) + self.torsion, self.torsion):
            if cur < 2:
                raise ValueError("invariant factors must be >= 2")
            if cur % prev:
                raise ValueError("invariant factors must form a divisibility chain")

    @staticmethod
    def free(rank: int) -> "FpAbelianGroup":
        return FpAbelianGroup(rank, ())

    @staticmethod
    def zero() -> "FpAbelianGroup":
        return FpAbelianGroup(0, ())

    @staticmethod
    def cyclic(n: int) -> "FpAbelianGroup":
        n = abs(n)
        if n == 0:
            return FpAbelianGroup(1, ())
        if n == 1:
            return FpAbelianGroup(0, ())
        return FpAbelianGroup(0, (n,))

    @staticmethod
    def from_orders(rank: int, orders) -> "FpAbelianGroup":
        return FpAbelianGroup(rank, _invariant_factors(orders))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion)

    def direct_sum(self, other: "FpAbelianGroup") -> "FpAbelianGroup":
        return FpAbelianGroup.from_orders(self.rank + other.rank, self.torsion + other.torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{int_text(t)}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def group_from_presentation(relations: IntegerMatrix) -> FpAbelianGroup:
    """Quotient of Z^g (g = relations.rows) by the column span L of
    `relations`.

    The answer is kept in the matrix's normal-form record (see "Caches").
    When that record already holds a Smith form, the group is read off its
    diagonal (`_group_from_snf`) and no Hermite form is computed.  Otherwise
    it comes from the column Hermite form (`_group_from_hermite`), which
    tracks no transforms and is left in the record for `column_basis`.
    """
    forms = _normal_forms(relations)
    if forms.group is None:
        if forms.snf is not None:
            forms.group = _group_from_snf(relations, forms.snf)
        else:
            forms.group = _group_from_hermite(relations.rows, column_basis(relations))
    return forms.group


def _group_from_snf(relations: IntegerMatrix, snf: SnfDecomposition) -> FpAbelianGroup:
    """The group presented by `relations`, from its Smith form: free rank
    rows - rank, torsion the invariant factors above 1 (already a chain)."""
    return FpAbelianGroup(relations.rows - snf.rank, tuple(x for x in snf.d if x > 1))


def _group_from_hermite(g: int, basis: IntegerMatrix) -> FpAbelianGroup:
    """The quotient of Z^g by the column lattice whose column Hermite form
    (see `_column_hermite`) is `basis`, with transforms tracked nowhere.

    `basis` has r columns, so the quotient has free rank g - r.  When every
    pivot is 1 it is free; at r = g with one pivot p above 1 it is Z/p.
    Otherwise only the invariant factors d_1 | ... | d_r are needed, so
    `_diagonalize` runs on `basis` with no transforms appended and its r
    diagonal entries are normalized into the chain.
    """
    r = basis.cols
    free = g - r
    large = [p for p in (next(x for x in c if x) for c in basis.columns()) if p > 1]
    if not large:
        return FpAbelianGroup(free, ())
    if not free and len(large) == 1:
        # each relation with a unit pivot writes its generator through later
        # ones, so the generator at the one larger pivot spans the group
        return FpAbelianGroup(0, (large[0],))
    # the transpose of `basis` is a row Hermite form: start from `basis`
    # itself, so that the first (row) pass does work instead of rebuilding it
    a, _, _ = _diagonalize(basis.to_rows(), [[]] * g, [[]] * r)
    return FpAbelianGroup(free, _invariant_factors(a[i][i] for i in range(r)))


def nested_lattices_equal(outer: IntegerMatrix, inner: IntegerMatrix) -> bool:
    """Do the column lattices of `outer` and `inner` coincide, given that the
    lattice of `inner` lies inside that of `outer`?

    Precondition: inner ⊆ outer.  Then Z^n/inner maps onto Z^n/outer, and a
    finitely generated abelian group is Hopfian, so the two quotients are
    isomorphic exactly when that surjection is injective, that is, when the
    lattices are equal.  Two cached `group_from_presentation` calls, which
    track no transforms, decide it (see "Deciding by invariants"); without
    the precondition the answer means nothing."""
    return group_from_presentation(outer) == group_from_presentation(inner)


def hom_group(a: FpAbelianGroup, b: FpAbelianGroup) -> FpAbelianGroup:
    """Hom(Z,Z)=Z, Hom(Z/t,Z)=0, Hom(Z,Z/s)=Z/s, Hom(Z/t,Z/s)=Z/gcd(t,s)."""
    orders = [s for s in b.torsion for _ in range(a.rank)]
    orders += [gcd(t, s) for t in a.torsion for s in b.torsion]
    return FpAbelianGroup.from_orders(a.rank * b.rank, orders)


def ext_group(a: FpAbelianGroup, b: FpAbelianGroup) -> FpAbelianGroup:
    """Ext(Z,-)=0, Ext(Z/t,Z)=Z/t, Ext(Z/t,Z/s)=Z/gcd(t,s)."""
    orders = [t for t in a.torsion for _ in range(b.rank)]
    orders += [gcd(t, s) for t in a.torsion for s in b.torsion]
    return FpAbelianGroup.from_orders(0, orders)


# ---------------------------------------------------------------------------
# presentations, maps, subquotients


class Presentation(Record, namedtuple("Presentation", "generators relations")):
    """Z^generators modulo the column span of `relations`, a generators x k
    matrix holding one relation per column."""

    __slots__ = ()

    def __new__(cls, generators: int, relations: IntegerMatrix):
        if relations.rows != generators:
            raise ValueError("relation height must equal generator count")
        return tuple.__new__(cls, (generators, relations))

    @staticmethod
    @lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
    def free(n: int) -> "Presentation":
        return Presentation(n, IntegerMatrix.zero(n, 0))

    @staticmethod
    def of_group(g: FpAbelianGroup) -> "Presentation":
        """Canonical presentation: free generators first, then torsion."""
        n = g.rank + len(g.torsion)
        cols = [[t if k == g.rank + i else 0 for k in range(n)] for i, t in enumerate(g.torsion)]
        return Presentation(n, IntegerMatrix.from_cols(cols, rows=n))

    def group(self) -> FpAbelianGroup:
        return group_from_presentation(self.relations)

    def direct_sum(self, other: "Presentation") -> "Presentation":
        if not (self.generators or self.relations.cols):
            return other
        if not (other.generators or other.relations.cols):
            return self
        rel = block_diag(self.relations, other.relations)
        return Presentation(self.generators + other.generators, rel)

    def quotient(self, vectors: IntegerMatrix) -> "Presentation":
        """This group modulo the classes of the columns of `vectors`."""
        rel = self.relations.hstack(vectors)
        return self if rel is self.relations else Presentation(self.generators, rel)

    def contains_in_relations(self, vectors: IntegerMatrix) -> bool:
        return lattice_contains(self.relations, vectors)


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def preimage_lattice(matrix: IntegerMatrix, target_rel_cols: IntegerMatrix) -> IntegerMatrix:
    """Generators (as columns) of {v : matrix @ v lies in the column lattice
    of target_rel_cols}: the head of a kernel basis of [matrix | rels].

    The columns span the lattice but need not be independent; callers that
    count them as a basis take `column_basis` first.  `subquotient` already
    does, so passing the result there costs one Hermite form, not two.  The
    preimage under the shared identity is the relation lattice itself."""
    if matrix.rows == matrix.cols and matrix is IntegerMatrix.identity(matrix.rows):
        return target_rel_cols
    stacked = matrix.hstack(target_rel_cols)
    return integer_kernel(stacked).take_rows(0, matrix.cols)


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def subquotient(gens: IntegerMatrix, killers: IntegerMatrix):
    """Present L/K, where L is the column lattice of `gens` and K, the
    column lattice of `killers`, lies inside L.

    Returns (presentation, basis): the basis columns span L, and the
    relations are the killers written in that basis.
    """
    basis = column_basis(gens)
    coords = solve_matrix(basis, killers)
    if coords is None:
        raise AssertionError("killers escaped the lattice they should lie in")
    return Presentation(basis.cols, coords), basis


def subgroup_presentation(ambient: Presentation, lattice_gens: IntegerMatrix):
    """The subquotient (lattice + relations)/relations: the subgroup the
    lattice generates, its basis columns in ambient coordinates."""
    return subquotient(lattice_gens.hstack(ambient.relations), ambient.relations)


class Trusted(Record):
    """Base of `GroupMap`, `ChainComplex` and `ChainMap`.  Both the public
    constructor and `_trusted` build the tuple of the fields that the static
    `_normalise` returns; only the public constructor goes on to run the
    class's own `__init__`, its lattice check.  See "Validation" in
    `complexes` for what each does and when trust is sound."""

    __slots__ = ()

    def __new__(cls, *fields):
        return tuple.__new__(cls, cls._normalise(*fields))

    _trusted = classmethod(__new__)


class GroupMap(Trusted, namedtuple("GroupMap", "source target matrix")):
    """Homomorphism between presented groups, given on generators.

    Construction verifies well-definedness: the matrix must carry every
    source relation into the target relation lattice.
    """

    __slots__ = ()

    @staticmethod
    def _normalise(source, target, matrix):
        if matrix.cols != source.generators or matrix.rows != target.generators:
            raise IllFormedMap(
                f"matrix shape {matrix.rows}x{matrix.cols} does not match "
                f"{target.generators}x{source.generators}")
        return source, target, matrix

    def __init__(self, *fields):
        """The lattice check (see "Validation" in `complexes`)."""
        rel = self.source.relations  # with no relation columns there is nothing to carry
        if rel.cols and not self.target.contains_in_relations(self.matrix @ rel):
            raise IllFormedMap("matrix does not carry source relations into target relations")

    @staticmethod
    def identity(p: Presentation) -> "GroupMap":
        return GroupMap._trusted(p, p, IntegerMatrix.identity(p.generators))

    @staticmethod
    def zero(source: Presentation, target: Presentation) -> "GroupMap":
        return GroupMap._trusted(source, target, IntegerMatrix.zero(target.generators, source.generators))

    def compose(self, inner: "GroupMap") -> "GroupMap":
        """self after inner."""
        if inner.target != self.source:
            raise IllFormedMap("composition mismatch")
        return GroupMap._trusted(inner.source, self.target, self.matrix @ inner.matrix)

    def kernel_lattice(self) -> IntegerMatrix:
        return preimage_lattice(self.matrix, self.target.relations)

    def kernel_data(self):
        """(presentation, basis into source generators) of the kernel."""
        return subgroup_presentation(self.source, self.kernel_lattice())

    def cokernel_presentation(self) -> Presentation:
        return self.target.quotient(self.matrix)

    def is_injective(self) -> bool:
        """The kernel lattice {v : matrix @ v in target relations} contains
        the source relations because the map is well defined; f is injective
        exactly when the two lattices are equal."""
        return nested_lattices_equal(self.kernel_lattice(), self.source.relations)

    def is_surjective(self) -> bool:
        return self.cokernel_presentation().group().is_zero

    def is_iso(self) -> bool:
        """A surjection between isomorphic finitely generated abelian groups
        is an isomorphism (they are Hopfian), so no kernel is computed.  The
        map must be well defined."""
        return self.source.group() == self.target.group() and self.is_surjective()


def kernel_image_cokernel(f: GroupMap):
    """Normal forms of ker f, im f, coker f."""
    ker_pres, _ = f.kernel_data()
    image = group_from_presentation(f.kernel_lattice())
    return ker_pres.group(), image, f.cokernel_presentation().group()


def is_exact_pair(f: GroupMap, g: GroupMap):
    """For composable, well-defined f, g: does im(f) = ker(g) (and g∘f = 0)?

    Returns (ok, reason) with a witness string on failure.  Once g∘f = 0,
    the image lattice (f's columns and f.target's relations) lies in g's
    kernel lattice, because g is well defined; so the pair is exact exactly
    when the two lattices are equal.
    """
    if f.target != g.source:
        raise IllFormedMap("maps are not composable")
    composite = g.matrix @ f.matrix
    if not g.target.contains_in_relations(composite):
        return False, "composite is nonzero"
    im = f.matrix.hstack(f.target.relations)
    if not nested_lattices_equal(g.kernel_lattice(), im):
        return False, "kernel not contained in image"
    return True, ""


def difference_map(f: GroupMap, g: GroupMap) -> GroupMap:
    """(f, -g): A + B -> C for f: A -> C and g: B -> C, well defined because
    f and g are."""
    if f.target != g.target:
        raise IllFormedMap("the legs of a difference map must share a target")
    return GroupMap._trusted(f.source.direct_sum(g.source), f.target, f.matrix.hstack(-g.matrix))


def pullback_group(f: GroupMap, g: GroupMap):
    """Fiber product {(a, b) : f(a) = g(b)} with its two projections: the
    kernel of the `difference_map` (f, -g): A + B -> C, whose basis's two row
    blocks are the projections to A and B."""
    pres, basis = difference_map(f, g).kernel_data()
    split = f.source.generators
    p1 = GroupMap._trusted(pres, f.source, basis.take_rows(0, split))
    p2 = GroupMap._trusted(pres, g.source, basis.take_rows(split, basis.rows))
    return pres.group(), p1, p2


# ---------------------------------------------------------------------------
# towers of groups


def mittag_leffler_diagnostic(maps, horizon: int) -> int | None:
    """Inspect image chains im(A_{i+k} -> A_i) for k <= horizon.

    Returns the least k by which every image chain has become constant, or
    None when some chain is still strictly dropping at the horizon.  The
    prefix must be long enough to see `horizon` steps.  Each chain
    decreases by construction (a longer composite's columns are integer
    combinations of a shorter one's), so its links are compared as nested
    lattices.
    """
    maps = tuple(maps)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(maps) < horizon:
        raise ValueError("tower prefix shorter than the horizon")
    worst = 0
    for base in range(len(maps) - horizon + 1):
        target = maps[base].target
        chains = [IntegerMatrix.identity(target.generators).hstack(target.relations)]
        composite = None
        for k in range(horizon):
            m = maps[base + k]
            composite = m.matrix if composite is None else composite @ m.matrix
            chains.append(composite.hstack(target.relations))
        # find least r with chain constant from r through horizon
        r = horizon
        while r > 0 and nested_lattices_equal(chains[r - 1], chains[horizon]):
            r -= 1
        if r == horizon:  # still dropping at the last step
            return None
        worst = max(worst, r)
    return worst
