"""Tests for the exact integer-linear-algebra layer.

The reference implementations here are deliberately written with different
algorithms than the library: the diagonal oracle uses first-nonzero pivoting
with no transform tracking, invariant factors are cross-checked against gcds
of k x k minors, and hom/ext/tensor are recomputed from two-term free
resolutions instead of the closed forms.
"""

import itertools
import random
import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    det,
    diagonal_matrix,
    exact_pair_by_containment,
    injective_by_kernel,
    iso_by_kernel,
    lattice_eq,
    tensor_group,
    transform_free_group,
)
from towercalc import exactalg
from towercalc.errors import IllFormedMap
from towercalc.exactalg import (
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    _column_hermite,
    _smith_form,
    block_diag,
    column_basis,
    ext_group,
    group_from_presentation,
    hom_group,
    integer_kernel,
    is_exact_pair,
    kernel_image_cokernel,
    kron,
    lattice_contains,
    mittag_leffler_diagnostic,
    nested_lattices_equal,
    preimage_lattice,
    prime_part,
    pullback_group,
    smith_normal_form,
    solve_matrix,
    subgroup_presentation,
)

# ---------------------------------------------------------------------------
# reference implementations (independent of the library's algorithms)


def snf_invariants_oracle(rows):
    """Diagonal of the Smith form by textbook elimination: first-nonzero
    pivot, Euclid in place, no transform tracking.  Returns the nonzero
    invariant factors as a divisibility chain."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    t = 0
    while t < min(nr, nc):
        piv = next(((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]), None)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for r in range(nr):
            a[r][t], a[r][j0] = a[r][j0], a[r][t]
        while True:
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    for c in range(t, nc):
                        a[i][c] -= q * a[t][c]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, nc):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in range(t, nr):
                        a[r][j] -= q * a[r][t]
                    if a[t][j]:
                        for r in range(nr):
                            a[r][t], a[r][j] = a[r][j], a[r][t]
            if all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                a[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nr, nc))]
    # enforce the divisibility chain pairwise (gcd/lcm swaps)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if x and y and y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
            elif x == 0 and y:
                diag[i], diag[i + 1] = y, 0
                changed = True
    return [d for d in diag if d]


def determinantal_invariants(rows):
    """Invariant factors as successive quotients of gcds of k x k minors."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0

    def minor_det(ri, ci):
        k = len(ri)
        if k == 0:
            return 1
        if k == 1:
            return rows[ri[0]][ci[0]]
        total = 0
        for idx in range(k):
            sub = minor_det(ri[1:], ci[:idx] + ci[idx + 1:])
            term = rows[ri[0]][ci[idx]] * sub
            total += term if idx % 2 == 0 else -term
        return total

    prev = 1
    invs = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                g = gcd(g, minor_det(ri, ci))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        invs.append(g // prev)
        prev = g
    return invs


def kron(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    ent = []
    for i in range(a.rows):
        for p in range(b.rows):
            for j in range(a.cols):
                for q in range(b.cols):
                    ent.append(a.entry(i, j) * b.entry(p, q))
    return IntegerMatrix(rows, cols, tuple(ent))


def _power_presentation(p: Presentation, n: int) -> Presentation:
    out = Presentation.free(0)
    for _ in range(n):
        out = out.direct_sum(p)
    return out


def _resolution_maps(a: FpAbelianGroup, b: FpAbelianGroup):
    """Induced maps B^n -> B^k (apply Hom(-,B)) and B^k -> B^n (apply -ox-B)
    from the canonical two-term resolution Z^k -> Z^n of a."""
    pa = Presentation.of_group(a)
    pb = Presentation.of_group(b)
    n, k = pa.generators, pa.relations.cols
    bn = _power_presentation(pb, n)
    bk = _power_presentation(pb, k)
    eye = IntegerMatrix.identity(pb.generators)
    hom_mat = kron(pa.relations.transpose(), eye)     # (k g) x (n g)
    ten_mat = kron(pa.relations, eye)                 # (n g) x (k g)
    return GroupMap(bn, bk, hom_mat), GroupMap(bk, bn, ten_mat)


def hom_via_resolution(a, b):
    f, _ = _resolution_maps(a, b)
    ker_pres, _ = f.kernel_data()
    return ker_pres.group()


def ext_via_resolution(a, b):
    f, _ = _resolution_maps(a, b)
    return f.cokernel_presentation().group()


def tensor_via_resolution(a, b):
    _, g = _resolution_maps(a, b)
    return g.cokernel_presentation().group()


# ---------------------------------------------------------------------------
# strategies

small_entries = st.integers(-6, 6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


groups = st.builds(
    FpAbelianGroup.from_orders,
    st.integers(0, 2),
    st.lists(st.integers(2, 12), max_size=3),
)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_frozen_example():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.d == (2, 4)
    assert (snf.U @ m @ snf.V) == diagonal_matrix(snf, 2, 2)
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1


def test_snf_zero_and_identity():
    z = IntegerMatrix.zero(3, 2)
    assert smith_normal_form(z).d == (0, 0)
    eye = IntegerMatrix.identity(3)
    assert smith_normal_form(eye).d == (1, 1, 1)


@given(matrices())
@settings(max_examples=150)
def test_snf_decomposition_properties(rows):
    m = IntegerMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    # exact factorization
    assert (snf.U @ m @ snf.V) == diagonal_matrix(snf, m.rows, m.cols)
    # unimodular transforms (determinant is computed fraction-free, not via SNF)
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    # nonnegative divisibility chain, nonzero entries first
    nonzero = [d for d in snf.d if d]
    assert all(d >= 0 for d in snf.d)
    assert list(snf.d[: len(nonzero)]) == nonzero
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # unimodularity seen through the Smith form itself
    assert smith_normal_form(snf.U).d == tuple([1] * m.rows)


@given(matrices())
@settings(max_examples=150)
def test_snf_matches_elimination_oracle(rows):
    m = IntegerMatrix.from_rows(rows)
    got = [d for d in smith_normal_form(m).d if d]
    assert got == snf_invariants_oracle(rows)


@given(matrices())
@settings(max_examples=100)
def test_snf_matches_minor_gcd_oracle(rows):
    m = IntegerMatrix.from_rows(rows)
    got = [d for d in smith_normal_form(m).d if d]
    assert got == determinantal_invariants(rows)


# Rectangular and rank-deficient matrices up to 8 x 8 with entries up to
# 2^13: rows drawn in [-2^12, 2^12], then some rows replaced by the sum of
# two others.
@st.composite
def wide_entry_matrices(draw):
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-(2 ** 12), 2 ** 12)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    for i in draw(st.lists(st.integers(0, nr - 1), max_size=3)):
        a, b = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        rows[i] = [x + y for x, y in zip(rows[a], rows[b])]
    return rows


@given(wide_entry_matrices())
@settings(max_examples=120, deadline=None)
def test_snf_against_sympy_and_bareiss(rows):
    sympy_snf = pytest.importorskip("sympy.matrices.normalforms").smith_normal_form
    from sympy import Matrix
    from sympy.polys.domains import ZZ

    m = IntegerMatrix.from_rows(rows)
    snf = _smith_form(m)
    assert snf.U @ m @ snf.V == diagonal_matrix(snf, m.rows, m.cols)
    assert abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1
    nonzero = [d for d in snf.d if d]
    if m.rows == m.cols:
        product = 1
        for d in nonzero:
            product *= d
        size = abs(det(m))
        assert product == size if size else len(nonzero) < m.rows
    diagonal = sympy_snf(Matrix(rows), domain=ZZ)
    theirs = sorted(abs(int(diagonal[i, i])) for i in range(min(m.rows, m.cols)))
    assert sorted(nonzero) == [d for d in theirs if d]
    assert transform_free_group(m.transpose()) == FpAbelianGroup.from_orders(
        m.cols - len(nonzero), nonzero)


def _hadamard_bits(m: IntegerMatrix) -> int:
    """Bit-length of the Hadamard bound: the product of the row norms."""
    square = 1
    for i in range(m.rows):
        square *= max(1, sum(x * x for x in m.row(i)))
    return (isqrt(square) + 1).bit_length()


def _dense(rng, n, bound):
    return IntegerMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def _scrambled(rng, n, bits):
    """U @ D @ V with a divisibility chain D and unimodular U, V built from
    at least 3n signed shears, applied until some entry has `bits` bits."""
    d, cur = [], 1
    for _ in range(n):
        cur *= rng.choice((1, 1, 1, 2, 3))
        d.append(cur)
    a = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    shears = 0
    while shears < 3 * n or max(abs(x) for r in a for x in r).bit_length() < bits:
        shears += 1
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]          # row shear
        for r in a:                                              # column shear
            r[j] += s * r[i]
    return IntegerMatrix.from_rows(a), tuple(d)


@pytest.mark.parametrize("kind, n, bits", [("dense", 12, 4), ("scrambled", 12, 13),
                                           ("dense", 32, 4), ("scrambled", 32, 24)])
def test_snf_beyond_the_old_wall_is_fast_and_bounded(kind, n, bits):
    rng = random.Random(f"{kind}:{n}")
    if kind == "dense":
        m, d = _dense(rng, n, 9), None
    else:
        m, d = _scrambled(rng, n, bits)
    assert max(abs(x) for x in m.entries).bit_length() == bits
    started = time.perf_counter()
    snf = _smith_form(m)
    assert time.perf_counter() - started < 1.0
    assert snf.U @ m @ snf.V == diagonal_matrix(snf, n, n)
    if d is not None:
        assert snf.d == d
    peak = max(abs(x).bit_length() for x in snf.U.entries + snf.V.entries)
    assert peak <= n * _hadamard_bits(m)
    # the invariants-only route agrees: three of the walls reach its general case
    assert transform_free_group(m) == FpAbelianGroup.from_orders(n - snf.rank, snf.d)


def test_det_bareiss_known_values():
    assert det(IntegerMatrix.from_rows([[2, 4], [6, 8]])) == -8
    assert det(IntegerMatrix.identity(4)) == 1
    assert det(IntegerMatrix.zero(2, 2)) == 0
    assert det(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3


@given(matrices(3), matrices(3), st.integers(0, 3))
@settings(max_examples=60)
def test_kron_places_a_scaled_copy_of_b_in_each_block(a_rows, b_rows, g):
    a, b = IntegerMatrix.from_rows(a_rows), IntegerMatrix.from_rows(b_rows)
    got = kron(a, b)
    assert (got.rows, got.cols) == (a.rows * b.rows, a.cols * b.cols)
    for i, j, p, q in itertools.product(range(a.rows), range(a.cols),
                                        range(b.rows), range(b.cols)):
        assert got.entry(i * b.rows + p, j * b.cols + q) == a.entry(i, j) * b.entry(p, q)
    assert kron(IntegerMatrix.identity(g), b) == block_diag(*[b] * g)
    assert kron(IntegerMatrix.zero(g, 0), b) == IntegerMatrix.zero(g * b.rows, 0)


# ---------------------------------------------------------------------------
# kernels, solving, lattices


@given(matrices())
@settings(max_examples=100)
def test_integer_kernel_spans_the_kernel(rows):
    m = IntegerMatrix.from_rows(rows)
    k = integer_kernel(m)
    assert (m @ k).is_zero
    assert k.cols == m.cols - smith_normal_form(m).rank
    # basis columns are independent
    assert integer_kernel(k).cols == 0


@given(matrices(), st.lists(small_entries, min_size=4, max_size=4))
@settings(max_examples=100)
def test_solve_recovers_consistent_systems(rows, xs):
    m = IntegerMatrix.from_rows(rows)
    x = tuple(xs[: m.cols])
    b = m @ IntegerMatrix.from_cols([x], rows=m.cols)
    got = solve_matrix(m, b)
    assert got is not None
    assert m @ got == b


def test_solve_detects_inconsistency():
    m = IntegerMatrix.from_rows([[2]])
    assert solve_matrix(m, IntegerMatrix.from_rows([[1]])) is None
    assert solve_matrix(m, IntegerMatrix.from_rows([[6]])) == IntegerMatrix.from_rows([[3]])
    # rank-deficient: b outside the column space
    m2 = IntegerMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_matrix(m2, IntegerMatrix.from_rows([[1], [2]])) is None


@given(matrices())
@settings(max_examples=100)
def test_column_basis_spans_same_lattice(rows):
    m = IntegerMatrix.from_rows(rows)
    b = column_basis(m)
    assert lattice_eq(b, m)
    assert integer_kernel(b).cols == 0  # independence
    assert b.cols == smith_normal_form(m).rank


@given(matrices(), st.lists(small_entries, min_size=4, max_size=4))
@settings(max_examples=100)
def test_preimage_lattice_defining_property(rows, v):
    m = IntegerMatrix.from_rows(rows)
    rel = IntegerMatrix.from_cols([[2 * (i == j) for i in range(m.rows)] for j in range(m.rows)],
                                  rows=m.rows)  # lattice 2Z^rows
    lat = preimage_lattice(m, rel)
    vec = IntegerMatrix.from_cols([v[: m.cols]], rows=m.cols)
    inside = lattice_contains(lat, vec)
    image_ok = all(x % 2 == 0 for x in (m @ vec).entries)
    assert inside == image_ok


@st.composite
def lattice_problems(draw):
    """A presentation (often free, sometimes with all-zero relations) and
    columns to test against its relation lattice (often all zero)."""
    gens = draw(st.integers(0, 4))
    count = draw(st.sampled_from([0, 0, 1, 2, 3]))
    entries = st.just(0) if draw(st.booleans()) else small_entries
    rels = draw(st.lists(st.lists(entries, min_size=gens, max_size=gens),
                         min_size=count, max_size=count))
    relations = IntegerMatrix.from_cols(rels, rows=gens)
    entries = st.just(0) if draw(st.booleans()) else small_entries
    cols = draw(st.lists(st.lists(entries, min_size=gens, max_size=gens), max_size=3))
    return Presentation(gens, relations), IntegerMatrix.from_cols(cols, rows=gens)


@given(lattice_problems())
@settings(max_examples=200)
def test_lattice_shortcuts_agree_with_the_solver(problem):
    pres, vectors = problem
    lattice = pres.relations
    solvable = solve_matrix(lattice, vectors) is not None
    assert lattice_contains(lattice, vectors) == solvable
    assert pres.contains_in_relations(vectors) == solvable


def test_lattice_membership_checks_rows_before_shortcuts():
    with pytest.raises(ValueError):
        lattice_contains(IntegerMatrix.zero(2, 0), IntegerMatrix.zero(3, 1))
    with pytest.raises(ValueError):
        Presentation.free(2).contains_in_relations(IntegerMatrix.zero(3, 1))


def test_solve_matrix_columnwise():
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    b = IntegerMatrix.from_rows([[4, 0], [0, 9]])
    x = solve_matrix(m, b)
    assert x is not None and (m @ x) == b
    assert solve_matrix(m, IntegerMatrix.from_rows([[1, 0], [0, 3]])) is None


# ---------------------------------------------------------------------------
# groups in normal form


def test_from_orders_normalizes():
    assert FpAbelianGroup.from_orders(0, [2, 4, 3]) == FpAbelianGroup(0, (2, 12))
    assert FpAbelianGroup.from_orders(1, [1, 1]) == FpAbelianGroup(1, ())
    assert FpAbelianGroup.from_orders(0, [6, 4]) == FpAbelianGroup(0, (2, 12))
    assert str(FpAbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert str(FpAbelianGroup.zero()) == "0"


# orders sharing large primes, so a factoring route would have to find them
large_prime_orders = st.builds(
    lambda a, b, c: 1000003 ** a * 1000033 ** b * c,
    st.integers(0, 2), st.integers(0, 2), st.integers(1, 12))


@given(st.lists(st.one_of(st.integers(1, 60), large_prime_orders), max_size=5))
@settings(max_examples=100, deadline=None)
def test_from_orders_matches_the_smith_form_of_the_diagonal(orders):
    diag = IntegerMatrix.from_rows(
        [[t if i == j else 0 for j in range(len(orders))] for i, t in enumerate(orders)])
    expected = tuple(d for d in smith_normal_form(diag).d if d > 1)
    assert FpAbelianGroup.from_orders(0, orders).torsion == expected


def test_prime_part():
    assert prime_part(360, {2}) == 8
    assert prime_part(360, {2, 3}) == 72
    assert prime_part(360, {2, 3, 5}) == 360
    assert prime_part(360, {7}) == 1
    assert prime_part(1, {2, 3}) == 1
    assert prime_part(-12, {3}) == 3
    big = 1000003 ** 3 * 1000033 * 2 ** 5
    assert prime_part(big, {1000003, 2}) == 1000003 ** 3 * 2 ** 5
    with pytest.raises(ValueError):
        prime_part(0, {2})


def test_invariant_chain_is_enforced():
    with pytest.raises(ValueError):
        FpAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FpAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FpAbelianGroup(-1, ())


def test_group_from_presentation_frozen_examples():
    # Z^2 / <(2,0)> = Z + Z/2
    rel = IntegerMatrix.from_cols([[2, 0]], rows=2)
    assert group_from_presentation(rel) == FpAbelianGroup(1, (2,))
    # Z^2 / <(2,4),(6,8)> = Z/2 + Z/4
    rel2 = IntegerMatrix.from_cols([[2, 4], [6, 8]], rows=2)
    assert group_from_presentation(rel2) == FpAbelianGroup(0, (2, 4))


@given(matrices())
@settings(max_examples=100)
def test_group_from_presentation_matches_minor_oracle(rows):
    cols = len(rows[0])
    got = group_from_presentation(IntegerMatrix.from_cols(rows, rows=cols))
    invs = determinantal_invariants(rows)
    expected = FpAbelianGroup.from_orders(cols - len(invs), invs)
    assert got == expected


# ---------------------------------------------------------------------------
# one normal-form record per matrix: each form is computed once and shared

# U @ SHARED @ V = diag(2, 6, 12), so the group reaches the general branch
SHARED = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])


def _count_hermite(monkeypatch):
    calls = []
    hermite = exactalg._hermite

    def counted(rows):
        calls.append(len(rows))
        return hermite(rows)

    monkeypatch.setattr(exactalg, "_hermite", counted)
    return calls


@pytest.mark.single_route
def test_a_group_after_its_smith_form_runs_no_hermite_pass(monkeypatch):
    assert smith_normal_form(SHARED).d == (2, 6, 12)
    calls = _count_hermite(monkeypatch)
    assert group_from_presentation(SHARED) == FpAbelianGroup(0, (2, 6, 12))
    assert calls == []


@pytest.mark.single_route
def test_a_column_basis_after_the_group_runs_no_hermite_pass(monkeypatch):
    assert group_from_presentation(SHARED) == FpAbelianGroup(0, (2, 6, 12))
    calls = _count_hermite(monkeypatch)
    basis = column_basis(SHARED)
    assert calls == []
    assert basis == _column_hermite(SHARED)
    assert lattice_eq(basis, SHARED)


@given(wide_entry_matrices(), st.permutations(("snf", "group", "basis")))
@settings(max_examples=40, deadline=None)
def test_every_order_of_asking_matches_the_uncached_cores(rows, order):
    m = IntegerMatrix.from_rows(rows)
    exactalg._normal_forms.cache_clear()
    readers = {"snf": smith_normal_form, "group": group_from_presentation,
               "basis": column_basis}
    got = {name: readers[name](m) for name in order}
    assert got["snf"] == _smith_form(m)
    assert got["group"] == transform_free_group(m)
    assert got["basis"] == _column_hermite(m)


# ---------------------------------------------------------------------------
# hom / ext / tensor closed forms vs resolution oracle


def test_hom_ext_tensor_known_pairs():
    z = FpAbelianGroup.free(1)
    z2 = FpAbelianGroup.cyclic(2)
    z4 = FpAbelianGroup.cyclic(4)
    z6 = FpAbelianGroup.cyclic(6)
    assert hom_group(z, z) == z
    assert hom_group(z2, z) == FpAbelianGroup.zero()
    assert hom_group(z, z4) == z4
    assert hom_group(z4, z6) == z2
    assert ext_group(z, z6) == FpAbelianGroup.zero()
    assert ext_group(z2, z) == z2
    assert ext_group(z4, z6) == z2
    assert tensor_group(z4, z6) == z2
    assert tensor_group(z2, z) == z2
    assert tensor_group(z, z) == z


@given(groups, groups)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_resolution_oracle(a, b):
    assert hom_group(a, b) == hom_via_resolution(a, b)
    assert ext_group(a, b) == ext_via_resolution(a, b)
    assert tensor_group(a, b) == tensor_via_resolution(a, b)


@given(groups, groups)
@settings(max_examples=60)
def test_tensor_is_symmetric(a, b):
    assert tensor_group(a, b) == tensor_group(b, a)


# ---------------------------------------------------------------------------
# maps between presented groups


def _cyclic_pres(n):
    return Presentation(1, IntegerMatrix.from_rows([[n]]))


def test_ill_formed_map_is_rejected():
    z2, z3, z4 = _cyclic_pres(2), _cyclic_pres(3), _cyclic_pres(4)
    with pytest.raises(IllFormedMap):
        GroupMap(z2, z3, IntegerMatrix.from_rows([[1]]))
    with pytest.raises(IllFormedMap):
        GroupMap(z2, z4, IntegerMatrix.from_rows([[1]]))
    with pytest.raises(IllFormedMap):
        GroupMap(z2, Presentation.free(1), IntegerMatrix.from_rows([[1]]))
    # doubling Z/2 into Z/4 is fine
    GroupMap(z2, z4, IntegerMatrix.from_rows([[2]]))


def test_kernel_image_cokernel_of_doubling():
    free = Presentation.free(1)
    f = GroupMap(free, free, IntegerMatrix.from_rows([[2]]))
    ker, image, coker = kernel_image_cokernel(f)
    assert ker == FpAbelianGroup.zero()
    assert image == FpAbelianGroup.free(1)
    assert coker == FpAbelianGroup.cyclic(2)
    assert not f.is_surjective() and f.is_injective()


def test_kernel_image_cokernel_of_projection():
    free = Presentation.free(1)
    z3 = _cyclic_pres(3)
    q = GroupMap(free, z3, IntegerMatrix.from_rows([[1]]))
    ker, image, coker = kernel_image_cokernel(q)
    assert ker == FpAbelianGroup.free(1)  # 3Z
    assert image == FpAbelianGroup.cyclic(3)
    assert coker == FpAbelianGroup.zero()


def test_subgroup_presentation_of_even_classes():
    # inside Z/8: the subgroup generated by 2 is Z/4
    z8 = _cyclic_pres(8)
    lat = IntegerMatrix.from_rows([[2]])
    pres, basis = subgroup_presentation(z8, lat)
    assert pres.group() == FpAbelianGroup.cyclic(4)
    assert basis.cols == 1 and abs(basis.entry(0, 0)) == 2


def test_exact_pair_positive_and_negative():
    free = Presentation.free(1)
    z2 = _cyclic_pres(2)
    double = GroupMap(free, free, IntegerMatrix.from_rows([[2]]))
    quadruple = GroupMap(free, free, IntegerMatrix.from_rows([[4]]))
    proj = GroupMap(free, z2, IntegerMatrix.from_rows([[1]]))
    ok, _ = is_exact_pair(double, proj)
    assert ok
    ok, reason = is_exact_pair(quadruple, proj)
    assert not ok and reason == "kernel not contained in image"
    # nonzero composite
    ident = GroupMap(free, free, IntegerMatrix.identity(1))
    ok, reason = is_exact_pair(ident, proj)
    assert not ok and reason == "composite is nonzero"


@given(groups, groups)
@settings(max_examples=40, deadline=None)
def test_split_sequence_is_exact(a, b):
    pa, pb = Presentation.of_group(a), Presentation.of_group(b)
    amb = pa.direct_sum(pb)
    inc = GroupMap(pa, amb, IntegerMatrix.identity(pa.generators).vstack(
        IntegerMatrix.zero(pb.generators, pa.generators)))
    proj = GroupMap(amb, pb, IntegerMatrix.zero(pb.generators, pa.generators).hstack(
        IntegerMatrix.identity(pb.generators)))
    ok, reason = is_exact_pair(inc, proj)
    assert ok, reason
    assert inc.is_injective() and proj.is_surjective()


def _draw_matrix(draw, rows, cols):
    entries = draw(st.lists(st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols))
    return IntegerMatrix(rows, cols, tuple(entries))


def _draw_inside(draw, lattice):
    """Up to two columns of the column lattice of `lattice`, or every
    generator of it."""
    if draw(st.booleans()):
        return lattice
    return lattice @ _draw_matrix(draw, lattice.cols, draw(st.integers(0, 2)))


def _draw_map(draw, source_generators, target, columns=None):
    """A well-defined map from a group on `source_generators` generators
    into `target`: its matrix, or one with columns in `columns`, and source
    relations drawn from the preimage of the target relations."""
    if columns is None:
        matrix = _draw_matrix(draw, target.generators, source_generators)
    else:
        matrix = columns @ _draw_matrix(draw, columns.cols, source_generators)
    relations = _draw_inside(draw, preimage_lattice(matrix, target.relations))
    return GroupMap(Presentation(source_generators, relations), target, matrix)


@st.composite
def composable_maps(draw):
    """Well-defined f: A -> B and g: B -> C, on at most three generators
    each; f lands in ker g about half the time."""
    sizes = st.integers(0, 3)
    c = draw(sizes)
    target = Presentation(c, _draw_matrix(draw, c, draw(st.integers(0, 2))))
    g = _draw_map(draw, draw(sizes), target)
    into_kernel = g.kernel_lattice() if draw(st.booleans()) else None
    f = _draw_map(draw, draw(sizes), g.source, into_kernel)
    return f, g


@pytest.mark.single_route
@given(composable_maps(), st.data())
@settings(max_examples=100, deadline=None)
def test_invariant_routes_agree_with_lattice_solves(maps, data):
    f, g = maps
    for h in maps:
        assert h.is_injective() == injective_by_kernel(h)
        assert h.is_iso() == iso_by_kernel(h)
    assert is_exact_pair(f, g) == exact_pair_by_containment(f, g)
    # a link of an image chain: im(f∘e) inside im(f) modulo B's relations
    n = f.source.generators
    e = _draw_matrix(data.draw, n, n)
    outer = f.matrix.hstack(f.target.relations)
    inner = (f.matrix @ e).hstack(f.target.relations)
    assert nested_lattices_equal(outer, inner) == lattice_eq(outer, inner)


# ---------------------------------------------------------------------------
# pullbacks


@given(groups)
@settings(max_examples=40, deadline=None)
def test_pullback_of_identities_is_diagonal(a):
    p = Presentation.of_group(a)
    ident = GroupMap.identity(p)
    g, p1, p2 = pullback_group(ident, ident)
    assert g == a
    # both projections are isomorphisms on the diagonal
    assert p1.is_iso() and p2.is_iso()


def test_pullback_over_zero_is_product():
    z2, z3 = _cyclic_pres(2), _cyclic_pres(3)
    zero = Presentation.free(0)
    f = GroupMap(z2, zero, IntegerMatrix.zero(0, 1))
    g = GroupMap(z3, zero, IntegerMatrix.zero(0, 1))
    got, _, _ = pullback_group(f, g)
    # brute-force oracle over all six pairs of the product
    pairs = [(x, y) for x in range(2) for y in range(3)]
    assert len(pairs) == 6

    def order(el):
        k, cur = 1, el
        while cur != (0, 0):
            cur = ((cur[0] + el[0]) % 2, (cur[1] + el[1]) % 3)
            k += 1
        return k

    assert max(order(e) for e in pairs) == 6  # cyclic of order 6
    assert got == FpAbelianGroup.cyclic(6)


def test_pullback_along_doubling():
    # x = 2y inside Z x Z: infinite cyclic, projections 2 and 1
    free = Presentation.free(1)
    ident = GroupMap.identity(free)
    double = GroupMap(free, free, IntegerMatrix.from_rows([[2]]))
    g, p1, p2 = pullback_group(ident, double)
    # oracle: kernel of [1 -2]
    k = integer_kernel(IntegerMatrix.from_rows([[1, -2]]))
    assert lattice_eq(k, IntegerMatrix.from_cols([[2, 1]], rows=2))
    assert g == FpAbelianGroup.free(1)
    assert p2.is_iso()
    assert abs(p1.matrix.entry(0, 0)) == 2


# ---------------------------------------------------------------------------
# towers of groups


def _constant_tower(p, n):
    return [GroupMap.identity(p) for _ in range(n)]


def test_mittag_leffler_constant_tower():
    free = Presentation.free(1)
    assert mittag_leffler_diagnostic(_constant_tower(free, 4), 3) == 0


def test_mittag_leffler_multiplication_tower_never_settles():
    free = Presentation.free(1)
    tripling = GroupMap(free, free, IntegerMatrix.from_rows([[3]]))
    assert mittag_leffler_diagnostic([tripling] * 5, 5) is None
    # oracle: the k-step image is the index-3^k subgroup, strictly shrinking
    indices = [3 ** k for k in range(6)]
    assert all(b > a for a, b in zip(indices, indices[1:]))


def test_mittag_leffler_images_settle_after_one_step():
    # Z/8 <- Z/8+Z/2 <- Z/8+Z/2 <- ... with the Z/2 summand dying each step
    top = Presentation(2, IntegerMatrix.from_cols([[8, 0], [0, 2]], rows=2))
    bottom = _cyclic_pres(8)
    head = GroupMap(top, bottom, IntegerMatrix.from_rows([[1, 0]]))
    step = GroupMap(top, top, IntegerMatrix.from_rows([[1, 0], [0, 0]]))
    assert mittag_leffler_diagnostic([head, step, step, step], 3) == 1
    # oracle: explicit image lattices at the second level
    one_step = step.matrix.hstack(top.relations)
    two_step = (step.matrix @ step.matrix).hstack(top.relations)
    expected = IntegerMatrix.from_cols([[1, 0], [0, 2]], rows=2)
    assert lattice_eq(one_step, expected)
    assert lattice_eq(two_step, expected)


def test_diagnostic_needs_a_long_enough_prefix():
    free = Presentation.free(1)
    with pytest.raises(ValueError):
        mittag_leffler_diagnostic(_constant_tower(free, 2), 3)
