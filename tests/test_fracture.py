"""Tests for localized homology, the algebraic fracture square, and the
localized cospan model checks.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import localize_homology, tensor_group
from towercalc import fracture
from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    direct_sum,
    direct_sum_map,
    disk_complex,
    homology,
    moore_complex,
    sphere_complex,
    zero_complex,
)
from towercalc.errors import PartitionTooSmall
from towercalc.exactalg import (
    PRIME_CERTIFY_BOUND,
    FpAbelianGroup,
    GroupMap,
    IntegerMatrix,
    Presentation,
    block_diag,
    is_exact_pair,
    pullback_group,
    subgroup_presentation,
)
from towercalc.fracture import (
    PrimePartition,
    algebraic_fracture_check,
    arithmetic_square_check,
    cospan_model_check,
    fracture_cospan,
    localize_group,
)
from towercalc.sections import CospanSection

# ---------------------------------------------------------------------------
# builders


def cyclic_layer(t, n):
    return ChainComplex(n, (Presentation(1, IntegerMatrix.from_rows([[t]])),), ())


def _piece(kind, n, t):
    if kind == 0:
        return sphere_complex(n)
    if kind == 1:
        return disk_complex(n)
    if kind == 2:
        return moore_complex(t, n)
    return cyclic_layer(t, n)


def build_sum(pieces):
    out = zero_complex()
    for kind, n, t in pieces:
        out = direct_sum(out, _piece(kind, n, t))
    return out


# torsion orders composed of the primes 2, 3, 5 only
order_235 = st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15])
piece_st = st.tuples(st.integers(0, 3), st.integers(-1, 3), order_235)
pieces_st = st.lists(piece_st, min_size=1, max_size=2)

splits_235 = [
    (frozenset(j), frozenset({2, 3, 5}) - frozenset(j))
    for j in ([], [2], [3], [5], [2, 3], [2, 5], [3, 5], [2, 3, 5])
]


# ---------------------------------------------------------------------------
# partitions and localized groups


def test_partition_rejects_overlap_and_composites():
    with pytest.raises(ValueError):
        PrimePartition({2, 3}, {3})
    with pytest.raises(ValueError):
        PrimePartition({4}, {3})


def test_partition_coverage():
    p = PrimePartition({2}, {3})
    p.require_covers({2, 3})
    with pytest.raises(PartitionTooSmall) as exc:
        p.require_covers({2, 5})
    assert exc.value.missing == frozenset({5})


def test_localize_cyclic_six_at_two():
    got = localize_group(FpAbelianGroup.cyclic(6), frozenset({2}))
    assert got == FpAbelianGroup.cyclic(2)
    # oracle: tensoring with a large 2-power cyclic group picks out the 2-part
    assert got == tensor_group(FpAbelianGroup.cyclic(6), FpAbelianGroup.cyclic(8))


def test_localize_free_group_keeps_rank_only():
    free = FpAbelianGroup(3, ())
    for primes in (frozenset(), frozenset({2}), frozenset({2, 3})):
        assert localize_group(free, primes) == free


def test_rationalization_erases_torsion():
    # Q is the empty prime set
    assert localize_group(FpAbelianGroup(2, (2, 6)), frozenset()) == FpAbelianGroup(2, ())


def test_localize_homology_of_a_moore_complex():
    x = moore_complex(6, 0)
    local = localize_homology(x, frozenset({2}))
    assert local[0] == FpAbelianGroup.cyclic(2)
    assert local[1] == FpAbelianGroup.zero()


@given(st.integers(0, 2), st.lists(order_235, max_size=3))
@settings(max_examples=60, deadline=None)
def test_localization_splits_into_parts(rank, orders):
    a = FpAbelianGroup.from_orders(rank, orders)
    j, k = frozenset({2}), frozenset({3, 5})
    aj, ak = localize_group(a, j), localize_group(a, k)
    assert aj.rank == ak.rank == a.rank
    merged = FpAbelianGroup.from_orders(0, aj.torsion + ak.torsion)
    assert merged == FpAbelianGroup(0, a.torsion)


# ---------------------------------------------------------------------------
# the algebraic fracture square


def test_fracture_of_cyclic_six():
    cert = algebraic_fracture_check(FpAbelianGroup.cyclic(6), PrimePartition({2}, {3}))
    assert cert.passed, cert.failures()
    # brute-force oracle: the pullback of Z/2 -> 0 <- Z/3 really is Z/6
    z2 = Presentation(1, IntegerMatrix.from_rows([[2]]))
    z3 = Presentation(1, IntegerMatrix.from_rows([[3]]))
    point = Presentation.free(0)
    f = GroupMap(z2, point, IntegerMatrix.zero(0, 1))
    g = GroupMap(z3, point, IntegerMatrix.zero(0, 1))
    got, _, _ = pullback_group(f, g)
    assert got == FpAbelianGroup.cyclic(6)


def test_fracture_of_the_integers_is_rank_bookkeeping():
    cert = algebraic_fracture_check(FpAbelianGroup(1, ()), PrimePartition({2}, {3}))
    assert cert.passed


def test_fracture_of_the_zero_group():
    assert algebraic_fracture_check(FpAbelianGroup(0, ()), PrimePartition(set(), set())).passed


def test_fracture_needs_a_covering_partition():
    with pytest.raises(PartitionTooSmall) as exc:
        algebraic_fracture_check(FpAbelianGroup.cyclic(10), PrimePartition({2}, {3}))
    assert exc.value.missing == frozenset({5})


@given(st.integers(0, 2), st.lists(order_235, max_size=3),
       st.sampled_from(splits_235))
@settings(max_examples=60, deadline=None)
def test_reassembly_from_any_covering_partition(rank, orders, split):
    a = FpAbelianGroup.from_orders(rank, orders)
    cert = algebraic_fracture_check(a, PrimePartition(*split))
    assert cert.passed, cert.failures()


# ---------------------------------------------------------------------------
# a sabotaged square on A = Z + Z/12 with J = {2}, K = {3}: each broken map
# turns exactly its own leaves red (rank_bookkeeping passes by construction)


Z_Z12 = FpAbelianGroup(1, (12,))
SPLIT_2_3 = PrimePartition({2}, {3})


def red_leaves():
    return {c.check for c in algebraic_fracture_check(Z_Z12, SPLIT_2_3).failures()}


def test_the_square_on_z_plus_z12_is_green():
    assert red_leaves() == set()


def test_a_zero_j_pick_breaks_injectivity_and_middle_exactness(monkeypatch):
    real = fracture._localization

    def zero_j_pick(a, primes):
        lam = real(a, primes)
        if primes != SPLIT_2_3.j:
            return lam
        pick = IntegerMatrix.zero(lam.target.generators - a.rank, len(a.torsion))
        return GroupMap(lam.source, lam.target,
                        block_diag(IntegerMatrix.identity(a.rank), pick))

    monkeypatch.setattr(fracture, "_localization", zero_j_pick)
    assert red_leaves() == {"left_injective", "middle_exact"}


def test_zero_rationalizations_break_the_right_end_and_reassembly(monkeypatch):
    monkeypatch.setattr(fracture, "_rationalization",
                        lambda local, rank: GroupMap.zero(local, Presentation.free(rank)))
    assert red_leaves() == {"middle_exact", "right_surjective", "reassembly"}


def test_j_parts_of_one_break_the_partition_injectivity_and_reassembly(monkeypatch):
    real = fracture.prime_part
    # require_covers asks about J and K together, so it still sees A covered
    monkeypatch.setattr(fracture, "prime_part",
                        lambda t, primes: 1 if primes == SPLIT_2_3.j else real(t, primes))
    assert red_leaves() == {"torsion_partition", "left_injective", "reassembly"}


# ---------------------------------------------------------------------------
# localization exactness (bookkeeping on honest short exact sequences)


@given(st.lists(order_235, min_size=1, max_size=3),
       st.data())
@settings(max_examples=50, deadline=None)
def test_localizing_a_short_exact_sequence_of_finite_groups(orders, data):
    gens = len(orders)
    ambient = Presentation(gens, IntegerMatrix.from_cols(
        [[orders[i] if i == j else 0 for j in range(gens)] for i in range(gens)], rows=gens))
    cols = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=gens, max_size=gens),
        min_size=0, max_size=3))
    lattice = IntegerMatrix.from_cols(cols, rows=gens).hstack(ambient.relations)
    sub_pres, basis = subgroup_presentation(ambient, lattice)
    quot = Presentation(gens, ambient.relations.hstack(lattice))
    incl = GroupMap(sub_pres, ambient, basis)
    proj = GroupMap(ambient, quot, IntegerMatrix.identity(gens))
    ok, reason = is_exact_pair(incl, proj)
    assert ok, reason
    s, a, q = sub_pres.group(), ambient.group(), quot.group()
    for j, _ in splits_235:
        sj, aj, qj = (localize_group(g, j) for g in (s, a, q))
        assert sj.rank == aj.rank == qj.rank == 0
        assert sj.torsion_order * qj.torsion_order == aj.torsion_order


# ---------------------------------------------------------------------------
# the arithmetic square on complexes


def test_arithmetic_square_on_a_moore_complex():
    cert = arithmetic_square_check(moore_complex(6, 0), PrimePartition({2}, {3}))
    assert cert.passed, cert.failures()
    degree_zero = next(c for c in cert.children
                       if c.check == "degree_fracture" and c.witness["degree"] == 0)
    reassembly = next(c for c in degree_zero.children[0].children if c.check == "reassembly")
    assert reassembly.witness["value"] == str(FpAbelianGroup.cyclic(6))


def test_arithmetic_square_on_a_free_complex():
    x = direct_sum(sphere_complex(0, 2), sphere_complex(2))
    assert arithmetic_square_check(x, PrimePartition(set(), set())).passed


def test_arithmetic_square_scope_enforcement():
    with pytest.raises(PartitionTooSmall):
        arithmetic_square_check(moore_complex(5, 1), PrimePartition({2}, {3}))


@given(pieces_st, st.sampled_from(splits_235))
@settings(max_examples=40, deadline=None)
def test_square_verdict_is_partition_invariant(pieces, split):
    x = build_sum(pieces)
    cert = arithmetic_square_check(x, PrimePartition(*split))
    assert cert.passed, cert.failures()


# ---------------------------------------------------------------------------
# cospan models


def test_fracture_cospan_of_a_moore_complex_passes():
    x = direct_sum(moore_complex(6, 1), sphere_complex(0))
    s = fracture_cospan(x, PrimePartition({2}, {3}))
    assert tuple(map(str, s.tags)) == ("local:2", "rational", "local:3")
    cert = cospan_model_check(s)
    assert cert.passed, cert.failures()


def test_zero_cospan_passes():
    s = fracture_cospan(zero_complex(), PrimePartition({2}, {3}))
    assert cospan_model_check(s).passed


def test_vertex_with_foreign_torsion_fails_its_tag():
    x = direct_sum(moore_complex(2, 0), sphere_complex(0))
    good = fracture_cospan(x, PrimePartition({2}, {3}))
    # sabotage: the 2-local vertex loses its 2-torsion to a Z/3 block
    leg = direct_sum_map(ChainMap.identity(sphere_complex(0)),
                         ChainMap.zero_map(moore_complex(3, 0), zero_complex()))
    bad = CospanSection(leg.source, good.x0, good.x2, leg, good.right, tags=good.tags)
    cert = cospan_model_check(bad)
    assert not cert.passed
    (failure,) = [c for c in cert.failures() if c.check == "local_model"]
    assert failure.witness["vertex"] == "x1"
    assert failure.witness["degree"] == 0


def test_leg_that_collapses_the_local_model_fails_rationally():
    x = direct_sum(moore_complex(2, 0), sphere_complex(0))
    good = fracture_cospan(x, PrimePartition({2}, {3}))
    bad = CospanSection(good.x1, good.x0, good.x2,
                        ChainMap.zero_map(good.x1, good.x0), good.right, tags=good.tags)
    cert = cospan_model_check(bad)
    assert not cert.passed
    (failure,) = [c for c in cert.failures() if c.check == "rational_equivalence"]
    assert failure.witness["leg"] == "left"
    assert failure.witness["degree"] == 0


def test_untagged_cospan_is_not_a_fracture_model():
    x = sphere_complex(0)
    s = CospanSection(x, x, x, ChainMap.identity(x), ChainMap.identity(x))
    cert = cospan_model_check(s)
    assert not cert.passed
    assert cert.failures()[0].check == "ring_tags"


@given(pieces_st, st.sampled_from(splits_235))
@settings(max_examples=25, deadline=None)
def test_built_cospans_always_check_out(pieces, split):
    x = build_sum(pieces)
    s = fracture_cospan(x, PrimePartition(*split))
    assert cospan_model_check(s).passed


# ---------------------------------------------------------------------------
# large primes: localization divides, primality is Miller-Rabin


def within_a_second(fn):
    started = time.perf_counter()
    result = fn()
    assert time.perf_counter() - started < 1.0
    return result


P9, Q9 = 1000000007, 998244353


def test_partition_names_a_composite_uncovered_factor():
    with pytest.raises(PartitionTooSmall) as exc:
        PrimePartition({2}, {3}).require_covers([35])
    assert exc.value.missing == frozenset({35})
    assert "35" in str(exc.value)


def test_partition_certifies_large_primes_quickly():
    p19 = 1000000000000000003
    assert within_a_second(lambda: PrimePartition({p19}, ())).j == frozenset({p19})
    with pytest.raises(ValueError, match="not prime"):
        PrimePartition({3215031751}, ())  # strong pseudoprime to base 2
    with pytest.raises(ValueError, match=str(PRIME_CERTIFY_BOUND)):
        PrimePartition({PRIME_CERTIFY_BOUND + 2}, ())


def test_homology_of_a_large_semiprime_moore_complex_is_fast():
    profile = within_a_second(lambda: homology(moore_complex(P9 * Q9)))
    assert profile.at(0) == FpAbelianGroup.cyclic(P9 * Q9)


def test_arithmetic_square_over_large_primes_is_fast():
    x = moore_complex(P9 * Q9)
    cert = within_a_second(lambda: arithmetic_square_check(x, PrimePartition({P9}, {Q9})))
    assert cert.passed, cert.failures()


def test_localizing_a_forty_digit_order_is_fast():
    t = 2 ** 40 * P9 * (10 ** 18 + 9)  # the last factor is prime to 2 and P9
    assert len(str(t)) == 40
    got = within_a_second(lambda: localize_group(FpAbelianGroup.cyclic(t), frozenset({2, P9})))
    assert got.torsion == (2 ** 40 * P9,)
