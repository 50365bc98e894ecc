"""The trusted build path: what it skips, what it keeps, and that it agrees
with the checked constructors.

Tests marked `trusted_builds` run `Trusted._trusted` unchecked, as the
library does; every other test runs it through the public constructor (see
conftest), so those tests also show that the routing is live.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_trusted_builds, empty_all_caches
from towercalc.complexes import (
    ChainComplex,
    ChainMap,
    cofibrant_replacement,
    degreewise_kernel,
    disk_complex,
    induced_map,
    les_certificate,
    sphere_complex,
)
from towercalc.errors import IllFormedMap, ValidationError
from towercalc.exactalg import IntegerMatrix, Presentation, Trusted
from towercalc.fracture import PrimePartition, arithmetic_square_check
from towercalc.gen import random_complex
from towercalc.hofib import derived_counit_check, hofib_factorization, layer_equivalence_check
from towercalc.holim import hypercomplete_check, milnor_check, tower_limit
from towercalc.sections import is_homotopy_cartesian, is_post_fibrant, postnikov_tower
from towercalc.trunc import connective_cover, fiber_sequence_check, postnikov_section

_UNCHECKED = Trusted.__dict__["_trusted"]


def _non_commuting():
    """The identity Z -> Z in degrees 1, 0 sent onto Z[0] by 1 in degree 0:
    every shape fits, but the square at degree 1 does not commute."""
    x, y = disk_complex(1), sphere_complex(0)
    return x, y, (IntegerMatrix.identity(1), IntegerMatrix.zero(0, 1))


def _d_squared_nonzero():
    free = Presentation.free(1)
    return 0, (free, free, free), (IntegerMatrix.identity(1), IntegerMatrix.identity(1))


def test_routed_trusted_builds_run_the_lattice_checks():
    with pytest.raises(IllFormedMap, match="square at degree 1 does not commute"):
        ChainMap._trusted(*_non_commuting())
    with pytest.raises(ValidationError, match="d composed with d is nonzero"):
        ChainComplex._trusted(*_d_squared_nonzero())


@pytest.mark.trusted_builds
def test_unrouted_trusted_builds_skip_only_the_lattice_checks():
    ChainMap._trusted(*_non_commuting())
    ChainComplex._trusted(*_d_squared_nonzero())
    # normalisation and the shape and count checks still run
    free = Presentation.free(1)
    stripped = ChainComplex._trusted(-1, [Presentation.free(0), free], [IntegerMatrix.zero(0, 1)])
    assert stripped == sphere_complex(0) and isinstance(stripped.degrees, tuple)
    with pytest.raises(ValidationError, match="differential count"):
        ChainComplex._trusted(0, (free, free), ())
    x, y, comps = _non_commuting()
    with pytest.raises(IllFormedMap, match="one component per source degree"):
        ChainMap._trusted(x, y, comps[:1])
    with pytest.raises(IllFormedMap, match="has shape"):
        ChainMap._trusted(y, x, (IntegerMatrix.zero(2, 1),))


@pytest.mark.trusted_builds
def test_a_prefix_map_is_checked():
    """Z[1] into the disk on degrees 1, 0 by generator 1 to generator 1: the
    square at degree 1 does not commute, and the public builder says so."""
    with pytest.raises(IllFormedMap, match="square at degree 1 does not commute"):
        ChainMap.prefix(sphere_complex(1), disk_complex(1))


@pytest.mark.trusted_builds
def test_a_connecting_map_off_a_short_exact_pair_is_rejected():
    """j: Z[0] -> disk and q: disk -> Z/2[1] compose to zero, but in degree 1
    ker q = 2Z is not im j = 0.  The snake map sends the relation 2 of
    H_1(Z/2[1]) to 2 != 0 in H_0(Z[0]) = Z, so it is not well defined."""
    x = disk_complex(1)
    quo = ChainComplex(1, (Presentation(1, IntegerMatrix.from_rows([[2]])),), ())
    q = ChainMap(x, quo, (IntegerMatrix.zero(0, 1), IntegerMatrix.identity(1)))
    j = ChainMap(sphere_complex(0), x, (IntegerMatrix.identity(1),))
    with pytest.raises(IllFormedMap, match="does not carry source relations"):
        les_certificate(j, q)


def _lattice_checks_in_constructors(monkeypatch, run) -> int:
    """How many `contains_in_relations` calls `run` makes from inside a
    constructor's `__init__`, the lattice check."""
    count = 0
    contains = Presentation.contains_in_relations

    def counted(self, vectors):
        nonlocal count
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name == "__init__":
                count += 1
                break
            frame = frame.f_back
        return contains(self, vectors)

    with monkeypatch.context() as m:
        m.setattr(Presentation, "contains_in_relations", counted)
        run()
    return count


@pytest.mark.trusted_builds
def test_a_derived_counit_check_runs_no_lattice_check_in_a_constructor(monkeypatch):
    x = random_complex(random.Random(5))
    assert len(x.degrees) >= 3  # so every d∘d check would reach the lattice
    assert _lattice_checks_in_constructors(monkeypatch, lambda: derived_counit_check(x, 0)) == 0
    empty_all_caches()
    check_trusted_builds(monkeypatch)
    assert _lattice_checks_in_constructors(monkeypatch, lambda: derived_counit_check(x, 0)) > 0


def _constructions(x):
    """Every trusted construction at every cut in x's window, in order."""
    out = []
    for k in range(x.min_deg - 1, x.top_deg + 1):
        section, q = postnikov_section(x, k)
        incl, proj = hofib_factorization(x, k)
        out += [(section, q), connective_cover(x, k), (incl, proj), degreewise_kernel(proj),
                cofibrant_replacement(section)]
        out += [induced_map(f, i) for f in (q, incl) for i in x.span()]
    out.append(tower_limit(postnikov_tower(x, max(x.top_deg, 0))))
    return out


def _battery(x):
    """The acceptance battery of one complex, as the benchmark runs it."""
    out = [hypercomplete_check(x)]
    tower = postnikov_tower(x, max(x.top_deg, 0))
    top = tower.level(tower.length)
    out += [milnor_check(tower, i) for i in (top.span() if not top.is_zero else range(0, 1))]
    out += [is_post_fibrant(tower), is_homotopy_cartesian(tower)]
    for k in range(x.min_deg - 1, x.top_deg + 1):
        out += [fiber_sequence_check(x, k), derived_counit_check(x, k),
                layer_equivalence_check(x, k)]
    out.append(arithmetic_square_check(x, PrimePartition({2}, {3, 5})))
    return out


def _trusted_then_checked(build):
    """`build()` through the trusted path, then again from empty caches
    through the public constructors."""
    empty_all_caches()
    trusted = build()
    empty_all_caches()
    with pytest.MonkeyPatch.context() as m:
        check_trusted_builds(m)
        checked = build()
    return trusted, checked


@pytest.mark.trusted_builds
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_trusted_constructions_equal_checked_ones(seed):
    assert Trusted.__dict__["_trusted"] is _UNCHECKED
    x = random_complex(random.Random(seed))
    trusted, checked = _trusted_then_checked(lambda: _constructions(x))
    assert trusted == checked


@pytest.mark.trusted_builds
def test_trusted_batteries_certify_what_checked_ones_do():
    for seed in range(8):
        x = random_complex(random.Random(seed))
        trusted, checked = _trusted_then_checked(lambda: _battery(x))
        assert trusted == checked
        assert all(c.passed for c in trusted)
