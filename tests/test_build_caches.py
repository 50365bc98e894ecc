"""Tests for the construction and lattice caches: a cached truncation, fiber
factorization, tower limit, solve, preimage lattice or subquotient equals a
fresh computation, and a second check at the same cut rebuilds no section
and solves no lattice problem again.  Covers, kernels, induced maps, free
replacements and lattice bases are not cached, so those are rebuilt.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc import trunc
from towercalc.complexes import ChainMap, direct_sum, moore_complex, sphere_complex
from towercalc.exactalg import (
    IntegerMatrix,
    Presentation,
    preimage_lattice,
    solve_matrix,
    subquotient,
)
from towercalc.gen import random_complex
from towercalc.hofib import derived_counit_check, hofib_factorization
from towercalc.holim import tower_limit
from towercalc.sections import postnikov_tower
from towercalc.trunc import fiber_sequence_check, postnikov_section


def test_a_second_check_at_a_cut_rebuilds_no_section(monkeypatch):
    x = direct_sum(moore_complex(6, 0), sphere_complex(1))
    k = 0
    assert fiber_sequence_check(x, k).passed
    built = []
    check = ChainMap.__init__

    def counted(self, *fields):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__") == trunc.__name__:
                built.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        check(self, *fields)

    monkeypatch.setattr(ChainMap, "__init__", counted)
    assert derived_counit_check(x, k).passed
    # the cover is rebuilt from memo hits; the section comes from its cache
    assert "connective_cover" in built
    assert "postnikov_section" not in built


@pytest.mark.single_route
def test_a_second_fiber_check_at_a_cut_solves_no_lattice_again():
    x = direct_sum(moore_complex(6, 0), sphere_complex(1))
    assert fiber_sequence_check(x, 0).passed
    solves, preimages = solve_matrix.cache_info().misses, preimage_lattice.cache_info().misses
    assert fiber_sequence_check(x, 0).passed
    assert solve_matrix.cache_info().misses == solves
    assert preimage_lattice.cache_info().misses == preimages


def _assert_fresh(cache, call):
    """The value `call` gets, possibly from an earlier equal key, equals the
    value it gets once `cache` has been emptied."""
    first = call()
    cache.cache_clear()
    assert call() == first


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cached_constructors_return_what_a_fresh_build_returns(seed):
    x = random_complex(random.Random(seed))
    for k in range(x.min_deg - 1, x.top_deg + 1):
        _assert_fresh(postnikov_section, lambda: postnikov_section(x, k))
        _assert_fresh(hofib_factorization, lambda: hofib_factorization(x, k))
    tower = postnikov_tower(x, max(x.top_deg, 0))
    _assert_fresh(tower_limit, lambda: tower_limit(tower))
    for n in x.span():
        g = x.pres_at(n).generators
        _assert_fresh(IntegerMatrix.zero, lambda: IntegerMatrix.zero(g, g + 1))
        _assert_fresh(IntegerMatrix.identity, lambda: IntegerMatrix.identity(g))
        _assert_fresh(Presentation.free, lambda: Presentation.free(g))
        d, rel = x.diff_at(n), x.pres_at(n - 1).relations
        _assert_fresh(solve_matrix, lambda: solve_matrix(d, d))
        if not d.is_zero:
            # a nonzero lattice is never inside twice itself
            assert solve_matrix(d.scale(2), d) is None
            _assert_fresh(solve_matrix, lambda: solve_matrix(d.scale(2), d))
        _assert_fresh(preimage_lattice, lambda: preimage_lattice(d, rel))
        cycles = preimage_lattice(d, rel)
        boundaries = x.diff_at(n + 1).hstack(x.pres_at(n).relations)
        _assert_fresh(subquotient, lambda: subquotient(cycles, boundaries))
