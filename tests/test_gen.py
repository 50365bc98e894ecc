"""Seeded generation: determinism, declared bounds, and the golden document."""

import random
from pathlib import Path

import pytest

from towercalc.complexes import homology
from towercalc.exactalg import prime_part
from towercalc.gen import GenProfile, generate, random_complex
from towercalc.serialize import complex_from_doc, document_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_equal_seeds_give_equal_documents():
    assert generate(11) == generate(11)


def test_different_seeds_eventually_differ():
    docs = {document_text(generate(s)) for s in range(10)}
    assert len(docs) > 1


def test_seed_zero_matches_the_committed_golden_document():
    committed = (FIXTURES / "golden" / "generated_seed0.json").read_text()
    assert document_text(generate(0)) == committed


def test_every_generated_document_validates():
    for seed in range(80):
        complex_from_doc(generate(seed))


def test_generated_complexes_respect_their_bounds():
    profile = GenProfile(max_span=4, max_generators=2, max_entry=3, primes=(2, 3))
    for seed in range(60):
        x = complex_from_doc(generate(seed, profile))
        assert x.top_deg - x.min_deg + 1 <= profile.max_span
        assert all(p.generators <= profile.max_generators for p in x.degrees)
        assert all(abs(e) <= profile.max_entry
                   for d in x.differentials for e in d.entries)
        groups = [homology(x).at(i) for i in x.span()]
        assert all(prime_part(t, profile.primes) == t for g in groups for t in g.torsion)


def test_homology_can_be_pinned_to_chosen_degrees():
    profile = GenProfile(homology_degrees=(0,))
    for seed in range(60):
        x = complex_from_doc(generate(seed, profile))
        assert all(d == 0 for d in homology(x).support())


def test_profiles_reject_out_of_cap_bounds():
    with pytest.raises(ValueError):
        GenProfile(max_span=9)
    with pytest.raises(ValueError):
        GenProfile(max_generators=5)
    with pytest.raises(ValueError):
        GenProfile(max_entry=6)
    with pytest.raises(ValueError):
        GenProfile(primes=(2, 7))


def test_rng_stream_instances_are_reproducible():
    a = [random_complex(random.Random(3)) for _ in range(2)]
    b = [random_complex(random.Random(3)) for _ in range(2)]
    assert a == b
