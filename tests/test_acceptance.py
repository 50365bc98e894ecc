"""Acceptance battery: ten numbered end-to-end guarantees.

Each test covers one guarantee, prints a single verdict line (visible even
under capture), and asserts its corpus size and time budget where one is
part of the contract.  All comparisons are exact integer/group equalities;
nothing here is approximate.
"""

import math
import random
import time
from collections import defaultdict
from pathlib import Path

from helpers import det, diagonal_matrix
from towercalc.cli import main
from towercalc.complexes import (
    ChainMap,
    degreewise_kernel,
    direct_sum,
    hom_complex,
    homology,
    homology_group,
    moore_complex,
    sphere_complex,
)
from towercalc.exactalg import (
    GroupMap,
    IntegerMatrix,
    Presentation,
    ext_group,
    mittag_leffler_diagnostic,
    smith_normal_form,
)
from towercalc.fracture import PrimePartition, arithmetic_square_check
from towercalc.gen import GenProfile, random_complex
from towercalc.hofib import compatibility_check, hofib_factorization
from towercalc.holim import (
    generator_commutation_check,
    hypercomplete_check,
    milnor_check,
    uct_ladder,
)
from towercalc.sections import (
    TowerSection,
    free_postnikov_tower,
    is_homotopy_cartesian,
    is_post_fibrant,
    is_tow_cofibrant,
    postnikov_tower,
)
from towercalc.trunc import connective_cover, fiber_sequence_check, layer, postnikov_section

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def verdict_line(capsys, number, label):
    with capsys.disabled():
        print(f"\ncriterion {number:2d}: PASS  {label}", flush=True)


# ---------------------------------------------------------------------------
# 1. exact Smith forms


def _elimination_invariants(rows):
    """Nonzero invariant factors by blind elementary elimination: first
    nonzero pivot, in-place Euclid, then a pairwise gcd/lcm pass to repair
    the divisibility chain.  No transform tracking, no shared code with the
    library's smallest-pivot routine."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(nr, nc):
        piv = next(((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]), None)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for r in a:
            r[t], r[j0] = r[j0], r[t]
        while any(a[i][t] for i in range(t + 1, nr)) or any(a[t][j] for j in range(t + 1, nc)):
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
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
        diag.append(abs(a[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            g = math.gcd(diag[i], diag[i + 1])
            if g != diag[i]:
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return tuple(diag)


def test_criterion_01_snf_soundness(capsys):
    rng = random.Random(1101)
    start = time.monotonic()
    checked = 0
    for trial in range(500):
        nr, nc = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if nr and nc:
            m = IntegerMatrix.from_rows(rows)
        else:
            m = IntegerMatrix.zero(nr, nc)
        s = smith_normal_form(m)
        assert s.U @ m @ s.V == diagonal_matrix(s, nr, nc)
        assert det(s.U) in (1, -1) and det(s.V) in (1, -1)
        assert all(x >= 0 for x in s.d)
        for a, b in zip(s.d, s.d[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0
        if trial < 100:
            assert tuple(x for x in s.d if x) == _elimination_invariants(rows)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 500
    assert elapsed < 5.0
    verdict_line(capsys, 1, f"500 exact Smith forms, 100 oracle agreements ({elapsed:.2f}s < 5s)")


# ---------------------------------------------------------------------------
# 2. mapping complexes through truncation windows


def test_criterion_02_truncated_mapping_complex_window(capsys):
    rng = random.Random(1102)
    source_profile = GenProfile(homology_degrees=(0,))
    start = time.monotonic()
    instances = [(moore_complex(2, 0), moore_complex(2, 1), 0)]
    while len(instances) < 200:
        m = random_complex(rng, source_profile)
        n = random_complex(rng)
        instances.append((m, n, rng.randint(-1, 3)))
    caveat_hits = 0
    for m, n, cut in instances:
        section = postnikov_section(n, cut)[0]
        hom_cut = hom_complex(m, section)
        hom_full = hom_complex(m, n)
        degrees = set(hom_cut.span()) | set(hom_full.span()) | {cut}
        for i in sorted(degrees):
            if i > cut:
                assert homology_group(hom_cut, i).is_zero
            elif i <= cut - 1:
                assert homology_group(hom_cut, i) == homology_group(hom_full, i)
        corner = ext_group(homology_group(m, cut), homology_group(n, cut + 1))
        if not corner.is_zero:
            assert homology_group(hom_cut, cut) != homology_group(hom_full, cut)
            caveat_hits += 1
    assert len(instances) == 200
    assert caveat_hits >= 1

    # the report machinery flags the seeded caveat instance the same way
    report = uct_ladder(moore_complex(2, 0), moore_complex(2, 1), 0)
    assert not report.discrepancy.is_zero
    assert report.rung_at(0).middle != report.rung_at(0).middle_cut
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict_line(capsys, 2, f"200 truncated mapping windows, {caveat_hits} boundary "
                            f"discrepancies flagged ({elapsed:.2f}s < 30s)")


# ---------------------------------------------------------------------------
# 3. recovery from truncation towers


def test_criterion_03_truncation_tower_recovery(capsys):
    rng = random.Random(1103)
    start = time.monotonic()
    for _ in range(200):
        x = random_complex(rng)
        assert hypercomplete_check(x).passed
        for i in (0, 1, 2):
            for n in x.span():
                assert generator_commutation_check(i, x, n).passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    verdict_line(capsys, 3, f"200 complexes recovered from their towers ({elapsed:.2f}s < 60s)")


# ---------------------------------------------------------------------------
# 4. tower fibrancy, decided twice


def _zeroed_structure_map(t, index):
    maps = list(t.structure_maps)
    maps[index] = ChainMap.zero_map(t.complexes[index + 1], t.complexes[index])
    return TowerSection(t.complexes, tuple(maps))


def test_criterion_04_fibrancy_characterizations_agree(capsys):
    rng = random.Random(1104)
    for _ in range(50):
        x = random_complex(rng)
        cert = is_post_fibrant(postnikov_tower(x, max(x.top_deg, 0) + rng.randint(0, 1)))
        assert cert.passed
        route_one, route_two = cert.children
        assert route_one.passed and route_two.passed
    for _ in range(50):
        x = direct_sum(random_complex(rng),
                       direct_sum(sphere_complex(1), sphere_complex(2)))
        broken = _zeroed_structure_map(postnikov_tower(x, x.top_deg), 1)
        cert = is_post_fibrant(broken)
        assert not cert.passed
        route_one, route_two = cert.children
        assert route_one.passed == route_two.passed == False
        spots = {c.witness["spot"] for route in cert.children
                 for c in route.failures() if c.check == "fibration"}
        assert spots == {"level 2 over 1"}
    verdict_line(capsys, 4, "both fibrancy characterizations agree on 100 towers, "
                            "sabotage located at level 2 over 1")


# ---------------------------------------------------------------------------
# 5. cofibrant towers


def test_criterion_05_cofibrant_towers(capsys):
    rng = random.Random(1105)
    for _ in range(40):
        x = random_complex(rng)
        tower, _ = free_postnikov_tower(x, max(x.top_deg, 0) + rng.randint(0, 1))
        assert is_tow_cofibrant(tower).passed
        assert is_homotopy_cartesian(tower).passed
    for _ in range(40):
        x = direct_sum(random_complex(rng),
                       direct_sum(sphere_complex(0), sphere_complex(1)))
        tower, _ = free_postnikov_tower(x, x.top_deg)
        index = rng.randrange(tower.stabilization)
        broken = _zeroed_structure_map(tower, index)
        cof = is_tow_cofibrant(broken)
        assert not cof.passed
        assert {(c.check, c.witness["level"]) for c in cof.failures()} \
            == {("structure_map_weq", index)}
        cart = is_homotopy_cartesian(broken)
        assert not cart.passed
        assert {c.witness["level"] for c in cart.failures()} == {index}
    verdict_line(capsys, 5, "free towers certified cofibrant and cartesian; "
                            "homology-dropping maps located on 40 sabotaged towers")


# ---------------------------------------------------------------------------
# 6. fiber sequences and layers


def test_criterion_06_fiber_sequences_and_layers(capsys):
    rng = random.Random(1106)
    for _ in range(200):
        x = random_complex(rng)
        k = rng.randint(-2, 4)
        assert fiber_sequence_check(x, k).passed
        profile = homology(layer(x, k))
        assert set(profile.support()) <= {k + 1}
        assert profile.at(k + 1) == homology_group(x, k + 1)
    verdict_line(capsys, 6, "200 fiber sequences certified, layers concentrated "
                            "one degree above the cut")


# ---------------------------------------------------------------------------
# 7. fracture squares at every balanced prime split


BALANCED_SPLITS = [
    (frozenset({2}), frozenset({3, 5})),
    (frozenset({3}), frozenset({2, 5})),
    (frozenset({5}), frozenset({2, 3})),
]


def _reassembled_values(cert):
    out = {}
    for child in cert.children:
        if child.check != "degree_fracture":
            continue
        algebraic = child.children[0]
        rebuilt = next(c for c in algebraic.children if c.check == "reassembly")
        assert rebuilt.passed
        out[child.witness["degree"]] = rebuilt.witness["value"]
    return out


def test_criterion_07_fracture_squares(capsys):
    rng = random.Random(1107)
    for _ in range(200):
        x = random_complex(rng)
        values_by_split = []
        for j, k in BALANCED_SPLITS:
            cert = arithmetic_square_check(x, PrimePartition(j, k))
            assert cert.passed
            values = _reassembled_values(cert)
            for degree, value in values.items():
                assert value == str(homology_group(x, degree))
            values_by_split.append(values)
        assert all(v == values_by_split[0] for v in values_by_split)
    verdict_line(capsys, 7, "200 complexes reassembled from every balanced prime split")


# ---------------------------------------------------------------------------
# 8. homotopy fibers against connective covers


def test_criterion_08_hofib_fiber_matches_connective_cover(capsys):
    rng = random.Random(1108)
    corpora = defaultdict(list)
    for _ in range(200):
        x = random_complex(rng)
        k = rng.randint(-2, 4)
        _, proj = hofib_factorization(x, k)
        fiber = degreewise_kernel(proj)[0]
        assert homology(fiber) == homology(connective_cover(x, k)[0])
        corpora[k].append(x)
    assert sum(len(xs) for xs in corpora.values()) == 200
    for k, xs in corpora.items():
        assert compatibility_check(k, xs).passed
    verdict_line(capsys, 8, "200 homotopy fibers carry exactly the connective-cover "
                            "homology; compatibility holds corpus-wide")


# ---------------------------------------------------------------------------
# 9. limits of towers, degreewise


def test_criterion_09_tower_limits(capsys):
    rng = random.Random(1109)
    for _ in range(60):
        x = random_complex(rng)
        m = max(x.top_deg, 0) + rng.randint(0, 2)
        tower = postnikov_tower(x, m)
        for i in range(x.min_deg - 1, m + 2):
            cert = milnor_check(tower, i)
            assert cert.passed
            by_name = {c.check: c for c in cert.children}
            assert by_name["lim1_vanishes"].passed
            assert by_name["limit_homology_matches"].passed

    # a multiplication tower of full groups never stabilizes its images
    line = Presentation.free(1)
    times_three = GroupMap(line, line, IntegerMatrix.from_rows([[3]]))
    assert mittag_leffler_diagnostic((times_three,) * 8, horizon=4) is None
    verdict_line(capsys, 9, "60 towers pass the limit comparison in every degree; "
                            "the x3 tower is rejected")


# ---------------------------------------------------------------------------
# 10. reproducible reports


GOLDEN_COMMANDS = [
    (["homology", "moore_6.json"], "homology_moore6.report.json"),
    (["fracture", "moore_6.json", "--primes-j", "2", "--primes-k", "3"],
     "fracture_moore6.report.json"),
    (["milnor", "tower_moore6.json"], "milnor_tower_moore6.report.json"),
    (["section", "check-cospan", "cospan_fracture_moore6.json"],
     "section_cospan_moore6.report.json"),
]


def test_criterion_10_report_determinism(capsys, tmp_path):
    for argv, name in GOLDEN_COMMANDS:
        argv = [a if not a.endswith(".json") else str(FIXTURES / a) for a in argv]
        golden = (FIXTURES / "golden" / name).read_bytes()
        for run in range(2):
            out = tmp_path / f"{run}_{name}"
            assert main(argv + ["--report", str(out)]) == 0
            capsys.readouterr()
            assert out.read_bytes() == golden

    golden_doc = (FIXTURES / "golden" / "generated_seed0.json").read_text()
    for _ in range(2):
        assert main(["generate", "--seed", "0"]) == 0
        assert capsys.readouterr().out == golden_doc
    verdict_line(capsys, 10, "golden reports and the seed-0 document reproduced "
                             "byte-for-byte, twice")
