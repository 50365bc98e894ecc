"""Seeded inputs for the benchmark, built without importing towercalc.

Every generated complex is assembled from elementary blocks whose homology
is known by construction (a sphere carries Z, a disk nothing, a two-term
``t``-multiplication block Z/t), then scrambled by unimodular changes of
basis, which leave homology untouched.  The block mix and bounds follow
``towercalc.gen.random_complex`` with its default ``GenProfile``, but the
code is separate, so the inputs and their known answers do not move when
the library changes.

A complex here is a dict: ``lo`` (lowest degree), ``gens`` (generator count
per degree from ``lo`` up), ``diffs`` (``diffs[j]`` is the matrix, as a list
of rows, from degree ``lo + j + 1`` to degree ``lo + j``) and ``profile``
(degree -> ``(rank, torsion orders)``, the orders not yet normalised).
"""
from __future__ import annotations

import random

LO, HI = -2, 2          # degree window of GenProfile()
MAX_GENS = 3            # generators per degree
MAX_ENTRY = 5           # largest differential entry after shears
ORDERS = (2, 3, 4, 5)   # torsion orders with primes in {2, 3, 5}, up to MAX_ENTRY


# ---------------------------------------------------------------------------
# complexes


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def empty():
    return {"lo": 0, "gens": [], "diffs": [], "profile": {}}


def block(kind, n, t=0):
    """sphere at n, disk from n to n-1, or Z --t--> Z from n+1 to n."""
    if kind == "sphere":
        return {"lo": n, "gens": [1], "diffs": [], "profile": {n: (1, [])}}
    if kind == "disk":
        return {"lo": n - 1, "gens": [1, 1], "diffs": [[[1]]], "profile": {}}
    return {"lo": n, "gens": [1, 1], "diffs": [[[t]]], "profile": {n: (0, [t])}}


def gens_at(c, i):
    j = i - c["lo"]
    return c["gens"][j] if 0 <= j < len(c["gens"]) else 0


def diff_at(c, i):
    """d_i from degree i to degree i-1, zero-shaped outside the window."""
    j = i - c["lo"] - 1
    if 0 <= j < len(c["diffs"]):
        return c["diffs"][j]
    return _zeros(gens_at(c, i - 1), gens_at(c, i))


def top(c):
    return c["lo"] + len(c["gens"]) - 1


def trim(c):
    """Drop zero-generator degrees at both ends, as ChainComplex does."""
    lo, gens, diffs = c["lo"], list(c["gens"]), list(c["diffs"])
    while gens and gens[0] == 0:
        lo, gens, diffs = lo + 1, gens[1:], diffs[1:]
    while gens and gens[-1] == 0:
        gens, diffs = gens[:-1], diffs[:-1]
    if not gens:
        lo = 0
    return {**c, "lo": lo, "gens": gens, "diffs": diffs}


def direct_sum(a, b):
    if not a["gens"]:
        return b
    if not b["gens"]:
        return a
    lo, hi = min(a["lo"], b["lo"]), max(top(a), top(b))
    gens = [gens_at(a, i) + gens_at(b, i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo + 1, hi + 1):
        da, db = diff_at(a, i), diff_at(b, i)
        ra, ca = gens_at(a, i - 1), gens_at(a, i)
        rows = [list(r) + [0] * gens_at(b, i) for r in da]
        rows += [[0] * ca + list(r) for r in db]
        assert len(rows) == ra + gens_at(b, i - 1)
        diffs.append(rows)
    profile = {}
    for src in (a["profile"], b["profile"]):
        for d, (rank, orders) in src.items():
            r0, o0 = profile.get(d, (0, []))
            profile[d] = (r0 + rank, o0 + list(orders))
    return {"lo": lo, "gens": gens, "diffs": diffs, "profile": profile}


def _matmul(a, b, inner):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


def _transpose(m, rows, cols):
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _shear(c, j, a, b, s):
    """Change basis in degree lo + j by e_b -> e_b + s e_a: row a of the
    outgoing differential gains s times row b, and column b of the incoming
    one loses s times column a."""
    diffs = [[list(r) for r in d] for d in c["diffs"]]
    if j < len(diffs):
        out = diffs[j]
        out[a] = [x + s * y for x, y in zip(out[a], out[b])]
    if j > 0:
        for row in diffs[j - 1]:
            row[b] -= s * row[a]
    return {**c, "diffs": diffs}


def _permute(rng, c):
    """A random signed permutation of the basis in every degree: entry
    (r, k) of a differential moves to (perm[r], perm'[k]) and picks up both
    signs."""
    perms, signs = [], []
    for g in c["gens"]:
        perm = list(range(g))
        rng.shuffle(perm)
        perms.append(perm)
        signs.append([rng.choice((1, -1)) for _ in range(g)])
    diffs = []
    for j, d in enumerate(c["diffs"]):
        rows, cols = c["gens"][j], c["gens"][j + 1]
        out = _zeros(rows, cols)
        pr, sr, pc, sc = perms[j], signs[j], perms[j + 1], signs[j + 1]
        for r in range(rows):
            for k in range(cols):
                out[pr[r]][pc[k]] = sr[r] * sc[k] * d[r][k]
        diffs.append(out)
    return {**c, "diffs": diffs}


def scramble(rng, c, shears, bound=MAX_ENTRY):
    """A signed permutation in every degree, then up to `shears` elementary
    shears, each kept only if every entry stays within `bound`."""
    gens = c["gens"]
    c = _permute(rng, c)
    for _ in range(shears):
        j = rng.randrange(len(gens))
        if gens[j] < 2:
            continue
        a, b = rng.sample(range(gens[j]), 2)
        candidate = _shear(c, j, a, b, rng.choice((1, -1)))
        if all(abs(e) <= bound for d in candidate["diffs"] for r in d for e in r):
            c = candidate
    return c


def random_complex(rng):
    """One to four blocks within the default generator profile, then a
    scramble; the same mix as towercalc.gen.random_complex."""
    out = empty()
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("sphere", "disk", "torsion"))
        n = rng.randint(LO, HI)
        if kind == "sphere":
            piece = block("sphere", n)
        elif kind == "disk":
            piece = block("disk", min(n + 1, HI))
        else:
            piece = block("torsion", min(n, HI - 1), rng.choice(ORDERS))
        trial = direct_sum(out, piece)
        if all(g <= MAX_GENS for g in trial["gens"]):
            out = trial
    if not out["gens"]:
        out = block("sphere", LO)
    return scramble(rng, trim(out), rng.randint(0, 4))


MAX_WIDE_GENS = 15     # generators per degree of a wide document


# Spans (degrees in the window) that random_complex draws, in its own
# proportions: 9, 29, 18, 22 and 22 % for spans 1 to 5 over 20,000 draws.
# An instance's cost grows with its span, which explains about 70 % of the
# variance of certify_batch operation times, so a fixed cycle of spans keeps
# the mix of easy and hard instances the same from seed to seed.
SPAN_CYCLE = (2, 5, 3, 4, 2, 1, 5, 2, 4, 3, 2, 5, 4, 2, 3, 1, 5, 2, 4, 3)


def complex_with_span(rng, span):
    """The next random_complex draw whose window has `span` degrees."""
    while True:
        c = random_complex(rng)
        if len(c["gens"]) == span:
            return c


def wide_complex(rng, extra=()):
    """A direct sum of up to eight generated complexes (a summand that would
    push a degree past MAX_WIDE_GENS is skipped), plus any extra blocks,
    scrambled again as a whole so the summands interleave."""
    out = empty()
    for _ in range(rng.randint(5, 8)):
        trial = direct_sum(out, random_complex(rng))
        if max(trial["gens"]) <= MAX_WIDE_GENS:
            out = trial
    for piece in extra:
        out = direct_sum(out, piece)
    return scramble(rng, trim(out), 4)


# ---------------------------------------------------------------------------
# documents (the JSON format of towercalc.serialize)


def _mdoc(rows):
    return [[str(e) for e in r] for r in rows]


def complex_doc(c, name, relations=None):
    relations = relations or {}
    return {
        "name": name,
        "min_degree": c["lo"],
        "degrees": [{"generators": g, "relations": _mdoc(relations.get(c["lo"] + j, []))}
                    for j, g in enumerate(c["gens"])],
        "differentials": [_mdoc(d) for d in c["diffs"]],
    }


def _section(c, n):
    """(complex, relations) of the Postnikov section P_n: degrees above n
    dropped, degree n divided by the incoming boundaries."""
    if not c["gens"] or n < c["lo"]:
        return empty(), {}
    cut = min(n, top(c))
    k = cut - c["lo"]
    sec = {"lo": c["lo"], "gens": c["gens"][:k + 1], "diffs": c["diffs"][:k], "profile": {}}
    boundary = _transpose(diff_at(c, cut + 1), gens_at(c, cut), gens_at(c, cut + 1))
    return sec, {cut: boundary}


def tower_doc(c):
    """The document of postnikov_tower(c, max(top, 0)): the tower the
    `milnor` command builds for a complex."""
    m = max(top(c), 0)
    levels = []
    for n in range(m + 1):
        sec, rel = _section(c, n)
        if sec["gens"] and sec["gens"][-1] == 0:
            rel = {}
        levels.append((trim(sec), rel))
    maps = []
    for n in range(m):
        src = levels[n + 1][0]
        cut = min(n, top(src))
        comps = []
        for i in range(src["lo"], top(src) + 1):
            g = gens_at(src, i)
            comps.append(_mdoc(_identity(g)) if i <= cut else [])
        maps.append(comps)
    return {
        "levels": [complex_doc(lvl, f"level_{i}", rel) for i, (lvl, rel) in enumerate(levels)],
        "maps": maps,
    }


def broken_d2(rng):
    """A wide complex plus Z --1--> Z --1--> Z: d composed with d is nonzero."""
    n = rng.randint(LO + 1, HI - 1)
    bad = {"lo": n - 1, "gens": [1, 1, 1], "diffs": [[[1]], [[1]]], "profile": {}}
    return wide_complex(rng, extra=(bad,))


def broken_tower(rng):
    """A tower document whose map from level 2 to level 1 doubles degree 1,
    so its square over the nonzero d_1 does not commute."""
    c = wide_complex(rng, extra=(block("disk", 1), block("sphere", HI)))
    doc = tower_doc(c)
    src = doc["levels"][2]
    j = 1 - src["min_degree"]
    doc["maps"][1][j] = [[str(2 * int(e)) for e in r] for r in doc["maps"][1][j]]
    return doc


# ---------------------------------------------------------------------------
# lattice ladder


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
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


def prime_near(rng, digits):
    """A prime of the given digit count within 25 % of the smallest such
    number, so rung cost (trial division up to the smaller prime) varies
    little between draws."""
    low = 10 ** (digits - 1)
    n = rng.randrange(low, low + low // 4)
    while not is_prime(n):
        n += 1
    return n


def _unimodular(rng, n):
    """A signed row permutation of (unit lower) x (unit upper), entries of
    both triangles in [-1, 1]."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)]
             for i in range(n)]
    m = _matmul(lower, upper, n)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * e for e in m[perm[i]]] for i in range(n)]


def scrambled_rung(rng, n):
    """U @ D @ V with a known invariant-factor chain D; one in four has a
    rank drop, so the kernel is not always trivial."""
    d, cur = [], 1
    for _ in range(n):
        cur *= rng.choice((1, 1, 1, 2, 3))
        d.append(cur)
    if rng.random() < 0.25:
        for i in range(rng.randint(1, 2)):
            d[n - 1 - i] = 0
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows = _matmul(_matmul(_unimodular(rng, n), diag, n), _unimodular(rng, n), n)
    return {"kind": "scrambled", "n": n, "rows": rows, "invariants": d}


def dense_rung(rng, n):
    return {"kind": "dense", "n": n,
            "rows": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]}


def torsion_rung(rng, digits):
    p = prime_near(rng, digits)
    q = prime_near(rng, digits)
    while q == p:
        q = prime_near(rng, digits)
    return {"kind": "torsion", "digits": digits, "p": min(p, q), "q": max(p, q)}


def with_rhs(rng, rung):
    """A solvable right-hand side b = m @ x0 for the matrix rungs."""
    if rung["kind"] == "torsion":
        return rung
    n = rung["n"]
    x0 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)]
    return {**rung, "rhs": _matmul(rung["rows"], x0, n)}


# Rung sizes and the per-rung limit.  Today's wall lies between 8 and 16
# for dense matrices, between 6 and 16 for scrambled ones (at n = 8 to 12
# their seed-code times range from milliseconds to many seconds), and
# between 5 and 8 digits for the torsion rungs.  The sizes skip every band
# where seed-code times straddle RUNG_LIMIT, so no rung flips between
# decided and timed out from one run to the next.
RUNG_LIMIT = 1.0        # seconds
SIZES = {"dense": (4, 6, 8, 16, 32), "scrambled": (4, 6, 16, 32), "torsion": (3, 4, 5, 8, 11)}
SMALL = {"dense": 8, "scrambled": 6, "torsion": 5}   # largest size below the wall
COPIES = {"dense": 60, "scrambled": 90, "torsion": 72}  # per pass, for each size below it


def ladder_pass(seed, index):
    """The rungs of one pass, smallest first.  Rungs past the wall appear
    once per pass; smaller rungs many times, so that timeouts stay a small
    share of operations."""
    rng = random.Random(f"ladder:{seed}:{index}")
    make = {"dense": lambda n: with_rhs(rng, dense_rung(rng, n)),
            "scrambled": lambda n: with_rhs(rng, scrambled_rung(rng, n)),
            "torsion": lambda digits: torsion_rung(rng, digits)}
    rungs = []
    for kind in ("dense", "scrambled", "torsion"):
        for size in SIZES[kind]:
            for _ in range(COPIES[kind] if size <= SMALL[kind] else 1):
                rungs.append(make[kind](size))
    return rungs
