"""Answers known independently of towercalc, and the checks against them.

Nothing here imports towercalc.  Homology profiles come from the blocks a
generated input was assembled from; matrix answers come from the
construction (scrambled rungs), from sympy and a Bareiss determinant (dense
rungs), or from direct integer arithmetic on what the library returned.
"""
from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# groups


def _prime_powers(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_chain(orders):
    """Invariant factors t_1 | t_2 | ... of a sum of cyclic groups of small
    order, through their prime-power parts."""
    per_prime = {}
    for n in orders:
        for p, e in _prime_powers(abs(n)).items():
            per_prime.setdefault(p, []).append(e)
    depth = max((len(e) for e in per_prime.values()), default=0)
    chain = []
    for k in range(depth):
        t = 1
        for p, exps in per_prime.items():
            exps = sorted(exps, reverse=True)
            if k < len(exps):
                t *= p ** exps[k]
        chain.append(t)
    return tuple(reversed(chain))


def group_str(rank, torsion):
    """The rendering towercalc documents for a group: 'Z^2 + Z/2 + Z/6'."""
    parts = ["Z"] if rank == 1 else [f"Z^{rank}"] if rank else []
    parts += [f"Z/{t}" for t in torsion if t > 1]
    return " + ".join(parts) if parts else "0"


def degree_groups(profile):
    """degree -> rendered group, nonzero degrees only."""
    out = {}
    for d, (rank, orders) in profile.items():
        text = group_str(rank, invariant_chain(orders))
        if text != "0":
            out[d] = text
    return out


def profile_str(groups, above=None):
    """The rendering of a homology profile, optionally only degrees > above."""
    kept = [(d, g) for d, g in sorted(groups.items()) if above is None or d > above]
    return ", ".join(f"H_{d} = {g}" for d, g in kept) if kept else "0"


# ---------------------------------------------------------------------------
# matrices


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(x * y for x, y in zip(row, (b[k][j] for k in range(len(b)))))
             for j in range(cols)] for row in a]


def bareiss_det(rows):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(rows):
    """Rank over Q."""
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def dense_invariants(rows):
    """Nonzero invariant factors from sympy, checked against |det|."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    n = len(rows)
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    invs = sorted(abs(int(snf[i, i])) for i in range(n) if snf[i, i] != 0)
    det = abs(bareiss_det(rows))
    product = 1
    for t in invs:
        product *= t
    if det and product != det:
        raise AssertionError("sympy invariants disagree with the determinant")
    if not det and len(invs) == n:
        raise AssertionError("sympy reports full rank for a singular matrix")
    return tuple(invs)


def check_matrix_outputs(rung, got):
    """Problems with a decided matrix rung that need no known answer: the
    library's transforms, kernel basis and solution are checked by direct
    integer arithmetic.  `got` holds the outputs as plain integers."""
    m, n = rung["rows"], rung["n"]
    d = got["d"]
    problems = []
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if matmul(matmul(got["U"], m), got["V"]) != diag:
        problems.append("U @ m @ V != diag(d)")
    if abs(bareiss_det(got["U"])) != 1 or abs(bareiss_det(got["V"])) != 1:
        problems.append("transforms not unimodular")
    free = n - sum(1 for x in d if x)
    kernel = got["kernel"]
    kcols = len(kernel[0]) if kernel else 0
    if kcols != free or (free and (any(any(row) for row in matmul(m, kernel))
                                   or rank(kernel) != free)):
        problems.append("integer_kernel")
    if got["solution"] is None or matmul(m, got["solution"]) != rung["rhs"]:
        problems.append("solve_matrix")
    return problems


def check_matrix_answers(n, summary, expected):
    """Problems with a matrix rung's invariants, group and homology against
    the known nonzero invariant factors `expected`."""
    problems = []
    if tuple(x for x in summary["d"] if x) != tuple(expected):
        problems.append("snf invariants")
    want = [n - len(expected), [t for t in expected if t > 1]]
    if summary["group"] != want:
        problems.append("group_from_presentation")
    if summary["homology"] != {"0": want, "1": [want[0], []]}:
        problems.append("homology")
    return problems


def check_torsion_answers(rung, summary):
    """Problems with a torsion rung: H_0 of Z --pq--> Z is Z/pq, and the
    fracture square over {p} | {q} reassembles it."""
    want = f"Z/{rung['p'] * rung['q']}"
    problems = []
    if summary["homology"] != {"0": want}:
        problems.append("homology")
    if not summary["square_passed"] or summary["reassembled"] != want:
        problems.append("arithmetic_square")
    return problems


# ---------------------------------------------------------------------------
# certificates and reports


def find_checks(cert, name):
    """Every sub-certificate (depth first) whose check is `name`."""
    out = [cert] if cert.check == name else []
    for child in cert.children:
        out.extend(find_checks(child, name))
    return out


def check_battery(results, groups):
    """Problems with a certify_batch instance's certificates.

    Every certificate must pass, and every homology value a certificate
    carries must equal the profile known from the blocks.
    """
    problems = [name for name, cert in results if not cert.passed]
    for name, cert in results:
        if name.startswith("milnor"):
            for c in find_checks(cert, "limit_homology_matches"):
                deg = c.witness.get("degree")
                if c.witness.get("value") != groups.get(deg, "0"):
                    problems.append(f"{name}: limit homology in degree {deg}")
        elif name.startswith("derived_counit"):
            cut = cert.witness.get("cut")
            for c in find_checks(cert, "fiber_is_connective_cover"):
                if c.witness.get("value") != profile_str(groups, above=cut):
                    problems.append(f"{name}: fiber homology")
        elif name.startswith("layer_equivalence"):
            cut = cert.witness.get("cut")
            for c in cert.children:
                if c.witness.get("value") != groups.get(cut + 1, "0"):
                    problems.append(f"{name}: {c.check}")
        elif name == "arithmetic_square":
            seen = {}
            for c in find_checks(cert, "degree_fracture"):
                for r in find_checks(c, "reassembly"):
                    seen[c.witness.get("degree")] = r.witness.get("value")
            if seen != groups:
                problems.append("arithmetic_square: reassembled homology")
    return problems


def _listing(report, name):
    for check in report["checks"]:
        if check["check"] == name:
            return {c["witness"]["degree"]: c["witness"]["value"]
                    for c in check.get("children", [])}
    return None


def _nonzero(listing):
    return {d: v for d, v in listing.items() if v != "0"}


def check_report(command, report, groups, cut=None):
    """Problems with a machine report for a generated document."""
    if report.get("verdict") != "pass":
        return ["verdict"]
    if command == "homology":
        listing = _listing(report, "homology")
        return [] if listing is not None and _nonzero(listing) == groups else ["homology values"]
    if command == "truncate":
        trunc = next((c for c in report["checks"] if c["check"] == "truncation"), None)
        listing = None
        if trunc is not None:
            listing = _listing({"checks": trunc.get("children", [])}, "truncated_homology")
        want = {d: g for d, g in groups.items() if d <= cut}
        return [] if listing is not None and _nonzero(listing) == want else ["truncated values"]
    if command == "tower":
        listing = _listing(report, "limit_homology")
        return [] if listing is not None and _nonzero(listing) == groups else ["limit values"]
    if command == "milnor":
        values = {}
        for check in report["checks"]:
            for seq in check.get("children", []):
                for c in seq.get("children", []):
                    if c["check"] == "limit_homology_matches":
                        values[c["witness"]["degree"]] = c["witness"]["value"]
        return [] if _nonzero(values) == groups else ["milnor values"]
    return []
