"""Shared test set-up: every test starts with empty towercalc caches, and
every trusted build is checked.

A cache hit hands back a value equal to a fresh computation, so a warm cache
never changes an answer.  But a memo outlives a monkeypatch: a test that
patches a check, or counts what gets built, would otherwise read verdicts
and objects that an earlier test left behind.

The library builds the complexes and maps it derives from valid ones through
`Trusted._trusted`, which skips the lattice checks (see `complexes`).  Here
that path goes through the full public constructor instead, so the whole
suite re-validates every such build.  A test marked `trusted_builds` runs
the trusted path as the library does.

The library decides isomorphism, injectivity, exactness and the equality of
nested lattices from invariant factors (see "Deciding by invariants" in
`exactalg`), and quasi-isomorphism from the maps induced on homology.  Here
each such decision is also made by the reference route of `helpers` (kernel
presentations and lattice solves; for a quasi-isomorphism f, whether
H(Cone f) = 0), and any disagreement raises CharacterizationMismatch.  A
group that `group_from_presentation` reads off a cached Smith form is also
computed by the transform-free Hermite route (`transform_free_group`), so
the two normal forms check each other.  A test marked `single_route`
decides by the library's route alone, as tests that count lattice work
must.
"""
import importlib
import pkgutil
import sys

import pytest

import towercalc
from helpers import (
    exact_pair_by_containment,
    injective_by_kernel,
    iso_by_kernel,
    lattice_eq,
    quasi_iso_by_cone,
    transform_free_group,
)
from towercalc import complexes, exactalg
from towercalc.errors import CharacterizationMismatch
from towercalc.exactalg import GroupMap, Trusted


def all_caches():
    """Every cache_info-bearing callable of the towercalc modules, module
    functions and class attributes alike, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(towercalc.__path__):
        mod = importlib.import_module(f"towercalc.{info.name}")
        for obj in vars(mod).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members = [getattr(m, "__func__", m) for m in vars(obj).values()]
            for fn in members:
                if hasattr(fn, "cache_info"):
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


_CACHES = tuple(all_caches().values())


def empty_all_caches():
    for fn in _CACHES:
        fn.cache_clear()


def check_trusted_builds(monkeypatch):
    """Send every `Trusted._trusted` build through the public constructor."""
    monkeypatch.setattr(Trusted, "_trusted", classmethod(lambda cls, *fields: cls(*fields)))


def _both_routes(name, route, reference, verdict=None):
    """`route`, checked against `reference` on every call; `verdict`, if
    given, reads the route's answer in the reference's terms."""
    def decide(*args):
        got = route(*args)
        seen = got if verdict is None else verdict(got)
        want = reference(*args)
        if seen != want:
            raise CharacterizationMismatch(
                f"{name}: {seen!r} from the library's route, {want!r} from the reference")
        return got
    return decide


def check_both_routes(monkeypatch):
    """Decide `is_iso`, `is_injective`, `is_exact_pair`,
    `nested_lattices_equal` and `is_quasi_iso` both ways, and take each group
    derived from a Smith form both ways too, in every towercalc namespace
    that holds the library's function."""
    for attr, reference in (("is_iso", iso_by_kernel), ("is_injective", injective_by_kernel)):
        monkeypatch.setattr(GroupMap, attr,
                            _both_routes(attr, getattr(GroupMap, attr), reference))
    for home, attr, reference, verdict in (
            (exactalg, "is_exact_pair", exact_pair_by_containment, None),
            (exactalg, "nested_lattices_equal", lattice_eq, None),
            (complexes, "is_quasi_iso", quasi_iso_by_cone, lambda cert: cert.passed),
            (exactalg, "_group_from_snf", lambda rel, _snf: transform_free_group(rel), None)):
        route = getattr(home, attr)
        checked = _both_routes(attr, route, reference, verdict)
        for key, mod in list(sys.modules.items()):
            if key.startswith("towercalc.") and getattr(mod, attr, None) is route:
                monkeypatch.setattr(mod, attr, checked)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "trusted_builds: run Trusted._trusted unchecked, as the library does")
    config.addinivalue_line(
        "markers", "single_route: decide isomorphism, injectivity and exactness by the "
                   "library's route alone, with no cross-check")


@pytest.fixture(autouse=True)
def empty_caches():
    empty_all_caches()


@pytest.fixture(autouse=True)
def checked_trusted_builds(request, monkeypatch):
    if request.node.get_closest_marker("trusted_builds") is None:
        check_trusted_builds(monkeypatch)


@pytest.fixture(autouse=True)
def both_routes(request, monkeypatch):
    if request.node.get_closest_marker("single_route") is None:
        check_both_routes(monkeypatch)
