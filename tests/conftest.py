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
"""
import importlib
import pkgutil

import pytest

import towercalc
from towercalc.exactalg import Trusted


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


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "trusted_builds: run Trusted._trusted unchecked, as the library does")


@pytest.fixture(autouse=True)
def empty_caches():
    empty_all_caches()


@pytest.fixture(autouse=True)
def checked_trusted_builds(request, monkeypatch):
    if request.node.get_closest_marker("trusted_builds") is None:
        check_trusted_builds(monkeypatch)
