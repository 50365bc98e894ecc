"""Shared test set-up: every test starts with empty towercalc caches.

A cache hit hands back a value equal to a fresh computation, so a warm cache
never changes an answer.  But a memo outlives a monkeypatch: a test that
patches a check, or counts what gets built, would otherwise read verdicts
and objects that an earlier test left behind.
"""
import importlib
import pkgutil

import pytest

import towercalc


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


@pytest.fixture(autouse=True)
def empty_caches():
    for fn in _CACHES:
        fn.cache_clear()
