"""Structured pass/fail reports.

Every predicate in the library returns a Certificate rather than a bare bool:
a named verdict carrying witness data (offending degrees, levels, generator
indices) and optional sub-certificates.  Certificates serialize to JSON
deterministically so reports can be compared byte-for-byte.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field


def int_text(n: int) -> str:
    """n in decimal, or in hexadecimal past the int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _jsonable(value):
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, int):  # bools too
        # json.dumps cannot write an int past the int-to-str digit limit, so
        # int_text writes it in hex; the bit-length test keeps 10 ** limit
        # off the common path
        limit = sys.get_int_max_str_digits()
        if limit and value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
            return int_text(value)
        return value
    # exact types: matrices and other tuple-backed records render by str below
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    # groups, profiles, matrices: rendered by their str form
    return str(value)


@dataclass(frozen=True)
class Certificate:
    check: str
    passed: bool
    witness: dict = field(default_factory=dict)
    children: tuple["Certificate", ...] = ()

    def to_dict(self) -> dict:
        out = {"check": self.check, "passed": self.passed}
        if self.witness:
            out["witness"] = _jsonable(self.witness)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def failures(self) -> list["Certificate"]:
        """Leaf certificates that failed, in order."""
        if self.passed:
            return []
        leaves = [c for child in self.children for c in child.failures()]
        return leaves or [self]

    def __bool__(self) -> bool:
        return self.passed


def passed(check: str, **witness) -> Certificate:
    return Certificate(check, True, witness)


def failed(check: str, **witness) -> Certificate:
    return Certificate(check, False, witness)


def bundle(check: str, children, **witness) -> Certificate:
    """Combine sub-certificates; passes iff all children pass."""
    kids = tuple(children)
    return Certificate(check, all(k.passed for k in kids), witness, kids)
