"""Shared exception types.

Input-contract violations (bad documents, bad flags) raise ParseError,
ValidationError or InputError and map to CLI exit code 2.  The remaining
types signal violated mathematical preconditions; CharacterizationMismatch
alone is an implementation bug.  No type covers tower stabilization: a
tower derives its index from its maps, so there is no claim to violate.
"""
from .certificates import int_text


class InputError(ValueError):
    """An argument outside its documented range: a malformed tag or prime
    list, a prime past the certified bound, an overlapping or non-prime
    partition, a tower length short of the top degree or past its bound, a
    generator profile past its caps, a negative batch count.  It is a
    ValueError, so callers that catch ValueError keep working."""


class IllFormedMap(Exception):
    """A matrix does not carry source relations into target relations, or a
    would-be chain map fails to commute with the differentials."""


class NotCofibrant(Exception):
    """An operation requiring a degreewise-free complex got relations: the
    source of a mapping complex, a generator commutation check's complex, a
    homotopy fiber's input."""


class PartitionTooSmall(Exception):
    """A prime partition leaves part of some torsion order uncovered.

    `missing` holds the uncovered factors: each order divided by its part
    over the partition's primes.  They need not be prime (order 35 under
    {2} | {3} leaves 35)."""

    def __init__(self, missing):
        self.missing = frozenset(missing)
        listed = ", ".join(map(int_text, sorted(self.missing)))
        super().__init__(f"partition leaves torsion factors [{listed}] uncovered")


class CharacterizationMismatch(Exception):
    """Two supposedly equivalent characterizations disagreed: an
    implementation bug, never a property of the input."""


class ParseError(Exception):
    """Malformed document syntax."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class ValidationError(Exception):
    """Well-formed syntax, mathematically invalid content."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
