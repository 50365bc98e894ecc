"""README's examples run as written: the complex document loads, and the
library tour prints what its comments say; the bounds it states are the
library's."""

import contextlib
import io
import json
import re
from pathlib import Path

from towercalc.complexes import moore_complex
from towercalc.sections import MAX_TOWER_LENGTH
from towercalc.serialize import MAX_DEGREE_SIZE
from towercalc.serialize import object_from_doc

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the text `after`."""
    fence = re.compile(rf"```{lang}\n(.*?)```", re.S)
    return fence.search(README, README.index(after)).group(1)


def test_complex_document_example_loads():
    doc = json.loads(_block("A complex document:", "json"))
    assert object_from_doc(doc, "README") == moore_complex(6)


def test_library_tour_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("A taste:", "python"), {})
    assert out.getvalue().splitlines() == ["H_0 = Z/6", "True", "True"]


def test_tower_length_bound_is_the_librarys():
    stated = re.search(r"longer than (\d+)\s+structure maps \(`sections.MAX_TOWER_LENGTH`\)", README)
    assert stated and int(stated.group(1)) == MAX_TOWER_LENGTH


def test_degree_size_bound_is_the_librarys():
    stated = re.search(r"at most (\d+) generators and (\d+) relation rows\s+"
                       r"\(`serialize.MAX_DEGREE_SIZE`\)", README)
    assert stated and int(stated.group(1)) == int(stated.group(2)) == MAX_DEGREE_SIZE
