"""README's examples run as written: the complex document loads, and the
library tour prints what its comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

from towercalc.complexes import moore_complex
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
