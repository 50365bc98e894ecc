"""Flat-file documents for complexes, towers, and cospans.

All matrix entries are decimal strings so no reader ever has to guess an
integer width.  Counts and degrees are ordinary JSON numbers.  Loading
validates everything the constructors validate; a malformed document raises
ParseError, a well-formed document describing a broken object (d squared
nonzero, a non-commuting square) raises ValidationError, both with a
location naming the offending spot.

`loads` keeps the objects of the last BUILD_CACHE_MAXSIZE documents it
parsed, keyed by their exact bytes and location, so a process that reads
one file for several commands parses and validates it once.  Failures are
not kept, and changed bytes are a new key that is parsed afresh.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache

from .complexes import MAX_DEGREE_SIZE, ChainComplex, ChainMap
from .errors import IllFormedMap, InputError, ParseError, ValidationError
from .exactalg import BUILD_CACHE_MAXSIZE, IntegerMatrix, Presentation
from .sections import CospanSection, Tag, TowerSection, parse_decimal


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError(where, "expected an object")
    if key not in doc:
        raise ParseError(where, f"missing key '{key}'")
    return doc[key]


def _count(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(where, "expected a non-negative count")
    return value


# A row of `-?[0-9]+` entries joined by single spaces.  An entry with a
# space inside still matches, but then `int` rejects it.
_DECIMAL_ROW = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


def matrix_from_doc(doc, rows: int, cols: int, where: str) -> IntegerMatrix:
    if not isinstance(doc, list):
        raise ParseError(where, "expected an array of rows")
    if len(doc) != rows:
        raise ParseError(where, f"expected {rows} rows, got {len(doc)}")
    flat = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}[{i}]", f"expected a row of {cols} entries")
        flat.extend(_row_entries(row, f"{where}[{i}]"))
    flat = tuple(flat)
    if rows == cols and flat == (identity := IntegerMatrix.identity(rows)).entries:
        return identity  # the shared identity, so products with it are skipped
    return IntegerMatrix(rows, cols, flat)


def _row_entries(row: list, where: str) -> list[int]:
    """The entries of one matrix row, each a decimal string.  One match
    checks the whole row; a row it rejects, or with an entry `int` refuses
    (a space inside, past the digit limit), is read entry by entry with
    `parse_decimal`, so the error names the entry."""
    try:
        if _DECIMAL_ROW.fullmatch(" ".join(row)):
            return list(map(int, row))
    except (TypeError, ValueError):  # an entry that is not a string, or not an int
        pass
    out = []
    for j, e in enumerate(row):
        try:
            out.append(parse_decimal(e, "matrix entry"))
        except InputError as err:
            raise ParseError(f"{where}[{j}]", str(err)) from None
    return out


def matrix_to_doc(m: IntegerMatrix) -> list:
    return [[str(e) for e in row] for row in m.to_rows()]


# ---------------------------------------------------------------------------
# complexes


def complex_from_doc(doc: dict, where: str = "complex") -> ChainComplex:
    min_deg = _need(doc, "min_degree", where)
    if not isinstance(min_deg, int) or isinstance(min_deg, bool):
        raise ParseError(f"{where}.min_degree", "expected an integer")
    degrees_doc = _need(doc, "degrees", where)
    if not isinstance(degrees_doc, list):
        raise ParseError(f"{where}.degrees", "expected an array")
    presentations = []
    for i, deg in enumerate(degrees_doc):
        spot = f"{where}.degrees[{i}]"
        gens = _count(_need(deg, "generators", spot), f"{spot}.generators")
        rel_doc = _need(deg, "relations", spot)
        if not isinstance(rel_doc, list):
            raise ParseError(f"{spot}.relations", "expected an array of rows")
        for key, size in (("generators", gens), ("relations", len(rel_doc))):
            if size > MAX_DEGREE_SIZE:
                raise ParseError(f"{spot}.{key}", f"{size} is over the bound of "
                                 f"{MAX_DEGREE_SIZE} per degree")
        # a document lists one relation per row; a Presentation holds columns
        rel = matrix_from_doc(rel_doc, len(rel_doc), gens, f"{spot}.relations")
        presentations.append(Presentation(gens, rel.transpose()))
    diffs_doc = _need(doc, "differentials", where)
    if not isinstance(diffs_doc, list) or len(diffs_doc) != max(0, len(presentations) - 1):
        raise ParseError(f"{where}.differentials",
                         "expected one matrix per adjacent degree pair")
    diffs = []
    for j, mdoc in enumerate(diffs_doc):
        diffs.append(matrix_from_doc(mdoc, presentations[j].generators,
                                     presentations[j + 1].generators,
                                     f"{where}.differentials[{j}]"))
    return ChainComplex(min_deg, tuple(presentations), tuple(diffs))


def complex_to_doc(x: ChainComplex, name: str, metadata: dict | None = None) -> dict:
    doc = {
        "name": name,
        "min_degree": x.min_deg,
        "degrees": [{"generators": p.generators,
                     "relations": matrix_to_doc(p.relations.transpose())}
                    for p in x.degrees],
        "differentials": [matrix_to_doc(d) for d in x.differentials],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


# ---------------------------------------------------------------------------
# chain maps (arrays of matrices over the source window)


def chain_map_from_doc(doc, source: ChainComplex, target: ChainComplex,
                       where: str) -> ChainMap:
    if not isinstance(doc, list) or len(doc) != len(source.degrees):
        raise ParseError(where, "expected one matrix per source degree")
    comps = []
    for j, mdoc in enumerate(doc):
        i = source.min_deg + j
        comps.append(matrix_from_doc(mdoc, target.pres_at(i).generators,
                                     source.pres_at(i).generators, f"{where}[{j}]"))
    try:
        return ChainMap(source, target, tuple(comps))
    except IllFormedMap as err:
        raise ValidationError(where, str(err)) from err


def chain_map_to_doc(f: ChainMap) -> list:
    return [matrix_to_doc(m) for m in f.components]


# ---------------------------------------------------------------------------
# towers and cospans


def tower_from_doc(doc: dict, where: str = "tower") -> TowerSection:
    levels_doc = _need(doc, "levels", where)
    if not isinstance(levels_doc, list) or not levels_doc:
        raise ParseError(f"{where}.levels", "expected a non-empty array of complexes")
    levels = [complex_from_doc(d, f"{where}.levels[{i}]") for i, d in enumerate(levels_doc)]
    maps_doc = _need(doc, "maps", where)
    if not isinstance(maps_doc, list) or len(maps_doc) != len(levels) - 1:
        raise ParseError(f"{where}.maps", "expected one map per adjacent level pair")
    maps = [chain_map_from_doc(d, levels[i + 1], levels[i], f"{where}.maps[{i}]")
            for i, d in enumerate(maps_doc)]
    return TowerSection(tuple(levels), tuple(maps))


def tower_to_doc(t: TowerSection) -> dict:
    return {
        "levels": [complex_to_doc(c, f"level_{i}") for i, c in enumerate(t.complexes)],
        "maps": [chain_map_to_doc(m) for m in t.structure_maps],
    }


def cospan_from_doc(doc: dict, where: str = "cospan") -> CospanSection:
    vertices = {}
    for key in ("x1", "x0", "x2"):
        vertices[key] = complex_from_doc(_need(doc, key, where), f"{where}.{key}")
    left = chain_map_from_doc(_need(doc, "left", where),
                              vertices["x1"], vertices["x0"], f"{where}.left")
    right = chain_map_from_doc(_need(doc, "right", where),
                               vertices["x2"], vertices["x0"], f"{where}.right")
    tags_doc = _need(doc, "tags", where)
    if not isinstance(tags_doc, list) or len(tags_doc) != 3:
        raise ParseError(f"{where}.tags", "expected three tag strings")
    tags = []
    for i, text in enumerate(tags_doc):
        try:
            tags.append(Tag.parse(text))
        except InputError as err:
            raise ParseError(f"{where}.tags[{i}]", str(err)) from None
    # legs and tags are checked above, so the constructor has nothing to reject
    return CospanSection(vertices["x1"], vertices["x0"], vertices["x2"],
                         left, right, tags=tuple(tags))


def cospan_to_doc(s: CospanSection) -> dict:
    return {
        "x1": complex_to_doc(s.x1, "x1"),
        "x0": complex_to_doc(s.x0, "x0"),
        "x2": complex_to_doc(s.x2, "x2"),
        "left": chain_map_to_doc(s.left),
        "right": chain_map_to_doc(s.right),
        "tags": [str(t) for t in s.tags],
    }


# ---------------------------------------------------------------------------
# files

KINDS = {"complex": ChainComplex, "tower": TowerSection, "cospan": CospanSection}


def object_from_doc(doc, where: str):
    if not isinstance(doc, dict):
        raise ParseError(where, "expected a JSON object")
    if "levels" in doc:
        return tower_from_doc(doc, where)
    if "x0" in doc:
        return cospan_from_doc(doc, where)
    if "degrees" in doc:
        return complex_from_doc(doc, where)
    raise ParseError(where, "unrecognized document shape "
                            "(need 'degrees', 'levels', or 'x0')")


def object_to_doc(obj, name: str) -> dict:
    if isinstance(obj, ChainComplex):
        return complex_to_doc(obj, name)
    if isinstance(obj, TowerSection):
        return tower_to_doc(obj)
    if isinstance(obj, CospanSection):
        return cospan_to_doc(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def read(path: str) -> bytes:
    """The bytes of the document at `path`; an unreadable file raises
    ParseError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise ParseError(str(path), str(err)) from err


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def loads(raw: bytes, where: str):
    """The object a document's bytes describe.  Bytes that are not UTF-8,
    are not JSON (a number past the interpreter's digit limit included), or
    nest too deeply for the JSON reader raise ParseError located at `where`.

    A memo keyed by the exact bytes and `where`: loading unchanged bytes
    again hands back the very same immutable object, so neither parsing nor
    the constructors' checks run twice.  A failure is not kept, so a broken
    document is parsed and rejected again on every call."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(where, f"not valid UTF-8: {err}") from err
    except ValueError as err:  # a JSONDecodeError, or an integer past the digit limit
        raise ParseError(where, f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise ParseError(where, "not valid JSON: arrays or objects nest too deeply") from err
    return object_from_doc(doc, where)


def load(path: str):
    return loads(read(path), str(path))


def save(obj, path: str, name: str | None = None) -> None:
    doc = object_to_doc(obj, name or "complex")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_text(doc))
