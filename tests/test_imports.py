"""Every name a library module imports is used there or re-exported, every
library function and method is used somewhere, only `complexes` and
`exactalg` reach the trusted build path, only `sections` spells
localization-tag text, only `sections` and `serialize` decide a
section's shape, only `complexes` decides which degrees a walk visits, and
only `complexes` lays out a complex, bar `serialize` and `gen`, where
documents and generated instances enter.

A stdlib `ast` scan: an imported name counts as used when the module reads
it anywhere (annotations included) or lists it in `__all__`.
"""

import ast
from itertools import chain
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "towercalc"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def unreferenced_definitions() -> list[str]:
    """Every method of a library class that is never read as an attribute,
    and every module-level library function that is never named, anywhere
    in `src/`, `tests/` or `bench/`.  Dunders are exempt, and so is
    `Record._unsupported`, which the class aliases and then deletes."""
    functions, methods = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                methods += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
    names, attributes = set(), set()
    for path in chain.from_iterable((ROOT / d).rglob("*.py") for d in ("src", "tests", "bench")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = [where for where, name in functions if name not in names | attributes]
    unused += [where for where, name in methods if name not in attributes]
    return sorted(set(unused) - {"exactalg.Record._unsupported"})


def test_every_function_and_method_is_used():
    assert unreferenced_definitions() == []


def trusted_references(path: Path) -> list[str]:
    """Every name or attribute in the module that reaches the trusted build
    path: `Trusted` itself or its `_trusted` constructor."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_trusted", "Trusted"):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ("_trusted", "Trusted"):
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name in ("_trusted", "Trusted")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_complexes_and_exactalg_build_unchecked(path):
    """Trusted builds are named builders of `complexes` and `exactalg`, and
    the "Validation" paragraph of `complexes` argues why each is sound;
    every other module, the input boundaries `serialize`, `cli` and `gen`
    among them, builds with those builders or runs every check."""
    assert trusted_references(SRC / "complexes.py")  # the scan sees a trusted build
    if path.name not in ("complexes.py", "exactalg.py"):
        assert trusted_references(path) == []


def tag_spellings(path: Path) -> list[str]:
    """Every string constant in the module that spells tag text: `rational`
    or anything beginning `local:` or `ptype:` (f-string pieces included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value == "rational" or node.value.startswith(("local:", "ptype:")))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_sections_spells_tag_text(path):
    """`sections.Tag` is the one reader and writer of the tag grammar; every
    other module works with parsed tags."""
    assert tag_spellings(SRC / "sections.py")  # the scan sees the grammar
    if path.name != "sections.py":
        assert tag_spellings(path) == []


def shape_branches(path: Path) -> list[str]:
    """Every `isinstance` call in the module that names `TowerSection` or
    `CospanSection` anywhere in its arguments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(isinstance(n, ast.Name) and n.id in ("TowerSection", "CospanSection")
                    for arg in node.args for n in ast.walk(arg))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_sections_and_serialize_test_section_shapes(path):
    """Towers and cospans are one `Section` type walked edge by edge; a
    branch on which shape it holds belongs in `sections`, or in `serialize`,
    which writes each shape's own document format."""
    assert shape_branches(SRC / "serialize.py")  # the scan sees a shape branch
    if path.name not in ("sections.py", "serialize.py"):
        assert shape_branches(path) == []


def degree_ranges(path: Path) -> list[str]:
    """Every hand-made degree range in the module: a `.window` read, a
    `min`/`max` call over the `min_deg` or `top_deg` of two different
    operands, and a `|` of `set(... .span())` calls."""
    def bounds_read(call):
        return {ast.unparse(n.value) for arg in call.args for n in ast.walk(arg)
                if isinstance(n, ast.Attribute) and n.attr in ("min_deg", "top_deg")}

    def span_set(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "set" and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "span")

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "window":
            found.append(f"line {node.lineno}: .window")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max") and len(bounds_read(node)) > 1):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
              and (span_set(node.left) or span_set(node.right))):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_complexes_decides_which_degrees_a_walk_visits(path):
    """`complexes.support` is the one rule for the degrees of a walk over
    several complexes: the degrees where some of them is nonzero, so a walk
    never crosses the zero degrees between far-apart windows.  Constructions
    in `complexes` that lay out one contiguous window keep their own bounds."""
    assert degree_ranges(SRC / "complexes.py")  # the scan sees a hand-made range
    if path.name != "complexes.py":
        assert degree_ranges(path) == []


# where a complex's stored window may be read or built outside `complexes`:
# documents and generated instances enter in `serialize` and `gen`
LAYOUT_MODULES = ("complexes.py", "serialize.py", "gen.py")


def layouts(path: Path) -> list[str]:
    """Every read of a complex's stored window (`.degrees` or
    `.differentials`) and every `ChainComplex(...)` or
    `ChainComplex._trusted(...)` call in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("degrees", "differentials"):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "ChainComplex", "ChainComplex._trusted"):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}(...)")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_complexes_lays_out_a_complex(path):
    """The stored window is `complexes`' own format: every other module
    builds complexes with its builders and reads them through `pres_at` and
    `diff_at`, so a change of storage stays inside `complexes`."""
    assert layouts(SRC / "complexes.py")  # the scan sees a layout
    if path.name not in LAYOUT_MODULES:
        assert layouts(path) == []
