"""Document round-trips and rejection paths for the flat-file formats."""

import json
import time
from pathlib import Path

import pytest

from towercalc.complexes import direct_sum, homology_group, moore_complex, sphere_complex
from towercalc.errors import InputError, ParseError, ValidationError
from towercalc.exactalg import FpAbelianGroup
from towercalc.fracture import PrimePartition, fracture_cospan
from towercalc.gen import generate
from towercalc.sections import parse_decimal, postnikov_tower
from towercalc.serialize import (
    complex_from_doc,
    complex_to_doc,
    cospan_from_doc,
    cospan_to_doc,
    load,
    matrix_from_doc,
    save,
    tower_from_doc,
    tower_to_doc,
)
from towercalc.trunc import postnikov_section

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_bundled_sphere_loads():
    assert load(FIXTURES / "sphere_2.json") == sphere_complex(2)


def test_bundled_moore_loads_with_its_torsion():
    x = load(FIXTURES / "moore_6.json")
    assert homology_group(x, 0) == FpAbelianGroup.cyclic(6)


def test_nonsquaring_differential_is_rejected_with_its_degree():
    with pytest.raises(ValidationError) as exc:
        load(FIXTURES / "invalid_d2.json")
    assert exc.value.location == "degree 2"


def test_bundled_tower_and_cospan_load():
    tower = load(FIXTURES / "tower_moore6.json")
    assert tower.length == 2
    cospan = load(FIXTURES / "cospan_fracture_moore6.json")
    assert tuple(map(str, cospan.tags)) == ("local:2", "rational", "local:3")


def test_complex_file_round_trip(tmp_path):
    for seed in range(25):
        doc = generate(seed)
        x = complex_from_doc(doc)
        # the section's top degree carries the incoming boundaries as relations
        section, _ = postnikov_section(x, x.min_deg)
        for obj in (x, section):
            path = tmp_path / f"c{seed}.json"
            save(obj, path, name=doc["name"])
            assert load(path) == obj


def test_leading_zero_degrees_are_stripped_in_linear_time(tmp_path):
    """20,000 zero-generator degrees below one copy of Z are dropped in one
    slice; dropping them one at a time copies the tuples quadratically."""
    n = 20_000
    path = tmp_path / "padded.json"
    path.write_text(json.dumps({
        "name": "padded", "min_degree": 0, "differentials": [[]] * n,
        "degrees": [{"generators": 0, "relations": []}] * n + [{"generators": 1, "relations": []}]}))
    start = time.perf_counter()
    x = load(path)
    assert time.perf_counter() - start < 1.0
    assert x == sphere_complex(n) and x.min_deg == n


def test_relations_list_one_relation_per_row():
    # Z^2 / <2a + b, 2b> is Z/4 on a, and d sends the free generator to
    # a + 2b = -3a, a generator: H_0 = 0, H_1 = Z.  Read as columns, the
    # relations would kill a + 2b itself and give H_0 = Z/4.
    doc = {"name": "pinned", "min_degree": 0,
           "degrees": [{"generators": 2, "relations": [["2", "1"], ["0", "2"]]},
                       {"generators": 1, "relations": []}],
           "differentials": [[["1"], ["2"]]]}
    x = complex_from_doc(doc)
    assert homology_group(x, 0) == FpAbelianGroup.zero()
    assert homology_group(x, 1) == FpAbelianGroup.free(1)
    assert complex_to_doc(x, "pinned") == doc


def test_tower_document_round_trip():
    t = postnikov_tower(direct_sum(moore_complex(6, 0), sphere_complex(2)), 3)
    assert tower_from_doc(tower_to_doc(t)) == t


def test_cospan_document_round_trip():
    s = fracture_cospan(moore_complex(6, 0), PrimePartition({2}, {3}))
    assert cospan_from_doc(cospan_to_doc(s)) == s


def test_metadata_survives():
    doc = complex_to_doc(sphere_complex(1), "named", metadata={"origin": "test"})
    assert doc["metadata"] == {"origin": "test"}
    assert complex_from_doc(doc) == sphere_complex(1)


def test_not_json_is_a_parse_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("definitely { not json")
    with pytest.raises(ParseError):
        load(path)


def test_undecodable_and_too_deeply_nested_documents_are_parse_errors(tmp_path):
    digits = "7" * 5000  # a JSON integer past the interpreter's digit limit
    cases = {"latin1.json": (b'{"name": "caf\xe9"}', "not valid UTF-8"),
             "deep.json": (b"[" * 200000 + b"]" * 200000, "nest too deeply"),
             "min_degree.json": (f'{{"min_degree": {digits}, "degrees": [], '
                                 f'"differentials": []}}'.encode(), "not valid JSON"),
             "generators.json": (f'{{"min_degree": 0, "degrees": [{{"generators": '
                                 f'{digits}, "relations": []}}], '
                                 f'"differentials": []}}'.encode(), "not valid JSON")}
    for name, (raw, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert exc.value.location == str(path)
        assert message in str(exc.value)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load(tmp_path / "nope.json")


def test_unrecognized_shape_is_a_parse_error(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"something": 1}')
    with pytest.raises(ParseError) as exc:
        load(path)
    assert "unrecognized" in str(exc.value)


def test_entries_must_be_decimal_strings():
    with pytest.raises(ParseError):
        matrix_from_doc([[6]], 1, 1, "m")
    with pytest.raises(ParseError):
        matrix_from_doc([["six"]], 1, 1, "m")
    with pytest.raises(ParseError):
        matrix_from_doc([["6", "7"]], 1, 1, "m")
    with pytest.raises(ParseError):
        matrix_from_doc([["5\n"]], 1, 1, "m")


def test_matrix_locations_name_the_entry():
    with pytest.raises(ParseError) as exc:
        matrix_from_doc([["1", "x"]], 1, 2, "differentials[0]")
    assert exc.value.location == "differentials[0][0][1]"


def test_a_bad_entry_mid_row_is_named_as_parse_decimal_names_it():
    for bad in (" 3", "3 ", "1 2", "+3", "1_3", "\u0663", "", 5, "7" * 5000):
        with pytest.raises(InputError) as want:
            parse_decimal(bad, "matrix entry")
        with pytest.raises(ParseError) as exc:
            matrix_from_doc([["1", "-2", "3"], ["4", bad, "6"]], 2, 3, "m")
        assert exc.value.location == "m[1][1]"
        assert str(exc.value) == f"m[1][1]: {want.value}"
    assert matrix_from_doc([["1", "-2", "3"], ["0", "-0", "60"]], 2, 3, "m").entries == (
        1, -2, 3, 0, 0, 60)


def moore_doc(entry: str) -> dict:
    return {"name": "moore", "min_degree": 0,
            "degrees": [{"generators": 1, "relations": []},
                        {"generators": 1, "relations": []}],
            "differentials": [[[entry]]]}


def test_oversized_entries_are_located_parse_errors(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(moore_doc("7" * 5000)))
    with pytest.raises(ParseError) as exc:
        load(path)
    assert exc.value.location == f"{path}.differentials[0][0][0]"
    assert "5000 digits" in str(exc.value)


def test_missing_keys_are_parse_errors():
    with pytest.raises(ParseError) as exc:
        complex_from_doc({"min_degree": 0, "degrees": []}, "doc")
    assert "differentials" in str(exc.value)


def test_differential_count_must_match():
    doc = {
        "name": "bad",
        "min_degree": 0,
        "degrees": [{"generators": 1, "relations": []},
                    {"generators": 1, "relations": []}],
        "differentials": [],
    }
    with pytest.raises(ParseError):
        complex_from_doc(doc, "doc")
