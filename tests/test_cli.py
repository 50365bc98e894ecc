"""End-to-end command-line behavior: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from towercalc import cli, serialize
from towercalc.cli import main
from towercalc.complexes import ChainMap, direct_sum, moore_complex, sphere_complex, zero_complex
from towercalc.complexes import direct_sum_map
from towercalc.errors import IllFormedMap
from towercalc.exactalg import PRIME_CERTIFY_BOUND
from towercalc.fracture import PrimePartition, fracture_cospan
from towercalc.sections import MAX_TOWER_LENGTH, CospanSection
from towercalc.serialize import MAX_DEGREE_SIZE, load, save

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MOORE = str(FIXTURES / "moore_6.json")
SPHERE = str(FIXTURES / "sphere_2.json")
TOWER = str(FIXTURES / "tower_moore6.json")
COSPAN = str(FIXTURES / "cospan_fracture_moore6.json")
SEED24 = str(FIXTURES / "generated_seed24.json")  # H_-2 = Z, H_-1 = Z + Z/12


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# happy paths


def test_homology_lists_the_torsion(capsys):
    code, out = run(capsys, "homology", MOORE)
    assert code == 0
    assert "degree=0 value=Z/6" in out


def test_fracture_reassembles_through_the_partition(capsys):
    code, out = run(capsys, "fracture", MOORE, "--primes-j", "2", "--primes-k", "3")
    assert code == 0
    assert "reassembly expected=Z/6 value=Z/6" in out


def test_seeded_hypercomplete_batch_all_pass(capsys):
    code, out = run(capsys, "hypercomplete", "--seed", "7", "--count", "50",
                    "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    instances = doc["checks"][0]["children"]
    assert len(instances) == 50
    assert all(inst["passed"] for inst in instances)


def test_tower_and_milnor_on_the_bundled_tower(capsys):
    assert run(capsys, "tower", TOWER)[0] == 0
    assert run(capsys, "milnor", TOWER)[0] == 0


def test_section_checks_pass_on_the_bundled_documents(capsys, tmp_path):
    assert run(capsys, "section", "check-tower", TOWER)[0] == 0
    assert run(capsys, "section", "check-cospan", COSPAN)[0] == 0
    # identity legs compared through a huge truncation level finish at once
    x = load(MOORE)
    i = ChainMap.identity(x)
    path = tmp_path / "huge_ptype.json"
    save(CospanSection(x, x, x, i, i, ("plain", f"ptype:{10**18}", "plain")), path)
    assert run(capsys, "section", "check-cospan", str(path))[0] == 0


def test_truncate_cover_layer_uct_homcx_hofib(capsys):
    assert run(capsys, "truncate", MOORE, "--n", "0")[0] == 0
    assert run(capsys, "truncate", MOORE, "--n", str(10**18))[0] == 0
    assert run(capsys, "cover", MOORE, "--k", "0")[0] == 0
    assert run(capsys, "layer", MOORE, "--k", "-1")[0] == 0
    assert run(capsys, "uct", MOORE, MOORE, "--n", "1")[0] == 0
    assert run(capsys, "homcx", SPHERE, MOORE)[0] == 0
    assert run(capsys, "hofib", SPHERE, "--k", "1")[0] == 0


# ---------------------------------------------------------------------------
# exit codes


def test_certified_failure_exits_one(capsys, tmp_path):
    x = direct_sum(moore_complex(2, 0), sphere_complex(0))
    good = fracture_cospan(x, PrimePartition({2}, {3}))
    leg = direct_sum_map(ChainMap.identity(sphere_complex(0)),
                         ChainMap.zero_map(moore_complex(3, 0), zero_complex()))
    bad = CospanSection(leg.source, good.x0, good.x2, leg, good.right, tags=good.tags)
    path = tmp_path / "bad_cospan.json"
    save(bad, path)
    code, out = run(capsys, "section", "check-cospan", str(path))
    assert code == 1
    assert "verdict: fail" in out
    assert "[FAIL] local_model" in out


def test_unusable_inputs_exit_two(capsys):
    assert main(["homology", str(FIXTURES / "absent.json")]) == 2
    assert main(["homology", str(FIXTURES / "invalid_d2.json")]) == 2
    # prime lists take the document spelling of integers and nothing else
    for primes_k in ("abc", "+3", "3,1_3"):
        assert main(["fracture", MOORE, "--primes-j", "2", "--primes-k", primes_k]) == 2
        assert "--primes-k entry must be a decimal string" in capsys.readouterr().err
    # partition does not cover the torsion of Moore(6)
    assert main(["fracture", MOORE, "--primes-j", "2", "--primes-k", "5"]) == 2
    # tower command fed a plain complex
    assert main(["tower", MOORE]) == 2
    capsys.readouterr()


def test_undecodable_and_too_deeply_nested_documents_exit_two(capsys, tmp_path):
    for name, raw in (("latin1.json", b'{"name": "caf\xe9"}'),
                      ("deep.json", b"[" * 200000 + b"]" * 200000),
                      ("digits.json", b'{"min_degree": ' + b"7" * 5000 +
                       b', "degrees": [], "differentials": []}')):
        path = tmp_path / name
        path.write_bytes(raw)
        assert main(["homology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid ")
        assert "internal error" not in err


def test_each_input_is_read_once_and_digested_as_parsed(capsys, monkeypatch):
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr("builtins.open", counting_open)
        code, out = run(capsys, "homcx", SPHERE, MOORE, "--format", "machine")
    assert code == 0
    assert sorted(p for p in opened if p in (SPHERE, MOORE)) == sorted([SPHERE, MOORE])
    assert json.loads(out)["inputs"] == {
        Path(p).name: "sha256:" + hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in (SPHERE, MOORE)}


def test_unchanged_bytes_are_parsed_once_per_process(capsys, monkeypatch, tmp_path):
    parsed = []
    real = serialize.object_from_doc

    def counting(doc, where):
        parsed.append(where)
        return real(doc, where)

    monkeypatch.setattr(serialize, "object_from_doc", counting)
    path = tmp_path / "doc.json"
    path.write_bytes(Path(MOORE).read_bytes())
    first = run(capsys, "homology", str(path), "--format", "machine")
    assert run(capsys, "homology", str(path), "--format", "machine") == first
    assert first[0] == 0 and parsed == [str(path)]
    # new bytes at the same path are a new document
    path.write_bytes(Path(SPHERE).read_bytes())
    code, out = run(capsys, "homology", str(path), "--format", "machine")
    assert code == 0 and parsed == [str(path)] * 2
    assert json.loads(out)["checks"] == json.loads(
        run(capsys, "homology", SPHERE, "--format", "machine")[1])["checks"]


def test_rejected_documents_are_rejected_on_every_call(capsys):
    messages = []
    for argv in (["homology", str(FIXTURES / "invalid_d2.json")], ["homology", TOWER]):
        for _ in range(2):
            assert main(argv) == 2
            messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1] and messages[2] == messages[3]
    assert "expected a complex document" in messages[3]


def write_moore(tmp_path, entry: str) -> str:
    path = tmp_path / "moore.json"
    path.write_text(json.dumps({
        "name": "moore", "min_degree": 0,
        "degrees": [{"generators": 1, "relations": []},
                    {"generators": 1, "relations": []}],
        "differentials": [[[entry]]]}))
    return str(path)


def test_oversized_entry_exits_two_naming_its_path(capsys, tmp_path):
    path = write_moore(tmp_path, "7" * 5000)
    assert main(["homology", path]) == 2
    assert f"{path}.differentials[0][0][0]" in capsys.readouterr().err


def test_oversized_prime_flag_exits_two_naming_the_digit_limit(capsys):
    assert main(["fracture", MOORE, "--primes-j", "7" * 5000, "--primes-k", "3"]) == 2
    err = capsys.readouterr().err
    assert "--primes-j entry has 5000 digits" in err
    assert f"limit of {sys.get_int_max_str_digits()}" in err


def test_homology_of_a_4000_digit_moore_document_is_fast(capsys, tmp_path):
    entry = "1" + "0" * 3998 + "7"
    path = write_moore(tmp_path, entry)
    started = time.perf_counter()
    code, out = run(capsys, "homology", path)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert f"value=Z/{entry}" in out


def test_an_invariant_factor_past_the_digit_limit_renders_in_hex(capsys, tmp_path):
    # relations (9...9, 1), (1, 7...7) with 4,000-digit entries present
    # Z/(9...9 * 7...7 - 1), whose order has about 8,000 digits
    huge = str(FIXTURES / "huge_invariant.json")
    order = hex(int("9" * 4000) * int("7" * 4000) - 1)
    code, out = run(capsys, "homology", huge)
    assert code == 0
    assert f"degree=0 value=Z/{order}" in out
    code, out = run(capsys, "truncate", huge, "--n", "0", "--format", "machine")
    assert code == 0
    assert f"Z/{order}" in out
    assert main(["fracture", huge, "--primes-j", "2", "--primes-k", "3"]) == 2
    err = capsys.readouterr().err
    assert "partition leaves torsion factors [0x" in err
    assert "internal error" not in err
    # degrees one digit past the limit, in a witness and in a message
    edge = 10 ** 4300 - 1
    code, out = run(capsys, "layer", MOORE, "--k", str(edge))
    assert code == 0
    assert f"concentrated degree={hex(edge + 1)}" in out
    source, target = tmp_path / "source.json", tmp_path / "target.json"
    save(sphere_complex(-edge), source)
    save(sphere_complex(edge), target)
    code, out = run(capsys, "homcx", str(source), str(target), "--format", "machine")
    assert code == 0
    assert f'"degree":"{hex(2 * edge)}"' in out
    save(sphere_complex(-edge, 33), source)
    save(sphere_complex(edge, 32), target)
    assert main(["homcx", str(source), str(target)]) == 2
    err = capsys.readouterr().err
    assert f"mapping complex degree {hex(2 * edge)} has 1056 generators" in err
    assert "internal error" not in err


# checked builds would walk every degree from the zero complex's 0 up to the
# document's, so the chain maps here are built as the library builds them
@pytest.mark.trusted_builds
def test_a_homology_profile_past_the_digit_limit_renders_in_hex(capsys, tmp_path):
    edge = 10 ** 4300 - 1
    path = tmp_path / "far.json"
    save(direct_sum(moore_complex(6, edge), sphere_complex(edge + 2)), path)
    code, out = run(capsys, "hofib", str(path), "--k", str(edge), "--format", "machine")
    assert code == 0
    assert f'"value":"H_{hex(edge + 2)} = Z"' in out


def test_a_degree_past_the_digit_limit_in_a_broken_document_renders_in_hex(capsys, tmp_path):
    # invalid_d2.json moved up: d composed with d is nonzero at min_degree + 2,
    # one digit past the int-to-str limit
    edge = 10 ** 4300 - 1
    doc = json.loads((FIXTURES / "invalid_d2.json").read_text())
    doc["min_degree"] = edge
    path = tmp_path / "huge_degree.json"
    path.write_text(serialize.document_text(doc))
    assert main(["homology", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"degree {hex(edge + 2)}: d composed with d is nonzero" in err
    assert "internal error" not in err


def test_primes_past_the_certified_bound_exit_two(capsys, tmp_path):
    too_big = str(PRIME_CERTIFY_BOUND + 2)
    assert main(["fracture", MOORE, "--primes-j", "2,3", "--primes-k", too_big]) == 2
    assert str(PRIME_CERTIFY_BOUND) in capsys.readouterr().err
    doc = json.loads(Path(COSPAN).read_text())
    doc["tags"][2] = f"local:3,{too_big}"
    cospan = tmp_path / "cospan.json"
    cospan.write_text(json.dumps(doc))
    assert main(["section", "check-cospan", str(cospan)]) == 2
    assert str(PRIME_CERTIFY_BOUND) in capsys.readouterr().err


def test_tower_past_the_length_bound_exits_two_at_once(capsys, tmp_path):
    """`hypercomplete` builds its tower from level 0 to one past the top
    degree, so a complex shifted far up is refused, not built level by level."""
    path = tmp_path / "shifted.json"
    save(moore_complex(6, 10**18), path)
    start = time.perf_counter()
    assert main(["hypercomplete", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"over the bound of {MAX_TOWER_LENGTH} structure maps" in err
    assert "internal error" not in err
    save(moore_complex(6, 40), path)  # in bound: a full report as before
    assert main(["hypercomplete", str(path)]) == 0


def test_a_degree_past_the_size_bound_exits_two_at_once(capsys, tmp_path):
    """One line of JSON can ask for a free degree of 10^9 generators; it is
    refused when parsed, before any matrix of that size is built."""
    for n in (10**6, 10**9):
        path = tmp_path / f"free_{n}.json"
        path.write_text(json.dumps({"name": "wide", "min_degree": 0, "differentials": [],
                                    "degrees": [{"generators": n, "relations": []}]}))
        for argv in (["homology", str(path)], ["hypercomplete", str(path)],
                     ["fracture", str(path), "--primes-j", "2", "--primes-k", "3"]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert f"degrees[0].generators: {n} is over the bound of {MAX_DEGREE_SIZE}" in err
    rows = [["0"]] * (MAX_DEGREE_SIZE + 1)
    path.write_text(json.dumps({"name": "tall", "min_degree": 0, "differentials": [],
                                "degrees": [{"generators": 1, "relations": rows}]}))
    assert main(["homology", str(path)]) == 2
    assert f"relations: {MAX_DEGREE_SIZE + 1} is over the bound" in capsys.readouterr().err


def test_a_mapping_complex_past_the_size_bound_exits_two_at_once(capsys, tmp_path):
    """Degree k of hom(M, N) has sum_i g_M(i) g_N(i+k) generators, so two
    documents well inside the per-degree bound can ask for a mapping complex
    far past it; `homcx` and `uct` refuse it before any matrix is built."""
    wide, at_bound = tmp_path / "free_96.json", tmp_path / "free_32.json"
    save(sphere_complex(0, 96), wide)
    save(sphere_complex(0, 32), at_bound)  # 32 * 32 = 1024 hom generators
    for command, *flags in (["homcx"], ["uct", "--n", "0"]):
        start = time.perf_counter()
        assert main([command, str(wide), str(wide), *flags]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert (f"mapping complex degree 0 has {96 * 96} generators, "
                f"over the bound of {MAX_DEGREE_SIZE}") in err
        assert main([command, str(at_bound), str(at_bound), *flags]) == 0
        capsys.readouterr()


FAR = 10**12


def far_documents(tmp_path) -> dict[str, str]:
    """Documents whose nonzero degrees sit 10^12 away from degree 0 or from
    each other: Z --2--> Z at +-10^12, two towers of a complex at 10^12 over
    the zero complex or over Z at -10^12, and cospans with legs from +-10^12
    into Z at 0 under a `ptype:0` middle tag and under local/rational tags."""
    def free(n):
        return {"name": "z", "min_degree": n, "differentials": [],
                "degrees": [{"generators": 1, "relations": []}]}
    moore = {"name": "m", "min_degree": FAR, "differentials": [[["2"]]],
             "degrees": [{"generators": 1, "relations": []}] * 2}
    zero = {"name": "zero", "min_degree": 0, "degrees": [], "differentials": []}
    legs = {"x1": free(FAR), "x0": free(0), "x2": free(-FAR), "left": [[]], "right": [[]]}
    docs = {"far": moore, "negative": {**moore, "min_degree": -FAR},
            "tower": {"levels": [zero, free(FAR)], "maps": [[[]]]},
            "tower_far": {"levels": [free(-FAR), free(FAR)], "maps": [[[]]]},
            "cospan_ptype": {**legs, "tags": ["plain", "ptype:0", "plain"]},
            "cospan_local": {**legs, "tags": ["local:2", "rational", "local:3"]}}
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def test_far_degree_documents_answer_at_once(capsys, tmp_path):
    """Every walk over degrees visits only the degrees where some complex is
    nonzero, so no command walks the 10^12 zero degrees between a document's
    complexes and degree 0 (or each other)."""
    d = far_documents(tmp_path)
    probes = [
        ["homology", d["far"]],
        ["truncate", d["far"], "--n", str(FAR - 1)],
        ["truncate", d["far"], "--n", str(FAR)],
        ["cover", d["far"], "--k", "0"],
        ["cover", d["far"], "--k", str(FAR)],
        ["layer", d["far"], "--k", str(FAR - 1)],
        ["homcx", d["far"], d["negative"]],
        ["uct", d["far"], d["negative"], "--n", "0"],
        ["hypercomplete", d["far"]],
        ["hypercomplete", d["negative"]],
        ["fracture", d["far"], "--primes-j", "2", "--primes-k", "3"],
        ["hofib", d["far"], "--k", str(FAR)],
        ["hofib", d["negative"], "--k", "0"],
        ["tower", d["tower"]],
        ["tower", d["tower_far"]],
        ["milnor", d["tower"]],
        ["section", "check-tower", d["tower"]],
        ["section", "check-cospan", d["cospan_ptype"]],
        ["section", "check-cospan", d["cospan_local"]],
    ]
    for argv in probes:
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code in (0, 1, 2), (argv, capsys.readouterr().err)
        capsys.readouterr()


def test_verdict_and_exit_code_agree(capsys):
    for argv in (["homology", MOORE],
                 ["milnor", TOWER],
                 ["fracture", MOORE, "--primes-j", "2", "--primes-k", "3"]):
        code, out = run(capsys, *argv)
        assert (code == 0) == ("verdict: pass" in out)


# ---------------------------------------------------------------------------
# determinism and golden reports


def test_machine_reports_are_byte_identical_across_runs(capsys):
    _, first = run(capsys, "milnor", "--seed", "3", "--count", "5",
                   "--format", "machine")
    _, second = run(capsys, "milnor", "--seed", "3", "--count", "5",
                    "--format", "machine")
    assert first == second


def test_machine_reports_are_canonical_json_without_timing(capsys):
    _, out = run(capsys, "homology", MOORE, "--format", "machine")
    assert "elapsed" not in out
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_report_flag_writes_the_machine_document(capsys, tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    rendered = []
    machine_text = cli.RunReport.machine_text
    with monkeypatch.context() as m:
        m.setattr(cli.RunReport, "machine_text",
                  lambda self: rendered.append(self) or machine_text(self))
        _, out = run(capsys, "homology", MOORE, "--format", "machine",
                     "--report", str(path))
    assert path.read_text() == out
    assert len(rendered) == 1  # one rendering serves stdout and the file
    written = path.read_bytes()
    # the parser is shared across calls: a failed parse and a later call
    # without flags must not see this call's --format or --report
    with pytest.raises(SystemExit) as exc:
        main(["truncate", MOORE])
    assert exc.value.code == 2
    code, out = run(capsys, "homology", MOORE)
    assert code == 0
    assert out.startswith("command: homology\n")
    assert path.read_bytes() == written


def test_a_second_call_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["homology", MOORE]) == 0
    first = len(built)
    assert first > 0
    assert main(["homology", MOORE]) == 0
    assert len(built) == first


GOLDEN = [
    (["homology", MOORE], "homology_moore6.report.json"),
    (["fracture", MOORE, "--primes-j", "2", "--primes-k", "3"],
     "fracture_moore6.report.json"),
    (["milnor", TOWER], "milnor_tower_moore6.report.json"),
    (["section", "check-cospan", COSPAN], "section_cospan_moore6.report.json"),
    (["truncate", MOORE, "--n", "0"], "truncate_moore6.report.json"),
    (["cover", MOORE, "--k", "0"], "cover_moore6.report.json"),
    (["layer", MOORE, "--k", "-1"], "layer_moore6.report.json"),
    (["homcx", SPHERE, MOORE], "homcx_sphere2_moore6.report.json"),
    (["uct", MOORE, MOORE, "--n", "1"], "uct_moore6.report.json"),
    (["tower", TOWER], "tower_moore6.report.json"),
    (["hofib", MOORE, "--k", "0"], "hofib_moore6.report.json"),
    (["section", "check-tower", TOWER], "section_tower_moore6.report.json"),
    (["hypercomplete", "--seed", "0", "--count", "3"], "hypercomplete_seed0.report.json"),
    (["fracture", SEED24, "--primes-j", "2", "--primes-k", "3"],
     "fracture_seed24.report.json"),
]


def test_golden_reports_are_reproduced(capsys, tmp_path):
    for argv, name in GOLDEN:
        fresh = tmp_path / name
        assert main(argv + ["--report", str(fresh)]) == 0
        capsys.readouterr()
        assert fresh.read_bytes() == (FIXTURES / "golden" / name).read_bytes()


def test_golden_generated_document_is_reproduced(capsys):
    code, out = run(capsys, "generate", "--seed", "0")
    assert code == 0
    assert out == (FIXTURES / "golden" / "generated_seed0.json").read_text()


def test_generate_machine_format_is_canonical(capsys):
    _, out = run(capsys, "generate", "--seed", "4", "--format", "machine")
    doc = json.loads(out)
    assert doc["name"] == "generated_4"
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_internal_errors_exit_three(capsys, monkeypatch):
    def broken(args):
        raise ValueError("shape mismatch 2x3 @ 2x3")

    def ill_formed(args):  # no document or flag reaches it: a defect, not bad input
        raise IllFormedMap("matrix shape 2x3 does not match 3x2")

    for handler, raised in ((broken, "ValueError: shape mismatch 2x3 @ 2x3"),
                            (ill_formed, "IllFormedMap: matrix shape 2x3 does not match 3x2")):
        monkeypatch.setitem(cli._HANDLERS, "homology", handler)
        assert main(["homology", MOORE]) == 3
        err = capsys.readouterr().err
        assert raised in err
        assert "internal error" in err


def test_typed_input_errors_exit_two(capsys, tmp_path):
    # a non-prime, an overlapping partition, a negative batch count, a broken document
    assert main(["fracture", MOORE, "--primes-j", "4", "--primes-k", "3"]) == 2
    assert main(["fracture", MOORE, "--primes-j", "2,3", "--primes-k", "3"]) == 2
    assert main(["hypercomplete", "--count", "-3"]) == 2
    assert main(["milnor", "--count", "-3"]) == 2
    doc = json.loads(Path(MOORE).read_text())
    doc["differentials"][0][0][0] = "x"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["homology", str(broken)]) == 2
    assert main(["homology", str(FIXTURES / "invalid_d2.json")]) == 2
    # a report path in a missing directory, and a directory as the report path
    missing, directory = tmp_path / "missing" / "r.json", tmp_path
    assert main(["homology", MOORE, "--report", str(missing)]) == 2
    assert main(["homology", MOORE, "--report", str(directory)]) == 2
    err = capsys.readouterr().err
    assert f"--report {missing}" in err and f"--report {directory}" in err
    assert "internal error" not in err


def test_malformed_ptype_tags_exit_two_at_their_path(capsys, tmp_path):
    doc = json.loads(Path(COSPAN).read_text())
    path = tmp_path / "cospan.json"
    cases = [(1, f"ptype:{level}") for level in ("x", "", "1.5", "7" * 5000)]
    cases += [(i, tag) for i in (0, 2)
              for tag in ("local:4", "local:x", "local:", "local:1_3", "local:+3", "bogus")]
    for index, tag in cases:
        doc["tags"] = ["local:2", "rational", "local:3"]
        doc["tags"][index] = tag
        path.write_text(json.dumps(doc))
        assert main(["section", "check-cospan", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}.tags[{index}]" in err
        assert "internal error" not in err
