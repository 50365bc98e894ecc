"""Self-check of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/test_harness.py
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import towercalc  # noqa: E402
from towercalc import complexes, errors, exactalg, sections, serialize  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("seed", range(6))
def test_generated_documents_match_the_library(seed):
    rng = random.Random(seed)
    c = inputs.wide_complex(rng)
    x = serialize.complex_from_doc(inputs.complex_doc(c, "wide"))
    assert x == worker.build_complex(c)
    groups = {d: str(g) for d, g in complexes.homology(x).entries}
    assert groups == oracle.degree_groups(c["profile"])
    tower = serialize.tower_from_doc(inputs.tower_doc(c))
    assert tower == sections.postnikov_tower(x, max(x.top_deg, 0))


@pytest.mark.parametrize("make", [inputs.broken_tower,
                                  lambda rng: inputs.complex_doc(inputs.broken_d2(rng), "bad")])
def test_broken_documents_are_rejected(make):
    with pytest.raises(errors.ValidationError):
        serialize.object_from_doc(make(random.Random(5)), "doc")


def test_oracle_answers():
    assert oracle.invariant_chain([2, 4, 3]) == (2, 12)
    assert oracle.group_str(2, (2, 6)) == "Z^2 + Z/2 + Z/6"
    assert oracle.dense_invariants([[2, 4], [6, 8]]) == (2, 4)
    assert oracle.bareiss_det([[0, 1], [1, 0]]) == -1
    rung = inputs.with_rhs(random.Random(1), inputs.scrambled_rung(random.Random(2), 5))
    out = worker.ladder_rung(rung)
    summary, problems = worker.ladder_summary(rung, out)
    assert problems == []
    assert oracle.check_matrix_answers(5, summary, run.expected_invariants(rung)) == []
    wrong = dict(summary, d=[1] * 5)
    assert oracle.check_matrix_answers(5, wrong, (1, 1, 1, 1, 2)) != []


def test_tracer_rebinds_every_namespace_and_restores():
    original = exactalg.solve_matrix
    holders = [m for name, m in sys.modules.items()
               if name.startswith("towercalc") and getattr(m, "solve_matrix", None) is original]
    assert complexes in holders
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.solve_matrix is not original for m in holders)
        complexes.homology(complexes.moore_complex(6))
        towercalc.homology(complexes.moore_complex(10))
    finally:
        tracer.uninstall()
    assert all(m.solve_matrix is original for m in holders)
    assert complexes.ChainComplex.__init__.__name__ == "__init__"
    layers = tracer.aggregate()
    assert layers["complexes.homology"][0] == 2
    assert layers["exactalg.solve_matrix"][0] > 0
    assert layers["complexes.ChainComplex.init"][0] >= 2
    assert all(self_s >= 0 for _, self_s in layers.values())


@pytest.mark.parametrize("workload", ["certify_batch", "cli_documents"])
def test_batch_workloads_on_a_few_operations(workload):
    plain = run.batch_run(workload, 3, 5, 0, max_ops=4)
    assert len(plain["ops"]) == 4 and not any(op["problems"] for op in plain["ops"])
    metrics = run.end_to_end(plain, [plain["setup"]])
    assert [m for m in metrics] == [name for name, _ in run.END_TO_END]
    assert metrics["correct_frac"]["value"] == 1.0
    traced = run.batch_run(workload, 3, 5, 1, max_ops=4)
    layers = run.per_layer(traced["trace"], traced["caches"], 1.0)
    assert [m for m in layers] == [name for name, _ in run.PER_LAYER]
    assert layers["exactalg.smith_normal_form.calls"]["value"] > 0


def test_ladder_decides_small_rungs_and_replaces_a_timed_out_worker():
    rng = random.Random(4)
    rungs = [inputs.with_rhs(rng, inputs.dense_rung(rng, 4)),
             inputs.with_rhs(rng, inputs.scrambled_rung(rng, 6)),
             inputs.torsion_rung(rng, 3),
             inputs.with_rhs(rng, inputs.dense_rung(rng, 32)),
             inputs.with_rhs(rng, inputs.dense_rung(rng, 4))]
    result = run.ladder_run(4, 1, 0, replay=rungs)
    ops = result["ops"]
    assert [op["timeout"] for op in ops] == [False, False, False, True, False]
    assert not any(op["problems"] for op in ops)
    assert result["workers"] == 2
    assert run.ladder_max_n(ops) == 6


def test_ladder_throughput_leaves_out_timeouts_and_single_slow_rungs():
    ops = [{"seconds": s, "timeout": False, "error": False, "rung": "dense:4"}
           for s in (0.001, 0.001, 0.010)]
    ops.append({"seconds": 1.0, "timeout": True, "error": False, "rung": "dense:32"})
    assert run.timing(ops)["throughput_ops_s"] == pytest.approx(1000)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
