"""One workload inside a fresh interpreter.

run.py starts this file as a child process, so towercalc's module-level
caches start empty, as they do for a user's process.  Messages to run.py
are JSON lines prefixed with ``@@bench``.

certify_batch and cli_documents: set up, report ready, run operations one
at a time until ``--seconds`` have passed (or exactly ``--max-ops``), then
report per-operation latencies, verdict checks and cache state.

lattice_ladder: read rungs from stdin, one JSON line each, and answer each
in turn.  A rung over ``inputs.RUNG_LIMIT`` seconds is interrupted, reported
as a timeout, and the worker exits so that run.py replaces it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from speed import Scaler  # noqa: E402
from tracer import Tracer  # noqa: E402

import towercalc  # noqa: E402,F401
from towercalc import cli, complexes, exactalg, fracture, hofib, holim, sections, trunc  # noqa: E402

OUT = sys.stdout
WALL_FACTOR = 2.5   # a run stops after this many times --seconds of wall time
FIXTURES = ROOT / "fixtures"
WORK = HERE / ".work"

# (argv with fixture names, golden report or None, expected exit code)
FIXTURE_OPS = (
    (["homology", "moore_6.json"], "homology_moore6.report.json", 0),
    (["fracture", "moore_6.json", "--primes-j", "2", "--primes-k", "3"],
     "fracture_moore6.report.json", 0),
    (["milnor", "tower_moore6.json"], "milnor_tower_moore6.report.json", 0),
    (["section", "check-cospan", "cospan_fracture_moore6.json"],
     "section_cospan_moore6.report.json", 0),
    (["homology", "invalid_d2.json"], None, 2),
)


def emit(obj):
    OUT.write("@@bench " + json.dumps(obj) + "\n")
    OUT.flush()


def cache_state():
    out = {}
    for name, fn in (("smith_normal_form", exactalg.smith_normal_form),
                     ("homology_data", complexes.homology_data)):
        info = getattr(fn, "cache_info", None)
        out[name] = info()._asdict() if info else None
    return out


def build_complex(raw):
    """The ChainComplex of a generated complex, through the public constructor."""
    IntegerMatrix, Presentation = exactalg.IntegerMatrix, exactalg.Presentation
    diffs = tuple(IntegerMatrix(raw["gens"][j], raw["gens"][j + 1],
                                tuple(e for row in d for e in row))
                  for j, d in enumerate(raw["diffs"]))
    degrees = tuple(Presentation.free(g) for g in raw["gens"])
    return complexes.ChainComplex(raw["lo"], degrees, diffs)


def size_of(raw):
    """Most generators in one degree: the widest matrix an operation sees."""
    return max(raw["gens"], default=0)


# ---------------------------------------------------------------------------
# certify_batch


def certify(raw):
    """The acceptance battery on one instance; (name, certificate) pairs."""
    x = build_complex(raw)
    out = [("hypercomplete", holim.hypercomplete_check(x))]
    tower = sections.postnikov_tower(x, max(x.top_deg, 0))
    top = tower.level(tower.length)
    for i in (top.span() if not top.is_zero else range(0, 1)):
        out.append((f"milnor {i}", holim.milnor_check(tower, i)))
    out.append(("is_post_fibrant", sections.is_post_fibrant(tower)))
    out.append(("is_homotopy_cartesian", sections.is_homotopy_cartesian(tower)))
    for k in range(x.min_deg - 1, x.top_deg + 1):
        out.append((f"fiber_sequence {k}", trunc.fiber_sequence_check(x, k)))
        out.append((f"derived_counit {k}", hofib.derived_counit_check(x, k)))
        out.append((f"layer_equivalence {k}", hofib.layer_equivalence_check(x, k)))
    partition = fracture.PrimePartition({2}, {3, 5})
    out.append(("arithmetic_square", fracture.arithmetic_square_check(x, partition)))
    return out


class CertifyBatch:
    def __init__(self, seed, workdir):
        self.rng = random.Random(f"certify:{seed}")
        self.position = 0
        certify(inputs.block("torsion", 0, 2))  # warm-up on Z --2--> Z

    def next_op(self):
        span = inputs.SPAN_CYCLE[self.position % len(inputs.SPAN_CYCLE)]
        self.position += 1
        raw = inputs.complex_with_span(self.rng, span)
        return size_of(raw), raw

    def run(self, raw):
        return certify(raw)

    def check(self, raw, results):
        return oracle.check_battery(results, oracle.degree_groups(raw["profile"]))


# ---------------------------------------------------------------------------
# cli_documents


DOC_PAIRS = 500     # generated complex + tower document pairs written at set-up
BROKEN_DOCS = 40    # generated documents that must be rejected with exit 2


class CliDocuments:
    """Operations cycle through generated document pairs (five commands
    each), with a fixture command after every second pair and a broken
    generated document after every third."""

    def __init__(self, seed, workdir, generate=True):
        rng = random.Random(f"cli:{seed}")
        self.report = workdir / "report.json"
        docs = workdir / "docs"
        docs.mkdir()

        def write(doc, name):
            path = docs / name
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            return str(path)

        broken = []
        for b in range(BROKEN_DOCS if generate else 0):
            if b % 2:
                broken.append(write(inputs.broken_tower(rng), f"broken_{b}.json"))
            else:
                doc = inputs.complex_doc(inputs.broken_d2(rng), f"broken_{b}")
                broken.append(write(doc, f"broken_{b}.json"))
        self.ops = []
        for i in range(DOC_PAIRS if generate else 0):
            c = inputs.wide_complex(rng)
            groups = oracle.degree_groups(c["profile"])
            size = size_of(c)
            cx = write(inputs.complex_doc(c, f"wide_{i}"), f"wide_{i}.json")
            tw = write(inputs.tower_doc(c), f"tower_{i}.json")
            cut = rng.randint(c["lo"], inputs.top(c))
            for argv, cmd in ((["homology", cx], "homology"),
                              (["truncate", cx, "--n", str(cut)], "truncate"),
                              (["tower", tw], "tower"),
                              (["milnor", tw], "milnor"),
                              (["section", "check-tower", tw], "section")):
                self.ops.append((size, (argv, 0, ("generated", cmd, groups, cut))))
            if i % 2 == 1:
                argv, golden, code = FIXTURE_OPS[(i // 2) % len(FIXTURE_OPS)]
                argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
                self.ops.append((1, (argv, code, ("golden", golden) if golden else ("broken",))))
            if i % 3 == 2:
                self.ops.append((None, ([("tower" if (i // 3) % 2 else "homology"),
                                         broken[(i // 3) % BROKEN_DOCS]], 2, ("broken",))))
        self.position = 0
        self.run((["generate", "--seed", "0"], 0, None))  # warm-up
        self.report.unlink(missing_ok=True)

    def next_op(self):
        op = self.ops[self.position % len(self.ops)]
        self.position += 1
        return op

    def run(self, op):
        argv, _, _ = op
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv + ["--format", "machine", "--report", str(self.report)])

    def check(self, op, code):
        try:
            return self._problems(op, code)
        finally:
            self.report.unlink(missing_ok=True)

    def _problems(self, op, code):
        _, want, expect = op
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if expect[0] == "golden":
            golden = (FIXTURES / "golden" / expect[1]).read_bytes()
            return [] if self.report.read_bytes() == golden else ["report differs from golden"]
        if expect[0] == "generated":
            _, cmd, groups, cut = expect
            report = json.loads(self.report.read_text())
            return oracle.check_report(cmd, report, groups, cut)
        return []


# ---------------------------------------------------------------------------
# batch loop


def run_batch(workload, args):
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if workload == "certify_batch":
            body = CertifyBatch(args.seed, workdir)
        else:
            body = CliDocuments(args.seed, workdir, generate=not args.setup_only)
        emit({"ready": True})
        if args.setup_only:
            return
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        ops, scaler, busy = [], Scaler(), 0.0
        give_up = time.monotonic() + WALL_FACTOR * args.seconds
        try:
            while (len(ops) < args.max_ops if args.max_ops
                   else busy < args.seconds and time.monotonic() < give_up):
                size, op = body.next_op()
                error = None
                t0 = time.perf_counter()
                try:
                    result = body.run(op)
                except Exception as err:  # an operation that raises counts as failed
                    seconds = time.perf_counter() - t0
                    error = f"{type(err).__name__}: {err}"
                else:
                    seconds = time.perf_counter() - t0
                scaled = scaler.scale(seconds)
                busy += scaled
                problems = [error] if error else body.check(op, result)
                ops.append({"seconds": scaled, "raw_s": seconds, "size": size,
                            "error": error is not None, "problems": problems})
        finally:
            if tracer:
                tracer.uninstall()
        message = {"ops": ops, "caches": cache_state()}
        if tracer:
            message["trace"] = trace_summary(tracer, workload)
        emit(message)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_summary(tracer, label):
    tracer.dump(WORK / f"spans-{label}.bin")
    return {"layers": tracer.aggregate(), "spans": len(tracer.start),
            "snf_peak_bits": tracer.snf_peak_bits,
            "lattice_calls": tracer.lattice_calls,
            "lattice_trivial": tracer.lattice_trivial}


# ---------------------------------------------------------------------------
# lattice_ladder


class RungTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RungTimeout()


def _group(g):
    return [g.rank, list(g.torsion)]


def ladder_rung(rung):
    """The timed library calls of one rung."""
    if rung["kind"] == "torsion":
        x = complexes.moore_complex(rung["p"] * rung["q"])
        h = complexes.homology(x)
        partition = fracture.PrimePartition({rung["p"]}, {rung["q"]})
        return h, fracture.arithmetic_square_check(x, partition)
    n = rung["n"]
    m = exactalg.IntegerMatrix.from_rows(rung["rows"])
    snf = exactalg.smith_normal_form(m)
    group = exactalg.group_from_presentation(m)
    kernel = exactalg.integer_kernel(m)
    solution = exactalg.solve_matrix(m, exactalg.IntegerMatrix.from_rows(rung["rhs"]))
    free = exactalg.Presentation.free(n)
    h = complexes.homology(complexes.ChainComplex(0, (free, free), (m,)))
    return snf, group, kernel, solution, h


def ladder_summary(rung, out):
    """Plain-integer results of a decided rung, and the problems found by
    checks that need no known answer."""
    if rung["kind"] == "torsion":
        h, cert = out
        values = [r.witness.get("value") for r in oracle.find_checks(cert, "reassembly")]
        summary = {"homology": {str(d): str(g) for d, g in h.entries},
                   "square_passed": cert.passed,
                   "reassembled": values[0] if len(values) == 1 else values}
        return summary, []
    snf, group, kernel, solution, h = out
    got = {"d": list(snf.d), "U": snf.U.to_rows(), "V": snf.V.to_rows(),
           "kernel": kernel.to_rows(),
           "solution": solution.to_rows() if solution is not None else None}
    summary = {"d": got["d"], "group": _group(group),
               "homology": {"0": _group(h.at(0)), "1": _group(h.at(1))}}
    return summary, oracle.check_matrix_outputs(rung, got)


def serve(args):
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    ladder_rung({"kind": "dense", "n": 2, "rows": [[2, 0], [0, 3]], "rhs": [[2], [3]]})
    emit({"ready": True})
    scaler = Scaler()
    if tracer:
        tracer.install()
    timed_out = False
    try:
        for line in sys.stdin:
            rung = json.loads(line)
            error = None
            signal.setitimer(signal.ITIMER_REAL, inputs.RUNG_LIMIT)
            t0 = time.perf_counter()
            try:
                out = ladder_rung(rung)
                seconds = time.perf_counter() - t0
            except RungTimeout:
                timed_out = True
                break
            except Exception as err:  # reported as a failed operation
                seconds = time.perf_counter() - t0
                error = f"{type(err).__name__}: {err}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            reply = {"seconds": scaler.scale(seconds), "raw_s": seconds}
            if error:
                reply["error"] = error
            else:
                reply["summary"], reply["problems"] = ladder_summary(rung, out)
            emit(reply)
    finally:
        if tracer:
            tracer.uninstall()
    message = {"final": True, "timeout": timed_out, "caches": cache_state()}
    if tracer:
        message["trace"] = trace_summary(tracer, f"lattice_ladder-{args.index}")
    emit(message)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=("certify_batch", "cli_documents", "lattice_ladder"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="run exactly this many operations instead of --seconds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--index", type=int, default=0, help="worker number, names the span file")
    args = ap.parse_args()
    WORK.mkdir(exist_ok=True)
    if args.workload == "lattice_ladder":
        serve(args)
    else:
        run_batch(args.workload, args)


if __name__ == "__main__":
    main()
