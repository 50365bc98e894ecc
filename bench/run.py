"""towercalc benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload certify_batch --seed 1 --seconds 20 --trace 0

Every operation runs in a fresh worker interpreter (worker.py), one at a
time.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run, plus the
tracing overhead measured against an untraced replay of the same
operations.  The last line of stdout is the result object; the line before
it is a JSON detail record (cache state, memory, wall times, failures).
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("certify_batch", "lattice_ladder", "cli_documents")
SETUP_SAMPLES = 7       # throwaway set-ups per run; setup_s is their median
BACKSTOP = 30.0         # seconds past any expected answer before a worker is killed
REPLAY_SHARE = 3        # the overhead replay repeats the first 1/REPLAY_SHARE of a traced run
SIZES = (1, 2, 4, 6, 8, 16, 32, 64)

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("correct_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ladder_max_n", "n"),
)

_TIMED = ("exactalg.smith_normal_form", "exactalg.integer_kernel", "exactalg.solve_matrix",
          "exactalg.column_basis", "exactalg.preimage_lattice", "exactalg.lattice_contains",
          "exactalg.FpAbelianGroup.from_orders", "exactalg.GroupMap.init",
          "complexes.ChainComplex.init", "complexes.ChainMap.init", "complexes.homology_data",
          "trunc.postnikov_section", "trunc.connective_cover", "trunc.fiber_sequence_check",
          "hofib.hofib_factorization", "fracture.prime_factors", "serialize.load")
_SELF_ONLY = ("complexes.les_certificate", "complexes.cofibrant_replacement",
              "sections.postnikov_tower", "sections.is_post_fibrant",
              "sections.is_homotopy_cartesian", "holim.hypercomplete_check",
              "holim.milnor_check", "holim.tower_limit", "hofib.derived_counit_check",
              "hofib.layer_equivalence_check", "fracture.arithmetic_square_check",
              "certificates.to_dict", "cli.parser", "cli.render")
_CALLS_ONLY = ("complexes.direct_sum_map", "complexes.cotuple")

PER_LAYER = (
    tuple((f"{name}.{part}", unit) for name in _TIMED
          for part, unit in (("calls", "count"), ("self_s", "s")))
    + tuple((f"{name}.self_s", "s") for name in _SELF_ONLY)
    + tuple((f"{name}.calls", "count") for name in _CALLS_ONLY)
    + (("exactalg.smith_normal_form.cache_hit_ratio", "ratio"),
       ("complexes.homology_data.cache_hit_ratio", "ratio"),
       ("exactalg.snf.peak_bits", "bits"),
       ("exactalg.lattice_contains.trivial_frac", "ratio"),
       ("certificates.nodes", "count"),
       ("trace.spans", "count"),
       ("trace.overhead", "ratio"))
)


# ---------------------------------------------------------------------------
# workers


class Worker:
    """A worker.py child with a line protocol on its stdout."""

    def __init__(self, workload, *flags, stdin=False):
        cmd = [sys.executable, str(HERE / "worker.py"), workload, *map(str, flags)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stdin=subprocess.PIPE if stdin else subprocess.DEVNULL)
        self.buffer = b""
        self.rss_kb = None

    def read(self, timeout):
        """The next protocol message, or None if none came in time."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self.buffer:
                line, self.buffer = self.buffer.split(b"\n", 1)
                if line.startswith(b"@@bench "):
                    return json.loads(line[len(b"@@bench "):])
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk

    def send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def close(self, kill=False):
        """Stop the child, wait for it, and keep its peak resident memory."""
        if self.proc.stdin:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        if kill:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_kb = usage.ru_maxrss
        return self.rss_kb


def wait_ready(worker, t0):
    """Seconds from `t0` until the worker is ready."""
    msg = worker.read(BACKSTOP + 120)
    if not msg or not msg.get("ready"):
        raise SystemExit("worker did not finish set-up")
    return time.perf_counter() - t0


def setup_probe(workload, seed):
    """One throwaway set-up, timed from start to ready, and that time at
    the reference speed (see speed.py).  It makes no inputs: generating
    them is the benchmark's own code, so it is kept out of setup_s."""
    before = speed.start_time()
    t0 = time.perf_counter()
    if workload == "lattice_ladder":
        w = Worker(workload, stdin=True)
    else:
        w = Worker(workload, "--seed", seed, "--setup-only")
    try:
        seconds = wait_ready(w, t0)
    finally:
        w.close()
    start = (before + speed.start_time()) / 2
    return {"setup_wall_s": seconds, "setup_scaled_s": seconds * speed.REFERENCE_START_S / start,
            "setup_start_s": start}


# ---------------------------------------------------------------------------
# certify_batch and cli_documents


def batch_run(workload, seed, seconds, trace, max_ops=0):
    t0 = time.perf_counter()
    w = Worker(workload, "--seed", seed, "--seconds", seconds, "--trace", trace,
               "--max-ops", max_ops)
    msg = None
    try:
        setup = wait_ready(w, t0)
        msg = w.read(seconds * 3 + BACKSTOP if not max_ops else BACKSTOP * 20)
    finally:
        rss = w.close(kill=msg is None)
    if msg is None:
        raise SystemExit("worker ended without a result")
    for op in msg["ops"]:
        op["timeout"] = False
    return {"ops": msg["ops"], "setup": setup, "rss_kb": rss,
            "caches": [msg["caches"]], "trace": msg.get("trace")}


# ---------------------------------------------------------------------------
# lattice_ladder


def expected_invariants(rung):
    if rung["kind"] == "scrambled":
        return tuple(x for x in rung["invariants"] if x)
    return oracle.dense_invariants(rung["rows"])


def judge_rung(rung, reply):
    """Problems with one decided rung, against its independent answer."""
    if "error" in reply:
        return [reply["error"]]
    problems = list(reply["problems"])
    if rung["kind"] == "torsion":
        return problems + oracle.check_torsion_answers(rung, reply["summary"])
    return problems + oracle.check_matrix_answers(rung["n"], reply["summary"],
                                                  expected_invariants(rung))


class Ladder:
    """Feeds rungs to one worker at a time; a timeout replaces the worker."""

    def __init__(self, trace):
        self.trace = trace
        self.index = 0
        self.worker = None
        self.rss_kb = 0
        self.finals = []

    def start(self):
        """Start a worker and return its set-up (see wait_ready)."""
        t0 = time.perf_counter()
        self.worker = Worker("lattice_ladder", "--trace", self.trace,
                             "--index", self.index, stdin=True)
        self.index += 1
        return wait_ready(self.worker, t0)  # on failure, kill() reaps the worker

    def _end(self, final):
        """Reap the worker; `final` is its last message, or None to kill it."""
        if final is not None:
            self.finals.append(final)
        self.rss_kb = max(self.rss_kb, self.worker.close(kill=final is None))
        self.worker = None

    def ask(self, rung):
        """The worker's reply, or None if the rung timed out."""
        if self.worker is None:
            self.start()
        self.worker.send(rung)
        reply = self.worker.read(inputs.RUNG_LIMIT + BACKSTOP)
        if reply is None or reply.get("final"):
            self._end(reply)
            return None
        return reply

    def stop(self):
        if self.worker is not None:
            self.worker.proc.stdin.close()
            self._end(self.worker.read(BACKSTOP))

    def kill(self):
        if self.worker is not None:
            self._end(None)


def rung_size(rung):
    return rung["n"] if rung["kind"] != "torsion" else None


def ladder_run(seed, seconds, trace, replay=None):
    """Whole passes of the ladder until the next pass would take the busy
    time past `seconds`; with `replay`, exactly those rungs instead."""
    rungs = replay if replay is not None else inputs.ladder_pass(seed, 0)
    ladder = Ladder(trace)
    ops, done = [], []
    try:
        setup = ladder.start()
        busy, index = 0.0, 0
        while True:
            pass_busy = 0.0
            for rung in rungs:
                reply = ladder.ask(rung)
                timeout = reply is None
                secs, raw = ((inputs.RUNG_LIMIT, inputs.RUNG_LIMIT) if timeout
                             else (reply["seconds"], reply["raw_s"]))
                pass_busy += secs
                ops.append({"seconds": secs, "raw_s": raw,
                            "size": rung_size(rung), "timeout": timeout,
                            "error": not timeout and "error" in reply,
                            "problems": [] if timeout else judge_rung(rung, reply),
                            "rung": _rung_label(rung)})
                done.append(rung)
            index += 1
            busy += pass_busy
            if replay is not None or busy + pass_busy > seconds:
                break
            rungs = inputs.ladder_pass(seed, index)
        ladder.stop()
    finally:
        ladder.kill()
    caches = [f["caches"] for f in ladder.finals]
    traces = [f["trace"] for f in ladder.finals if f.get("trace")]
    return {"ops": ops, "rungs": done, "setup": setup, "rss_kb": ladder.rss_kb,
            "caches": caches, "trace": merge_traces(traces) if trace else None,
            "workers": ladder.index, "passes": index}


def _rung_label(rung):
    if rung["kind"] == "torsion":
        return f"torsion:{rung['digits']}"
    return f"{rung['kind']}:{rung['n']}"


def merge_traces(traces):
    out = {"layers": {}, "spans": 0, "snf_peak_bits": 0, "lattice_calls": 0,
           "lattice_trivial": 0}
    for t in traces:
        for name, (calls, self_s) in t["layers"].items():
            row = out["layers"].setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        out["spans"] += t["spans"]
        out["snf_peak_bits"] = max(out["snf_peak_bits"], t["snf_peak_bits"])
        out["lattice_calls"] += t["lattice_calls"]
        out["lattice_trivial"] += t["lattice_trivial"]
    return out


# ---------------------------------------------------------------------------
# metrics


def ladder_max_n(ops):
    """The largest size class n such that some operation falls in class n
    and every operation in a class up to n was decided correctly.  An
    operation's class is the largest entry of SIZES at most its size."""
    classes = {}
    for op in ops:
        if op["size"] is not None:
            n = max(s for s in SIZES if s <= op["size"])
            classes.setdefault(n, []).append(op)
    best = 0
    for n in sorted(classes):
        if any(op["timeout"] or op["problems"] for op in classes[n]):
            break
        best = n
    return best


def timing(ops, key="seconds"):
    """Throughput and latency percentiles of the operations' `key` times.

    Throughput is decided operations over their own busy time: a timed-out
    rung would otherwise add the limit, not library work, to the divisor.
    A decided ladder rung counts the median time of its class (kind and
    size).  Its rungs take 0.5-15 ms, so a few ms of interference from
    other tenants moves a plain sum by 5-10 % between runs; class medians
    hold, and still follow any change in a class's typical cost."""
    lat = sorted(op[key] * 1000 for op in ops)
    decided = [op for op in ops if not op["timeout"] and not op["error"]]
    classes = {}
    for op in decided:
        classes.setdefault(op.get("rung"), []).append(op[key])
    busy = sum(len(times) * statistics.median(times) if rung else sum(times)
               for rung, times in classes.items())
    return {
        "throughput_ops_s": len(decided) / busy,
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.p90": statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def end_to_end(run, setups):
    ops = run["ops"]
    correct = [op for op in ops if not op["timeout"] and not op["problems"]]
    values = {
        **timing(ops),
        "correct_frac": len(correct) / len(ops),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
        "ladder_max_n": ladder_max_n(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _hit_ratio(caches, name):
    """Cache hits over lookups, summed over every worker of the run."""
    hits = misses = 0
    for c in caches:
        info = c.get(name)
        if info:
            hits, misses = hits + info["hits"], misses + info["misses"]
    return _ratio(hits, hits + misses)


def per_layer(trace, caches, overhead):
    layers = trace["layers"]
    values = {}
    for name, unit in PER_LAYER:
        base, _, part = name.rpartition(".")
        if part == "calls":
            values[name] = layers.get(base, [0, 0.0])[0]
        elif part == "self_s":
            values[name] = layers.get(base, [0, 0.0])[1]
    values["exactalg.smith_normal_form.cache_hit_ratio"] = _hit_ratio(caches, "smith_normal_form")
    values["complexes.homology_data.cache_hit_ratio"] = _hit_ratio(caches, "homology_data")
    values["exactalg.snf.peak_bits"] = trace["snf_peak_bits"]
    values["exactalg.lattice_contains.trivial_frac"] = _ratio(trace["lattice_trivial"],
                                                              trace["lattice_calls"])
    values["certificates.nodes"] = layers.get("certificates.to_dict", [0, 0.0])[0]
    values["trace.spans"] = trace["spans"]
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# main


def measure(workload, seed, seconds, trace, replay_ops=None):
    if workload == "lattice_ladder":
        return ladder_run(seed, seconds, trace, replay=replay_ops)
    return batch_run(workload, seed, seconds, trace, max_ops=replay_ops or 0)


def main():
    ap = argparse.ArgumentParser(description="towercalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "towercalc" / "__init__.py",
                           ROOT / "fixtures" / "golden") if not p.exists()]
    if missing:
        print(f"error: {missing[0]} not found; run from a towercalc checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        for stale in (HERE / ".work").glob(f"spans-{args.workload}*.bin"):
            stale.unlink()
        run = measure(args.workload, args.seed, args.seconds, 1)
        decided = [op for op in run["ops"] if not op["timeout"]]
        count = math.ceil(len(decided) / REPLAY_SHARE)
        if args.workload == "lattice_ladder":
            rungs = [r for r, op in zip(run["rungs"], run["ops"]) if not op["timeout"]]
            plain = measure(args.workload, args.seed, args.seconds, 0, rungs[:count])
        else:
            plain = measure(args.workload, args.seed, args.seconds, 0, count)
        traced_s, plain_s = _paired_busy(decided, plain["ops"])
        overhead = _ratio(traced_s, plain_s)
        detail.update({"traced_busy_s": traced_s, "untraced_busy_s": plain_s,
                       "trace_overhead": overhead})
        metrics = per_layer(run["trace"], run["caches"], overhead)
    else:
        # Set-ups on both sides of the run, so their median spans the
        # minute the run takes rather than the moment before it.
        before = SETUP_SAMPLES // 2
        setups = [setup_probe(args.workload, args.seed) for _ in range(before)]
        run = measure(args.workload, args.seed, args.seconds, 0)
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - before)]
        detail.update({key: [s[key] for s in setups] for key in setups[0]})
        detail["run_setup_s"] = run["setup"]
        metrics = end_to_end(run, [s["setup_scaled_s"] for s in setups])
    ops = run["ops"]
    failed = [op for op in ops if op["problems"]]
    detail.update({
        "operations": len(ops),
        "timeouts": sum(op["timeout"] for op in ops),
        "failed": len(failed),
        "first_failures": [op["problems"] for op in failed[:5]],
        "busy_s": sum(op["seconds"] for op in ops),
        "unscaled": timing(ops, "raw_s"),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "caches": run["caches"],
    })
    for key in ("workers", "passes"):
        if key in run:
            detail[key] = run[key]
    if args.workload == "lattice_ladder":
        detail["rungs"] = _rung_table(ops)
    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _paired_busy(traced, plain):
    """Busy seconds of the same leading operations, traced and untraced,
    counting only those decided in both runs."""
    t = p = 0.0
    for a, b in zip(traced, plain):
        if not a["timeout"] and not b["timeout"]:
            t, p = t + a["seconds"], p + b["seconds"]
    return t, p


def _rung_table(ops):
    table = {}
    for op in ops:
        row = table.setdefault(op["rung"], {"count": 0, "timeouts": 0, "max_ms": 0.0})
        row["count"] += 1
        row["timeouts"] += op["timeout"]
        if not op["timeout"]:
            row["max_ms"] = max(row["max_ms"], op["seconds"] * 1000)
    return table


if __name__ == "__main__":
    sys.exit(main())
