"""Command-line surface.

Every subcommand loads flat-file documents (or draws seeded instances),
runs the corresponding library checks, and prints a report — human-readable
text by default, canonical machine JSON with ``--format machine``.  Machine
reports carry no timing and are byte-identical for identical inputs, seeds,
and flags.  Exit codes: 0 every check passed, 1 at least one check failed,
2 the input could not be used (parse error, broken document, unusable
arguments), 3 internal error (a defect in towercalc; the traceback goes to
stderr).

`main(argv)` may be called repeatedly in one process: the argument parser is
built on the first call and reused, and each call parses into a fresh
namespace.  A document's bytes are parsed once per process, up to
BUILD_CACHE_MAXSIZE documents (`serialize.loads`): failures are not kept,
and changed bytes are read afresh.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache

from . import serialize
from .certificates import Certificate, bundle, failed, passed
from .complexes import ChainComplex, hom_complex, homology_group, support
from .errors import InputError, NotCofibrant, ParseError, PartitionTooSmall, ValidationError
from .exactalg import BUILD_CACHE_MAXSIZE
from .fracture import PrimePartition, arithmetic_square_check, cospan_model_check
from .gen import GenProfile, generate, random_complex
from .hofib import derived_counit_check, layer_equivalence_check
from .holim import hypercomplete_check, milnor_check, tower_limit, uct_ladder
from .sections import (
    TowerSection,
    is_homotopy_cartesian,
    is_post_fibrant,
    parse_primes,
    postnikov_tower,
    surjective_in_positive_degrees,
)
from .trunc import connective_cover, is_n_type, is_Pn_weq, layer, postnikov_section

_INPUT_ERRORS = (ParseError, ValidationError, InputError, NotCofibrant, PartitionTooSmall)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    checks: tuple[Certificate, ...]
    elapsed_ms: int

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def machine_doc(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": "pass" if self.verdict else "fail",
        }

    def machine_text(self) -> str:
        return json.dumps(self.machine_doc(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"input {key}: {value}")
        for check in self.checks:
            _render(check.to_dict(), lines, 0)
        lines.append(f"verdict: {'pass' if self.verdict else 'fail'}")
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines) + "\n"


def _render(doc: dict, lines: list, depth: int) -> None:
    """Append the lines of one certificate's `to_dict()` and its subtree."""
    mark = "PASS" if doc["passed"] else "FAIL"
    detail = ""
    if "witness" in doc:
        detail = " " + " ".join(f"{k}={json.dumps(v)}" if not isinstance(v, str)
                                else f"{k}={v}" for k, v in doc["witness"].items())
    lines.append(f"{'  ' * depth}[{mark}] {doc['check']}{detail}")
    for child in doc.get("children", ()):
        _render(child, lines, depth + 1)


def _load(path: str, kind: str):
    """The `kind` document at `path`, with the report's inputs: its base
    name and the sha256 of its bytes.  The file is read on every call; its
    bytes are parsed once (`serialize.loads`), and the kind check and the
    digest run every time."""
    raw = serialize.read(path)
    obj = serialize.loads(raw, path)
    if not isinstance(obj, serialize.KINDS[kind]):
        raise ValidationError(path, f"expected a {kind} document")
    return obj, {os.path.basename(path): "sha256:" + hashlib.sha256(raw).hexdigest()}


def _homology_listing(x: ChainComplex, name: str) -> Certificate:
    children = [passed("homology_degree", degree=i, value=str(homology_group(x, i)))
                for i in x.span()]
    return bundle(name, children)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (inputs, checks)


def _cmd_homology(args):
    x, inputs = _load(args.file, "complex")
    return inputs, [_homology_listing(x, "homology")]


def _cmd_truncate(args):
    x, inputs = _load(args.file, "complex")
    p, q = postnikov_section(x, args.n)
    checks = [bundle("truncation",
                     [is_n_type(p, args.n), is_Pn_weq(q, args.n),
                      _homology_listing(p, "truncated_homology")],
                     cut=args.n)]
    return inputs, checks


def _cmd_cover(args):
    x, inputs = _load(args.file, "complex")
    c, _ = connective_cover(x, args.k)
    matches = [passed("cover_matches", degree=i, value=str(homology_group(c, i)))
               if homology_group(c, i) == homology_group(x, i)
               else failed("cover_matches", degree=i, cover=str(homology_group(c, i)),
                           total=str(homology_group(x, i)))
               for i in support(c, x) if i > args.k]
    return inputs, [bundle("connective_cover", matches, cut=args.k)]


def _cmd_layer(args):
    x, inputs = _load(args.file, "complex")
    lay = layer(x, args.k)
    off = [i for i in lay.span() if i != args.k + 1 and not homology_group(lay, i).is_zero]
    conc = (passed("concentrated", degree=args.k + 1) if not off
            else failed("concentrated", degrees=off))
    value = passed("layer_value", value=str(homology_group(lay, args.k + 1)))
    return inputs, [bundle("layer", [conc, value], cut=args.k)]


def _cmd_homcx(args):
    m, inputs = _load(args.source, "complex")
    n, target_inputs = _load(args.target, "complex")
    h = hom_complex(m, n)
    return {**inputs, **target_inputs}, [_homology_listing(h, "hom_complex_homology")]


def _cmd_uct(args):
    m, inputs = _load(args.source, "complex")
    n, target_inputs = _load(args.target, "complex")
    report = uct_ladder(m, n, args.n)
    disc = passed("discrepancy", value=str(report.discrepancy))
    return {**inputs, **target_inputs}, [report.certificate, disc]


def _cmd_tower(args):
    t, inputs = _load(args.file, "tower")
    limit, projections = tower_limit(t)
    checks = [_homology_listing(limit, "limit_homology"),
              passed("projections", count=len(projections))]
    return inputs, checks


def _one_or_batch(args, kind: str, check, suite: str, prepare):
    """`check` on one `kind` document, or on each of a seeded batch of
    instances, made ready by `prepare` and bundled into `suite`."""
    if args.file:
        obj, inputs = _load(args.file, kind)
        return inputs, [check(obj)]
    if args.count < 0:
        raise InputError(f"--count must be at least 0, got {args.count}")
    rng = random.Random(args.seed)
    instances = [random_complex(rng) for _ in range(args.count)]
    checks = [bundle("instance", [check(prepare(x))], index=i) for i, x in enumerate(instances)]
    return ({"seed": str(args.seed), "count": str(args.count)},
            [bundle(suite, checks, seed=args.seed, count=args.count)])


def _cmd_hypercomplete(args):
    return _one_or_batch(args, "complex", hypercomplete_check, "hypercompleteness_suite",
                         lambda x: x)


def _cmd_milnor(args):
    def all_degrees(t: TowerSection) -> Certificate:
        top = t.level(t.length)
        degrees = top.span() if not top.is_zero else range(0, 1)
        return bundle("milnor", [milnor_check(t, i) for i in degrees])

    return _one_or_batch(args, "tower", all_degrees, "milnor_suite",
                         lambda x: postnikov_tower(x, max(x.top_deg, 0)))


def _cmd_fracture(args):
    x, inputs = _load(args.file, "complex")
    partition = PrimePartition(parse_primes(args.primes_j, "--primes-j"),
                               parse_primes(args.primes_k, "--primes-k"))
    return inputs, [arithmetic_square_check(x, partition)]


def _cmd_hofib(args):
    x, inputs = _load(args.file, "complex")
    checks = [derived_counit_check(x, args.k), layer_equivalence_check(x, args.k)]
    return inputs, checks


def _cmd_section(args):
    if args.mode == "check-tower":
        t, inputs = _load(args.file, "tower")
        return inputs, [is_post_fibrant(t), is_homotopy_cartesian(t)]
    s, inputs = _load(args.file, "cospan")
    checks = [bundle("leg_fibrations",
                     [surjective_in_positive_degrees(s.left, "left leg"),
                      surjective_in_positive_degrees(s.right, "right leg")])]
    if any(t.kind == "local" for t in s.tags):
        checks.append(cospan_model_check(s))
    elif s.tags[1].kind == "ptype":
        checks.append(is_homotopy_cartesian(s))
    return inputs, checks


def _cmd_generate(args):
    doc = generate(args.seed, GenProfile())
    digest = "sha256:" + hashlib.sha256(
        serialize.document_text(doc).encode("utf-8")).hexdigest()
    check = passed("generated", name=doc["name"], document=digest)
    return {"seed": str(args.seed)}, [check], doc


# ---------------------------------------------------------------------------
# wiring


@lru_cache(maxsize=BUILD_CACHE_MAXSIZE)
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first `main()` call of a process
    and reused by every later one.

    argparse keeps no per-parse state on a parser or its actions: each
    `parse_args` fills a fresh namespace from the action defaults.  The cache
    holds one entry; its bound is BUILD_CACHE_MAXSIZE because every towercalc
    cache is bounded by one of the two library constants.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", metavar="PATH",
                        help="also write the machine-readable report here")
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="stdout format (default text)")

    ap = argparse.ArgumentParser(
        prog="towercalc",
        description="exact truncation-tower checks for bounded complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common],
                       help="list the homology of a complex document")
    p.add_argument("file")

    p = sub.add_parser("truncate", parents=[common],
                       help="truncate above a degree and certify the result")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("cover", parents=[common],
                       help="connective cover below a degree")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("layer", parents=[common],
                       help="single truncation layer of a complex")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("homcx", parents=[common],
                       help="homology of the mapping complex of two documents")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("uct", parents=[common],
                       help="coefficient ladder of a mapping complex at a cut")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("tower", parents=[common],
                       help="limit of a tower document")
    p.add_argument("file")

    p = sub.add_parser("hypercomplete", parents=[common],
                       help="limit-reconstruction check, one file or a seeded batch")
    p.add_argument("file", nargs="?")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)

    p = sub.add_parser("milnor", parents=[common],
                       help="limit/lim1 exactness across all degrees")
    p.add_argument("file", nargs="?")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)

    p = sub.add_parser("fracture", parents=[common],
                       help="arithmetic square of a complex over a prime partition")
    p.add_argument("file")
    p.add_argument("--primes-j", default="", metavar="P,P,...")
    p.add_argument("--primes-k", default="", metavar="P,P,...")

    p = sub.add_parser("hofib", parents=[common],
                       help="homotopy-fiber checks at a cut")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("section", parents=[common],
                       help="model-structure checks for section documents")
    p.add_argument("mode", choices=("check-tower", "check-cospan"))
    p.add_argument("file")

    p = sub.add_parser("generate", parents=[common],
                       help="print a seeded random complex document")
    p.add_argument("--seed", type=int, default=0)

    return ap


_HANDLERS = {
    "homology": _cmd_homology,
    "truncate": _cmd_truncate,
    "cover": _cmd_cover,
    "layer": _cmd_layer,
    "homcx": _cmd_homcx,
    "uct": _cmd_uct,
    "tower": _cmd_tower,
    "hypercomplete": _cmd_hypercomplete,
    "milnor": _cmd_milnor,
    "fracture": _cmd_fracture,
    "hofib": _cmd_hofib,
    "section": _cmd_section,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a defect in towercalc, never a verdict on the input
        traceback.print_exc()
        print("error: internal error (exit 3)", file=sys.stderr)
        return 3


def _run(args) -> int:
    started = time.monotonic()
    result = _HANDLERS[args.command](args)
    inputs, checks = result[0], result[1]
    document = result[2] if len(result) > 2 else None
    elapsed = int((time.monotonic() - started) * 1000)
    report = RunReport(args.command, inputs, tuple(checks), elapsed)

    machine = (report.machine_text()  # rendered once for stdout and --report
               if args.report or (document is None and args.format == "machine") else None)
    if document is not None:
        out = (serialize.document_text(document) if args.format == "text"
               else json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")
        sys.stdout.write(out)
    else:
        sys.stdout.write(report.text() if args.format == "text" else machine)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(machine)
        except OSError as err:
            raise InputError(f"--report {args.report}: cannot write the report "
                             f"({err.strerror or err})") from err
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
