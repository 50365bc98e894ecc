"""Spans around towercalc's public functions, installed from outside.

A traced run wraps every public function of the traced modules, plus a few
named methods, and rebinds each wrapper in every towercalc namespace that
holds the original (``complexes`` imports ``solve_matrix`` from
``exactalg``, ``trunc`` imports from both, and so on); otherwise calls made
through those names would escape their spans.  ``uninstall`` puts every
original back.  An untraced run never creates a Tracer.

Each span stores a name id, its parent span, a start and an end, in flat
arrays kept in memory; ``dump`` writes them out and ``aggregate`` turns them
into per-name call counts and self time (duration minus the time covered by
child spans).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("exactalg", "complexes", "trunc", "sections", "holim", "hofib",
           "fracture", "serialize", "certificates", "cli")

# (module, class or None, attribute, span name): methods and private
# functions traced under a name of their own.
EXTRA = (
    ("exactalg", "FpAbelianGroup", "from_orders", "exactalg.FpAbelianGroup.from_orders"),
    ("exactalg", "GroupMap", "__init__", "exactalg.GroupMap.init"),
    ("complexes", "ChainComplex", "__init__", "complexes.ChainComplex.init"),
    ("complexes", "ChainMap", "__init__", "complexes.ChainMap.init"),
    ("certificates", "Certificate", "to_dict", "certificates.to_dict"),
    ("cli", None, "_build_parser", "cli.parser"),
    ("cli", "RunReport", "text", "cli.render"),
    ("cli", "RunReport", "machine_text", "cli.render"),
)

def _is_traceable(obj, module_name):
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.snf_peak_bits = 0
        self.lattice_calls = 0
        self.lattice_trivial = 0

    # -- spans

    def _wrap(self, name, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _snf_after(self, fn):
        info = getattr(fn, "cache_info", None)
        state = {"misses": info().misses if info else 0}

        def after(args, result):
            if info is not None:
                misses = info().misses
                if misses == state["misses"]:
                    return
                state["misses"] = misses
            entries = [*result.U.entries, *result.V.entries]
            bits = max((abs(e).bit_length() for e in entries), default=0)
            self.snf_peak_bits = max(self.snf_peak_bits, bits)
        return after

    def _lattice_after(self, args, result):
        gens, vectors = args[0], args[1]
        self.lattice_calls += 1
        if gens.cols == 0 or vectors.cols == 0 or vectors.is_zero:
            self.lattice_trivial += 1

    # -- install / uninstall

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"towercalc.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "towercalc" or key.startswith("towercalc.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_traceable(obj, mod.__name__):
                    continue
                name = f"{short}.{attr}"
                after = None
                if name == "exactalg.smith_normal_form":
                    after = self._snf_after(obj)
                elif name == "exactalg.lattice_contains":
                    after = self._lattice_after
                wrapped = self._wrap(name, obj, after)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, key, wrapped)
        for short, cls_name, attr, name in EXTRA:
            mod = mods[short]
            owner = getattr(mod, cls_name) if cls_name else mod
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(owner, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def aggregate(self):
        """name -> [calls, self seconds]."""
        self_time = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, p in enumerate(self.parent):
            if p >= 0:
                self_time[p] -= self.end[idx] - self.start[idx]
        totals = {name: [0, 0.0] for name in self.names}
        for nid, t in zip(self.name_id, self_time):
            row = totals[self.names[nid]]
            row[0] += 1
            row[1] += t
        return totals

    def dump(self, path):
        """Spans as a JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:H", "parent:q", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
