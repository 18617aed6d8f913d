"""Spans around the package's public functions, for the traced run.

``Tracer.install`` replaces every binding of the functions in ``LAYERS``
across the loaded ``kxstit`` modules with a wrapper, and ``uninstall`` puts
the originals back, so untraced units run the unwrapped code.  A wrapper
records a span (id, parent id, verdict unit, name, start, end) and adds its
call, its self time (duration minus time in wrapped children, the children's
bookkeeping included) and the sizes read from its arguments and result.  A call made while an outer call of the
same function is open is part of that span: for recursive functions only the
outermost calls count.
"""

from __future__ import annotations

import sys
import time
from array import array


def _worlds(args, result):
    return len(args[0].worlds)


# name -> ((size name, size(args, result)), ...), read after the call returns
LAYERS = {
    "formula.parse": (),
    "formula.expand_macros": (),
    "formula.subformulas": (("nodes", lambda args, result: len(result)),),
    "formula.depth_profile": (),
    "axioms.instantiate": (),
    "axioms.saturating_atoms": (),
    "checker.extension": (("worlds", _worlds),),
    "checker.valid_on_model": (),
    "checker.eval_formula": (),
    "checker.knowledge_report": (),
    "model.validate_frame": (("worlds", _worlds),),
    "model.load_model": (),
    "scenario.load_scenario": (),
    "scenario.bdt_to_kripke": (("worlds", lambda args, result: len(result.worlds)),),
    "transform.unravel": (),
    "transform.validate_window": (("worlds", _worlds),
                                  ("interior", lambda args, result: len(args[0].interior))),
    "transform.actualize": (("worlds", lambda args, result: len(result[0].worlds)),),
    "transform.check_bounded_morphism": (),
    "transform.truth_preservation": (("compared", lambda args, result: result.compared),),
    "transform.window_eval": (),
    "cli.main": (),
}


class LayerStats:
    def __init__(self, size_names):
        self.calls = 0
        self.self_s = 0.0
        self.sizes = dict.fromkeys(size_names, 0)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.stats = {name: LayerStats(size for size, _ in LAYERS[name]) for name in self.names}
        self.units = []                 # verdict-unit labels, indexed by span
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_unit = array("l")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        # what a per-model memo of subformula truth sets could save: distinct
        # subformulas per model against subformulas evaluated by extension
        self.memo_distinct = 0
        self.memo_evaluated = 0
        self._per_model = {}
        self._stack = []
        self._open = set()
        self._next_id = 0
        self._patches = []
        self._wrappers = {}
        for index, name in enumerate(self.names):
            module, attr = name.split(".")
            original = getattr(sys.modules[f"kxstit.{module}"], attr)
            self._wrappers[original] = self._wrap(index, name, original, LAYERS[name])

    def install(self, unit):
        """Start tracing verdict unit ``unit`` (a label)."""
        self.units.append(unit)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kxstit" and not mod_name.startswith("kxstit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()
        self.memo_distinct += sum(len(s) for s in self._per_model.values())
        self._per_model.clear()

    def _wrap(self, index, name, fn, sizes):
        stats = self.stats[name]
        stack, open_names = self._stack, self._open
        clock = time.perf_counter
        tracer = self
        feeds_memo = name == "formula.subformulas"

        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_id, name, args]   # child time, id, name, args
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, stats, index, start, clock())
                raise
            end = clock()
            for size, measure in sizes:
                stats.sizes[size] += measure(args, result)
            if feeds_memo and parent is not None and parent[2] == "checker.extension":
                tracer._note_subformulas(parent[3][0], result)
            tracer._close(frame, parent, stats, index, start, end)
            return result

        return wrapper

    def _close(self, frame, parent, stats, name_index, start, end):
        self._stack.pop()
        self._open.discard(frame[2])
        stats.calls += 1
        stats.self_s += end - start - frame[0]
        self.span_id.append(frame[1])
        self.span_parent.append(-1 if parent is None else parent[1])
        self.span_unit.append(len(self.units) - 1)
        self.span_name.append(name_index)
        self.span_start.append(start)
        self.span_end.append(end)
        if parent is not None:
            # the parent's self time excludes this span and its bookkeeping
            parent[0] += time.perf_counter() - start

    def _note_subformulas(self, m, subformulas):
        key = (m.worlds, tuple(sorted(m.valuation)))
        self._per_model.setdefault(key, set()).update(subformulas)
        self.memo_evaluated += len(subformulas)

    def write_spans(self, path):
        """One tab-separated line per span, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tunit\tname\tstart\tend\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.units[self.span_unit[i]]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
        return len(self.span_id)
