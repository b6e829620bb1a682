"""Span tracing around the analyzer's layer boundaries.

:class:`Tracer` replaces each layer's public entry point (see
:data:`LAYERS`) with a wrapper that records one span per call: name,
start, end, parent span and op id, plus a few counts taken from the
call's arguments or result.  Callers import several of these names
directly (``from ..core.synthesis import synthesize``), so a wrapper is
installed under every ``repro.*`` module attribute that holds the
original function, and methods are replaced on their class.  Wrappers
return exactly what the wrapped call returns and re-raise what it
raises.

Spans stay in memory; :meth:`Tracer.dump` writes them out and
:func:`layer_metrics` turns a span list into the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Modules imported before wrapping, so that every ``from x import f``
#: site already holds the original function when the wrappers go in.
MODULES = (
    "repro",
    "repro.analysis.bounds",
    "repro.analysis.runtime",
    "repro.analysis.tails",
    "repro.api",
    "repro.api.analyzer",
    "repro.baseline.potential",
    "repro.batch.engine",
    "repro.cache",
    "repro.check",
    "repro.check.runner",
    "repro.core.conditions",
    "repro.core.lp",
    "repro.core.synthesis",
    "repro.fuzz.generator",
    "repro.fuzz.harness",
    "repro.invariants.generator",
    "repro.programs.base",
    "repro.semantics.cfg",
    "repro.semantics.interpreter",
    "repro.service",
    "repro.syntax.parser",
)


def _rows(inv) -> int:
    return sum(len(poly.constraints) for _, region in inv.items() for poly in region.disjuncts)


def _note_check(args, kwargs, result, exc) -> Dict[str, int]:
    return {"rejected": int(result is not None and not result.ok)}


def _note_invariants(args, kwargs, result, exc) -> Dict[str, int]:
    return {"rows": _rows(result) if result is not None else 0}


def _note_synthesis(args, kwargs, result, exc) -> Dict[str, int]:
    from repro.errors import SynthesisError

    return {"infeasible": int(isinstance(exc, SynthesisError))}


def _note_lp(args, kwargs, result, exc) -> Dict[str, int]:
    lp = args[0]
    return {"rows": lp.num_equalities, "cols": lp.num_variables}


def _note_tails(args, kwargs, result, exc) -> Dict[str, int]:
    tail = args[0].tail
    return {"refit": int(tail is not None and bool(tail.refit))}


def _note_simulate(args, kwargs, result, exc) -> Dict[str, int]:
    if result is None:
        return {"runs": 0, "truncated": 0}
    return {"runs": result.runs, "truncated": result.truncated}


def _note_lookup(args, kwargs, result, exc) -> Dict[str, int]:
    return {"hit": int(result is not None)}


#: (module, attribute or Class.method, span name, count recorder).
#: The span name's first dotted part is the layer.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.fuzz.generator", "generate", "fuzz.generator", None),
    ("repro.syntax.parser", "parse_program", "syntax.parse", None),
    ("repro.semantics.cfg", "build_cfg", "cfg.build", None),
    ("repro.check.runner", "check_cfg", "check", _note_check),
    ("repro.check.runner", "check_benchmark", "check", _note_check),
    ("repro.invariants.generator", "generate_interval_invariants", "invariants", _note_invariants),
    ("repro.invariants.generator", "generate_octagon_invariants", "invariants", _note_invariants),
    ("repro.core.conditions", "classify", "conditions", None),
    ("repro.analysis.bounds", "analyze", "analysis", None),
    ("repro.core.synthesis", "synthesize", "synthesis", _note_synthesis),
    ("repro.core.synthesis", "difference_bound", "synthesis", _note_synthesis),
    ("repro.core.lp", "LinearProgram.solve", "lp", _note_lp),
    ("repro.core.lp", "linprog", "lp.fallback", None),
    ("repro.analysis.bounds", "attach_tail_bound", "tails", _note_tails),
    ("repro.semantics.interpreter", "simulate", "simulate", _note_simulate),
    ("repro.batch.engine", "execute_request", "engine", None),
    ("repro.cache", "ResultCache.lookup_for", "cache.lookup", _note_lookup),
    ("repro.cache", "ResultCache.store", "cache.store", None),
    ("repro.api.analyzer", "Analyzer.analyze_batch", "api", None),
    ("repro.service", "_Handler.do_POST", "service", None),
)

#: Span record: (id, parent id or -1, op id, name, start, end, counts).
Span = Tuple[int, int, Any, str, float, float, Dict[str, int]]


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the layers."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- op scoping -----------------------------------------------------

    def set_op(self, op: Any) -> None:
        """Tag later spans opened on this thread with ``op``."""
        self._local.op = op

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, note: Optional[Callable]) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            if stack:
                parent, op = stack[-1]
            else:
                # A root span with no op set (an HTTP handler thread)
                # starts an op of its own.
                parent, op = -1, getattr(local, "op", None)
                if op is None:
                    op = span_id
            stack.append((span_id, op))
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                counts = note(args, kwargs, result, error) if note else {}
                spans.append((span_id, parent, op, name, start, end, counts))

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` wherever it is bound."""
        for module in MODULES:
            importlib.import_module(module)
        loaded = [mod for key, mod in list(sys.modules.items()) if key == "repro" or key.startswith("repro.")]
        for module_name, attr, name, note in LAYERS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._installed.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, note))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, note)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def dump(self, path: str, **extra: Any) -> None:
        dump_spans(path, self.spans, **extra)


def dump_spans(path: str, spans: Sequence[Span], **extra: Any) -> None:
    """Write ``{"spans": [...], **extra}`` as JSON."""
    with open(path, "w") as handle:
        json.dump({"spans": [list(span) for span in spans], **extra}, handle)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """The spans and the extra fields of a :meth:`Tracer.dump` file."""
    with open(path) as handle:
        payload = json.load(handle)
    return [tuple(span) for span in payload.pop("spans")], payload


#: Per-layer metrics in the order ``BENCHMARK.json`` lists them.
#: ``*.s`` values are self times in seconds: a span's duration minus
#: the time its direct child spans cover, summed over the layer.
PER_LAYER = (
    ("fuzz.generator.s", "s"),
    ("syntax.parse_s", "s"),
    ("cfg.build_s", "s"),
    ("check.s", "s"),
    ("check.rejected", "count"),
    ("invariants.s", "s"),
    ("invariants.calls", "count"),
    ("invariants.rows", "count"),
    ("conditions.s", "s"),
    ("analysis.rungs_per_op", "ratio"),
    ("synthesis.self_s", "s"),
    ("synthesis.calls", "count"),
    ("synthesis.infeasible", "count"),
    ("synthesis.feasible_ratio", "ratio"),
    ("lp.s", "s"),
    ("lp.calls", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.fallbacks", "count"),
    ("lp.fallback_s", "s"),
    ("tails.s", "s"),
    ("tails.refits", "count"),
    ("simulate.s", "s"),
    ("simulate.runs", "count"),
    ("simulate.truncated", "count"),
    ("engine.self_s", "s"),
    ("api.self_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.hits", "count"),
    ("cache.store_s", "s"),
    ("cache.stores", "count"),
    ("service.self_s", "s"),
    ("service.throttled", "count"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
)


def layer_metrics(spans: Sequence[Span], ops: int, throttled: int, overhead: float) -> Dict[str, float]:
    """Aggregate spans into the :data:`PER_LAYER` values.

    ``ops`` is the number of ops the spans cover (the base of
    ``analysis.rungs_per_op``), ``throttled`` the server's 429 count and
    ``overhead`` traced over untraced wall time of the same ops.
    """
    child_time: Dict[int, float] = {}
    for span_id, parent, _op, _name, start, end, _counts in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for span_id, _parent, _op, name, start, end, note in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in note.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    synth_calls = calls.get("synthesis", 0)
    infeasible = counts.get("synthesis.infeasible", 0)
    fallbacks = len({parent for _id, parent, _op, name, *_ in spans if name == "lp.fallback"})
    values = {
        "fuzz.generator.s": self_s.get("fuzz.generator", 0.0),
        "syntax.parse_s": self_s.get("syntax.parse", 0.0),
        "cfg.build_s": self_s.get("cfg.build", 0.0),
        "check.s": self_s.get("check", 0.0),
        "check.rejected": counts.get("check.rejected", 0),
        "invariants.s": self_s.get("invariants", 0.0),
        "invariants.calls": calls.get("invariants", 0),
        "invariants.rows": counts.get("invariants.rows", 0),
        "conditions.s": self_s.get("conditions", 0.0),
        "analysis.rungs_per_op": calls.get("analysis", 0) / ops if ops else 0.0,
        "synthesis.self_s": self_s.get("synthesis", 0.0),
        "synthesis.calls": synth_calls,
        "synthesis.infeasible": infeasible,
        "synthesis.feasible_ratio": (synth_calls - infeasible) / synth_calls if synth_calls else 0.0,
        "lp.s": self_s.get("lp", 0.0) + self_s.get("lp.fallback", 0.0),
        "lp.calls": calls.get("lp", 0),
        "lp.rows": counts.get("lp.rows", 0),
        "lp.cols": counts.get("lp.cols", 0),
        "lp.fallbacks": fallbacks,
        "lp.fallback_s": self_s.get("lp.fallback", 0.0),
        "tails.s": self_s.get("tails", 0.0),
        "tails.refits": counts.get("tails.refit", 0),
        "simulate.s": self_s.get("simulate", 0.0),
        "simulate.runs": counts.get("simulate.runs", 0),
        "simulate.truncated": counts.get("simulate.truncated", 0),
        "engine.self_s": self_s.get("engine", 0.0),
        "api.self_s": self_s.get("api", 0.0),
        "cache.lookup_s": self_s.get("cache.lookup", 0.0),
        "cache.hits": counts.get("cache.lookup.hit", 0),
        "cache.store_s": self_s.get("cache.store", 0.0),
        "cache.stores": calls.get("cache.store", 0),
        "service.self_s": self_s.get("service", 0.0),
        "service.throttled": throttled,
        "trace.spans": len(spans),
        "trace.overhead": overhead,
    }
    return values
