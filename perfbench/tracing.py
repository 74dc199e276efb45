"""Per-layer tracing of torhom from outside the program.

The tracer replaces public functions and methods of the torhom modules
with wrappers that record one span per call (name, start, end, parent
span, query id) and a few exact counters.  Nothing in torhom is edited:
module-level functions are rebound in every torhom module namespace that
imported them by value, and methods are rebound on their class.

A target that a later version of torhom no longer has is named in
``missing``, and run.py then fails the traced run: the metrics read off
that target would otherwise read 0, as if the work had gone away.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name); the layer is the span name's prefix
SPAN_TARGETS: List[Tuple[str, str, str]] = [
    ("torhom.ring", "LaurentPoly.__mul__", "ring.mul"),
    ("torhom.ring", "LaurentPoly.__add__", "ring.add"),
    ("torhom.ring", "LaurentPoly.scale", "ring.scale"),
    ("torhom.ring", "GradedSeries.__add__", "ring.series_add"),
    ("torhom.ring", "GradedSeries.__mul__", "ring.series_mul"),
    ("torhom.ring", "divide_one_minus", "ring.divide"),
    ("torhom.ring", "render", "ring.render"),
    ("torhom.ring", "series_equal", "ring.series_equal"),
    ("torhom.ring", "equal_up_to_monomial", "ring.equal_up_to_monomial"),
    ("torhom.ring", "expand_series", "ring.expand_series"),
    ("torhom.recursion", "eval_p", "recursion.eval_p"),
    ("torhom.recursion", "eval_p_parallel", "recursion.eval_p"),
    ("torhom.recursion", "MemoTable.save", "recursion.cache.save"),
    ("torhom.recursion", "MemoTable.load", "recursion.cache.load"),
    ("torhom.sequences", "pair_validate", "sequences.pair_validate"),
    ("torhom.cli", "main", "cli.main"),
]

# every public module-level function of these modules gets a span
WHOLE_MODULES = ("torhom.links", "torhom.fillings")

SMALL_INTS = range(-5, 257)  # CPython shares these, so they cost a memo nothing


# recursion.classify_rule's tags -> metric names; rules 3 and 4 are mirror images
RULE_METRIC = {"rule2": "rule2", "rule3": "rule3_4", "rule4": "rule3_4", "rule5": "rule5",
               "all-zeros": "all_zeros", "base-empty-left": "base", "base-empty-right": "base"}


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and counters for one traced unit of work, kept in memory.

    Wrappers stay installed until the worker process exits; ``active``
    switches recording off for the work done after the unit.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.qid = -1
        self.suite = "all"  # the identity-batch suite of the current query
        self.suite_memo: Counter = Counter()  # (suite, lookups|hits) -> count
        self.active = False
        self.missing: List[str] = []
        self.memos: List[object] = []
        self._gc_start = 0.0
        self.gc_pause_s = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for modname, path, span in SPAN_TARGETS:
            self._wrap_target(modname, path, span)
        for modname in WHOLE_MODULES:
            module = importlib.import_module(modname)
            layer = modname.split(".")[-1]
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__ == modname):
                    self._wrap_target(modname, name, f"{layer}.{name}")
        self._install_counters()
        gc.callbacks.append(self._on_gc)
        self.active = True

    @staticmethod
    def _rebind(owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        # a function imported by value lives on in every importer's namespace
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "torhom" or module is None:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def _wrap_target(self, modname: str, path: str, span: str) -> None:
        try:
            owner, attr, original = _resolve(importlib.import_module(modname), path)
        except (ImportError, AttributeError):
            self.missing.append(f"{modname}.{path}")
            return
        observe = _OBSERVERS.get(span)
        self._rebind(owner, attr, original, self._span_wrapper(span, original, observe))

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _span_wrapper(self, name: str, fn: Callable, observe) -> Callable:
        name_idx = self._index(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_idx, t0, t1, stack[-1] if stack else -1, tracer.qid)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def _install_counters(self) -> None:
        try:
            from torhom import recursion, sequences
            memo_cls = recursion.MemoTable
            get, peek, put, init = memo_cls.get, memo_cls.peek, memo_cls.put, memo_cls.__init__
            classify_rule = recursion.classify_rule
            pair_cls = sequences.SeqPair
            pair_init = pair_cls.__init__
        except AttributeError as exc:
            self.missing.append(f"counters: {exc}")
            return
        counts, suite_memo, tracer = self.counts, self.suite_memo, self

        def counted_lookup(fn):
            @functools.wraps(fn)
            def lookup(memo, pair):
                value = fn(memo, pair)
                if tracer.active:
                    hit = value is not None
                    counts["recursion.memo.lookups"] += 1
                    counts["recursion.memo.hits"] += hit
                    suite_memo[tracer.suite, "lookups"] += 1
                    suite_memo[tracer.suite, "hits"] += hit
                return value
            return lookup

        @functools.wraps(put)
        def counted_put(memo, pair, value):
            if tracer.active and peek(memo, pair) is None:
                counts["recursion.nodes"] += 1
                counts["recursion.nodes." + RULE_METRIC[classify_rule(pair).value]] += 1
            return put(memo, pair, value)

        @functools.wraps(init)
        def recorded_init(memo, *args, **kwargs):
            init(memo, *args, **kwargs)
            if tracer.active:
                tracer.memos.append(memo)

        @functools.wraps(pair_init)
        def counted_pair_init(pair, *args, **kwargs):
            pair_init(pair, *args, **kwargs)
            if tracer.active:
                counts["sequences.seqpair.created"] += 1

        for owner, attr, original, wrapper in (
                (memo_cls, "get", get, counted_lookup(get)),
                (memo_cls, "peek", peek, counted_lookup(peek)),
                (memo_cls, "put", put, counted_put),
                (memo_cls, "__init__", init, recorded_init),
                (pair_cls, "__init__", pair_init, counted_pair_init)):
            self._rebind(owner, attr, original, wrapper)

    def _on_gc(self, phase: str, info: Dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.counts["gc.gen2.collections"] += 1

    # -- results --------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Calls, total time, self time and own-layer time per span name.

        Self time is a span's duration minus the time its child spans
        cover.  Own-layer time also gives back the own-layer time of
        children in the same layer, so it is the span's duration minus
        the time spent in other layers below it; summed over a layer's
        entry spans (those whose parent is in another layer) it is that
        layer's exclusive time.
        """
        names = self.names
        spans = [s for s in self.spans if s is not None]
        layer = [n.split(".")[0] for n in names]
        child_total = [0.0] * len(self.spans)
        same_layer_own = [0.0] * len(self.spans)
        own = [0.0] * len(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        # children end before their parents: visit spans in order of end time
        order = sorted((i for i, s in enumerate(self.spans) if s is not None),
                       key=lambda i: self.spans[i][2])
        for i in order:
            name_idx, t0, t1, parent, _ = self.spans[i]
            dur = t1 - t0
            own[i] = dur - child_total[i] + same_layer_own[i]
            entry = True
            if parent >= 0:
                child_total[parent] += dur
                if layer[self.spans[parent][0]] == layer[name_idx]:
                    same_layer_own[parent] += own[i]
                    entry = False
            rec = out.setdefault(names[name_idx],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0, "entry_own_s": 0.0})
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_total[i]
            if entry:
                rec["entry_own_s"] += own[i]
        out["_spans"] = {"calls": len(spans)}
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    name_idx, t0, t1, parent, qid = s
                    fh.write(f"{i}\t{self.names[name_idx]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{qid}\n")


# -- counters read off a traced call's arguments and result -------------


def _nterms(poly) -> int:
    return len(getattr(poly, "terms", ()))


def _observe_mul(counts, args, result) -> None:
    a, b = args
    na, nb = _nterms(a), _nterms(b)
    counts["ring.mul.term_products"] += na * nb
    if _is_one(a) or _is_one(b):
        counts["ring.mul.by_one"] += 1


def _is_one(poly) -> bool:
    terms = getattr(poly, "terms", None)
    return terms is not None and len(terms) == 1 and terms.get((0, 0, 0)) == 1


def _observe_divide(counts, args, result) -> None:
    counts["ring.divide.failed" if result is None else "ring.divide.success"] += 1


def _observe_render(counts, args, result) -> None:
    counts["ring.render.bytes"] += len(result.encode())


def _observe_save(counts, args, result) -> None:
    memo = args[0]
    path = args[1] if len(args) > 1 and args[1] else getattr(memo, "path", None)
    if path:
        counts["recursion.cache.bytes"] += os.path.getsize(path)


_OBSERVERS = {
    "ring.mul": _observe_mul,
    "ring.divide": _observe_divide,
    "ring.render": _observe_render,
    "recursion.cache.save": _observe_save,
}


# -- workload properties of a memo table --------------------------------


def memo_properties(memo) -> Dict[str, float]:
    """Entries, stored terms, fill of the (q,a,t) bounding boxes, largest
    coefficient, and bytes computed from object sizes."""
    entries = terms = box = max_abs = 0
    for series in getattr(memo, "values", list)():  # MemoTable.values(): stored series
        entries += 1
        num = getattr(getattr(series, "num", None), "terms", None)
        if not num:
            continue
        terms += len(num)
        # (Q,A,T) lattice point -> (q,a,t) exponents, as in ring.monomial_to_qat
        qs = [q // 2 + a + t // 2 for (q, a, t) in num]
        as_ = [a for (_, a, _) in num]
        ts = [t // 2 for (_, _, t) in num]
        box += ((max(qs) - min(qs) + 1) * (max(as_) - min(as_) + 1)
                * (max(ts) - min(ts) + 1))
        max_abs = max(max_abs, max(abs(c) for c in num.values()))
    return {"entries": entries, "terms": terms, "box_cells": box,
            "max_abs_coeff": max_abs, "bytes": deep_bytes(memo)}


_SKIP_TYPES = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def deep_bytes(root) -> int:
    """Bytes of every object reachable from root, by sys.getsizeof.

    Containers are counted once each; ints shared by CPython count
    nothing; tuples of ints, the lattice points, are counted where they
    are referenced without an identity check, which keeps a walk over
    millions of terms to seconds.
    """
    getsizeof, referents = sys.getsizeof, gc.get_referents
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, _SKIP_TYPES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        total += getsizeof(obj)
        for item in referents(obj):
            kind = type(item)
            if kind is int:
                if item not in SMALL_INTS:
                    total += getsizeof(item)
            elif kind is tuple:
                total += getsizeof(item)
                for x in item:
                    if type(x) is int:
                        if x not in SMALL_INTS:
                            total += getsizeof(x)
                    else:
                        stack.append(x)
            else:
                stack.append(item)
    return total
