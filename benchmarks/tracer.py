"""Spans and counts around rmenum's layer calls, recorded from outside.

install() replaces each hooked function, wherever an rmenum module or class
binds it, with a wrapper that records a span [name, start, end, parent] and,
for some hooks, a machine-independent count taken from the call's arguments
or result. remove() puts every original back. Nothing under src/ changes.

Calls made inside --jobs worker processes are out of reach: a forked worker
runs the wrappers into its own copy of the tracer, which is discarded.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from math import comb

WRAPPED = "__perfbench_wrapped__"


def _dim(r: int, m: int) -> int:
    return sum(comb(m, d) for d in range(r + 1))


def _count_compute(add, a, result):
    add("classify.classes", len(result.records))


def _count_ingest(add, a, result):
    add("classify.classes", len(result[0]))


def _count_merge(add, a, result):
    add("classify.raw_blocks", a["partition"].block_count)
    add("classify.merged_blocks", result[0].block_count)


def _count_sweep(add, a, result):
    add("cosetenum.sweep_words", len(a["reps"]) << _dim(a["r"], a["m"]))


def _count_brute(add, a, result):
    add("oracle.brute_words", 1 << _dim(a["r"], a["m"]))


def _count_blocks(add, a, result):
    add("pipeline.block_mults", a["partition"].block_count)


def _count_split(add, a, result):
    add("pipeline.split_mults", 1 << comb(a["m"], a["r"] + 1))


def _checkpoint_file(a):
    return sys.modules["rmenum.pipeline"]._checkpoint_path(a["directory"], a["cid"])


def _count_ckpt_write(add, a, result):
    add("pipeline.checkpoint_bytes", os.path.getsize(_checkpoint_file(a)))


def _count_ckpt_read(add, a, result):
    if result is not None:
        add("pipeline.checkpoint_bytes", os.path.getsize(_checkpoint_file(a)))


# (module, attribute or Class.attribute, span name, count function).
# The checkpoint helpers are private: the checkpoint layer has no public call.
SPAN_HOOKS = (
    ("rmenum.classify", "QuotientClassification.compute", "classify.compute", _count_compute),
    ("rmenum.classify", "QuotientClassification.transversal", "classify.transversal", None),
    ("rmenum.classify", "orbit_partition", "classify.orbit_partition", None),
    ("rmenum.classify", "merge_by_enumerator", "classify.merge", _count_merge),
    ("rmenum.classify", "write_classification", "classify.write", None),
    ("rmenum.classify", "ingest_classification", "classify.ingest", _count_ingest),
    ("rmenum.gf2", "stabilizer_check", "gf2.stabilizer_check", None),
    ("rmenum.cosetenum", "batch_coset_enumerators", "cosetenum.sweep", _count_sweep),
    ("rmenum.oracle", "brute_force_distribution", "oracle.brute", _count_brute),
    ("rmenum.pipeline", "rebase_representatives", "pipeline.rebase", None),
    ("rmenum.pipeline", "coset_enum_blocks", "pipeline.block_products", _count_blocks),
    ("rmenum.pipeline", "coset_enum_split", "pipeline.split", _count_split),
    ("rmenum.pipeline", "distribution_from_classes", "pipeline.classes_sum", None),
    ("rmenum.pipeline", "_write_checkpoint", "pipeline.checkpoint_write", _count_ckpt_write),
    ("rmenum.pipeline", "_read_checkpoint", "pipeline.checkpoint_read", _count_ckpt_read),
    ("rmenum.wenum", "mul", "wenum.mul", None),
    ("rmenum.wenum", "square", "wenum.square_scale", None),
    ("rmenum.wenum", "scale", "wenum.square_scale", None),
)
# Too frequent for a span each (about 10^5 per R(3,7) run): counted only.
COUNT_HOOKS = (("rmenum.gf2", "Gf2Matrix.__matmul__", "gf2.matmul_calls"),)


class Tracer:
    """Holds the spans and counts of every traced pass in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _add(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def _span_wrapper(self, name, fn, count):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if count else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self._add, bound.arguments, result)
                except Exception as exc:  # a stale hook must not break the program's call
                    self.errors.append(f"{name}: count failed: {exc!r}")
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _patch(self, modname, attr, make):
        module = sys.modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name, None)
            raw = vars(owner).get(meth) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{attr}")
                return
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, meth, new)
            self._patches.append((owner, meth, raw))
            return
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{modname}.{attr}")
            return
        wrapper = make(fn)
        for mod in _rmenum_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, fn))

    def install(self):
        """Wrap every hook; the program must already be imported."""
        self.missing.clear()
        for modname, attr, name, count in SPAN_HOOKS:
            self._patch(modname, attr, lambda fn, n=name, c=count: self._span_wrapper(n, fn, c))
        for modname, attr, name in COUNT_HOOKS:
            self._patch(modname, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def remove(self) -> list[str]:
        """Restore every original; returns any wrapper still reachable."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        owners = {id(owner): owner for owner, _, _ in self._patches}
        self._patches.clear()
        owners.update({id(mod): mod for mod in _rmenum_modules()})
        left = []
        for owner in owners.values():
            for key, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if getattr(value, WRAPPED, False):
                    left.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return left


def _rmenum_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rmenum" or name.startswith("rmenum."))
    ]


def summarize(spans, lo: int, hi: int) -> dict[str, list]:
    """{name: [calls, total_s, self_s]} over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children, so nested calls are not counted twice.
    """
    child = {}
    for name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, list] = {}
    for idx in range(lo, hi):
        name, start, end, _ = spans[idx]
        dur = end - start
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child.get(idx, 0.0)
    return out
