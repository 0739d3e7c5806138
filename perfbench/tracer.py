"""Span tracer for the mtat benchmark.

``Tracer.install`` replaces the public functions of every loaded mtat
module, plus three methods, with wrappers that record one span per call:
its id, name, start, end, parent span and thread. Functions are replaced
wherever callers look them up, in every module namespace that holds
them, so ``from .tensor import matmul`` call sites are traced too. The
sweep's thread pool is swapped for one that hands each task the span
that submitted it, so worker spans hang under ``sweep_thresholds``.
Spans stay in memory until ``uninstall``; ``layer_metrics`` reduces them.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from checks import COUNTS

# Not spans: a context-manager factory whose block outlives the call.
_SKIP = {"mtat.tensor.no_grad"}
# (module, class, method, span name)
_METHODS = (
    ("mtat.diffusion", "ToyDiffusionModel", "forward", "diffusion.forward"),
    ("mtat.diffusion", "SgdState", "apply", "diffusion.sgd_apply"),
    ("mtat.diffusion", "ModelBundle", "velocity", "diffusion.velocity"),
)
MODULES = ("tensor", "attention", "diffusion", "scheduler", "redundancy", "serialize", "util", "cli")
_NOT_OPS = {"tensor.backward", "tensor.finite_diff_grad"}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id or None, thread id)
        self.interaction_macs = defaultdict(int)  # mediator span name -> metered MACs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def _wrap(self, name, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, ident()))

        return traced

    def _wrap_mediator_attention(self, fn, counter_type):
        """Name the span by mediator count and meter its interaction MACs,
        passing a fresh MacCounter when the caller gave none."""
        signature = inspect.signature(fn)
        by_count = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            counter = bound.arguments.get("counter")
            if counter is None:
                counter = bound.arguments["counter"] = counter_type()
            before = counter.get("interaction")
            name = f"attention.mediator_attention.n{bound.arguments['mcfg'].count}"
            inner = by_count.get(name) or by_count.setdefault(name, self._wrap(name, fn))
            try:
                return inner(*bound.args, **bound.kwargs)
            finally:
                self.interaction_macs[name] += counter.get("interaction") - before

        return traced

    def run_under(self, parent, fn, *args, **kwargs):
        """Call ``fn`` in this thread as a child of span ``parent``."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "mtat" or n.startswith("mtat.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                qualified = f"{mod.__name__}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and qualified not in _SKIP
                ):
                    wrappers[obj] = self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", obj)
        attention = sys.modules["mtat.attention"]
        wrappers[attention.mediator_attention] = self._wrap_mediator_attention(
            attention.mediator_attention, sys.modules["mtat.tensor"].MacCounter
        )
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for module_name, cls_name, method, span_name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self._wrap(span_name, getattr(cls, method)))

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]
                return super().submit(tracer.run_under, parent, fn, *args, **kwargs)

        self._patch(sys.modules["mtat.scheduler"], "ThreadPoolExecutor", TracedPool)

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def to_json_dict(self):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], tindex[s[5]]] for s in sorted(self.spans)]
        return {"fields": ["id", "name", "start_ns", "end_ns", "parent", "thread"], "names": names, "spans": rows}


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer, ops):
    """Per-layer metrics from the recorded spans.

    ``<name>_ms`` is the mean wall time per call; ``<module>.self_ms``
    the module's self time per workload operation, where a span's self
    time is its duration minus the union of its children's intervals
    (children on pool threads included).
    """
    spans = sorted(tracer.spans)
    calls, total_ns = defaultdict(int), defaultdict(int)
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        total_ns[name] += end - start
        if parent is not None:
            children[parent].append((start, end))
    self_ns = defaultdict(int)
    for sid, name, start, end, parent, _ in spans:
        self_ns[name.split(".", 1)[0]] += end - start - _covered(children.get(sid, ()), start, end)

    # Tensor-op calls inside forward and train_step, velocity calls inside
    # a sweep: parents get smaller ids than their children.
    regions = ("diffusion.forward", "diffusion.train_step", "scheduler.sweep_thresholds")
    enclosing, inside = {}, defaultdict(int)
    for sid, name, _, _, parent, _ in spans:
        outer = enclosing.get(parent, frozenset())
        if name in regions:
            outer = outer | {name}
        enclosing[sid] = outer
        kind = "velocity" if name == "diffusion.velocity" else "op"
        if kind == "velocity" or (name.startswith("tensor.") and name not in _NOT_OPS):
            for region in outer:
                inside[(region, kind)] += 1

    def ms(name):
        return total_ns[name] / calls[name] / 1e6 if calls[name] else 0.0

    def per(key, region):
        return inside[key] / calls[region] if calls[region] else 0.0

    m = {
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
        "tensor.ops_per_train_step": (per(("diffusion.train_step", "op"), "diffusion.train_step"), "count"),
        "tensor.ops_per_forward": (per(("diffusion.forward", "op"), "diffusion.forward"), "count"),
        "attention.multi_head_attention_ms": (ms("attention.multi_head_attention"), "ms"),
    }
    for n in COUNTS:
        name = f"attention.mediator_attention.n{n}"
        m[f"attention.mediator_attention_ms.n{n}"] = (ms(name), "ms")
    for n in COUNTS:
        name = f"attention.mediator_attention.n{n}"
        macs = tracer.interaction_macs.get(name, 0)
        m[f"attention.interaction_macs.n{n}"] = (macs // calls[name] if calls[name] else 0, "count")
        seconds = total_ns[name] / 1e9
        m[f"attention.interaction_gmacs_per_s.n{n}"] = (macs / seconds / 1e9 if seconds else 0.0, "GMAC/s")
    for name in (
        "attention.make_mediators",
        "attention.mediator_attention_head",
        "attention.composed_attention_map",
        "diffusion.train_step",
        "diffusion.batch_loss",
        "diffusion.sgd_apply",
        "diffusion.forward",
        "diffusion.euler_sample",
        "diffusion.fid_proxy",
        "diffusion.capture_redundancy",
    ):
        m[f"{name}_ms"] = (ms(name), "ms")
    m["scheduler.velocity_calls_per_sweep"] = (
        per(("scheduler.sweep_thresholds", "velocity"), "scheduler.sweep_thresholds"),
        "count",
    )
    for name in (
        "scheduler.run_scheduled_sampling",
        "scheduler.sweep_thresholds",
        "scheduler.pareto_envelope",
        "redundancy.redundancy_score",
        "redundancy.trace_over_steps",
        "serialize.save_checkpoint",
        "serialize.load_checkpoint",
    ):
        m[f"{name}_ms"] = (ms(name), "ms")
    for module in MODULES:
        m[f"{module}.self_ms"] = (self_ns[module] / ops / 1e6, "ms")
    m["trace.spans_per_op"] = (len(spans) / ops, "count")
    return m
