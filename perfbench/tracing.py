"""Spans around the calls into each edgecache module's public functions.

A function is wrapped in every module that binds it: `from .cost import
penalized_cost` gives `pel`, `baselines` and `harness` their own name for
it, and intra-module calls go through the defining module's global, so
both are patched.  Spans are kept in memory and summarized after the
traced pass; `restore()` puts every original back.

Parent tracking is per thread.  A span that opens on an empty stack in a
worker thread (the training pool) takes as parent the span open on the
main thread, which is the one that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# layer (module) -> public functions wrapped in it.  lpfile and cli are
# on no timed path of any workload.
TRACED = {
    "topology": ("build_topology", "hop_matrix", "incidence_tensor", "load_topology", "save_topology"),
    "instance": ("generate_instance", "load_instance", "save_instance"),
    "cost": ("assignment_from_classes", "derive_routing", "penalized_cost", "check_feasibility"),
    "solver": ("solve_exact",),
    "encoder": ("encode", "split_subimages", "update_residual"),
    "cnn": ("train", "predict_all", "forward"),
    "pel": ("enhance", "build_queues"),
    "baselines": ("gca", "rgc"),
    "harness": (
        "build_dataset",
        "corpus_training_samples",
        "train_models",
        "predict_with_enhancement",
        "recursive_allocate",
    ),
}
LAYERS = tuple(TRACED)


@dataclass(frozen=True)
class Span:
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    thread: int


def _package_modules():
    return [m for n, m in sys.modules.items() if n == "edgecache" or n.startswith("edgecache.")]


class Patches:
    """Replace a package function in every module that binds it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        for module in _package_modules():
            if getattr(module, name, None) is original:
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


class Tracer:
    """Record a span per call into each function of TRACED.

    hooks maps a function name to `hook(call, args, kwargs)`, which must
    call `call(*args, **kwargs)` and return its result; the hook's own
    work stays outside the span.
    """

    def __init__(self, package: dict, hooks: dict | None = None):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patches = Patches()
        hooks = hooks or {}
        for layer, names in TRACED.items():
            for name in names:
                self._patches.replace(
                    package[layer], name, functools.partial(self._wrap, layer, name, hooks.get(name))
                )

    def _wrap(self, layer: str, name: str, hook, original):
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main) if thread != self._main else None
                parent = main_stack[-1] if main_stack else -1
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, layer, name, start, end, parent, thread))

        if hook is None:
            return functools.wraps(original)(traced)

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            return hook(traced, args, kwargs)

        return hooked

    def restore(self) -> None:
        self._patches.restore()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Self time per (layer, function): duration minus the time children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        out[(s.layer, s.name)] += (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
    return out
