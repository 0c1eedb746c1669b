"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: ``Recorder.instrument``
swaps each public attnlab function for a wrapper under every name an
attnlab module binds it to (``attnlab.models.attention_forward`` as well
as ``attnlab.attention.attention_forward``), so calls made from inside
the package are recorded too. The originals are restored on exit.

Each span holds a name, start and end (``time.perf_counter`` seconds),
the index of its parent span, the grid cell it ran in, the MACs counted
by ``attnlab.counting()`` while it was open and, on the first call of a
PEAK_SPANS span in each cell (and the spans inside it), the peak bytes
``tracemalloc`` saw above the level at which the span opened. A cell
calls a layer with the same shapes every time, so one call per cell
gives its peak; tracemalloc runs only during that call, which keeps its
cost out of the self times of the others.

Spans stay in memory until the run ends. Self time and self MACs are a
span's own value minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# span name -> (module, attribute); dotted attributes are methods
FUNCTIONS = {
    "harness.train": ("attnlab.harness", "train"),
    "tasks.make_task": ("attnlab.tasks", "make_task"),
    "tasks.eval_set": ("attnlab.tasks", "ToyTask.eval_set"),
    "tasks.train_batch": ("attnlab.tasks", "ToyTask.train_batch"),
    "models.build_model": ("attnlab.models", "build_model"),
    "models.count_forward": ("attnlab.models", "count_forward"),
    "models.loss": ("attnlab.models", "*.loss"),
    "models.logits": ("attnlab.models", "*.logits"),
    "train.train_model": ("attnlab.train", "train_model"),
    "train.evaluate": ("attnlab.train", "evaluate"),
    "train.clip_gradients": ("attnlab.train", "clip_gradients"),
    "train.Momentum.step": ("attnlab.train", "Momentum.step"),
    "tensor.backward": ("attnlab.tensor", "Tensor.backward"),
    "attention.attention_forward": ("attnlab.attention", "attention_forward"),
    "attention.attention_weights": ("attnlab.attention", "attention_weights"),
    "conv.regular_conv2d": ("attnlab.conv", "regular_conv2d"),
    "conv.deformable_conv2d": ("attnlab.conv", "deformable_conv2d"),
    "dynconv.dynamic_conv2d": ("attnlab.dynconv", "dynamic_conv2d"),
}

# spans whose MACs are the layer's own; MACs outside them are the remainder
LAYERS = (
    "attention.attention_forward",
    "attention.attention_weights",
    "conv.regular_conv2d",
    "conv.deformable_conv2d",
    "dynconv.dynamic_conv2d",
)

UNITS = {"ms": "ms", "calls": "count", "macs": "MAC", "mac_per_s": "MAC/s",
         "peak_mb": "MB"}

# reported statistics per span; ms is self time throughout
STATS = {
    "attention.attention_forward": ("ms", "calls", "macs", "mac_per_s", "peak_mb"),
    "attention.attention_weights": ("ms", "calls", "macs", "mac_per_s", "peak_mb"),
    "tensor.backward": ("ms", "calls"),
    "models.loss": ("ms", "calls"),
    "models.logits": ("ms", "calls"),
    "conv.deformable_conv2d": ("ms", "calls", "macs", "mac_per_s", "peak_mb"),
    "dynconv.dynamic_conv2d": ("ms", "calls", "macs", "mac_per_s"),
    "conv.regular_conv2d": ("ms", "calls", "macs", "mac_per_s"),
    "tasks.train_batch": ("ms", "calls"),
    "train.Momentum.step": ("ms", "calls"),
    "train.clip_gradients": ("ms",),
    "train.train_model": ("ms",),
    "train.evaluate": ("ms",),
    "tasks.eval_set": ("ms",),
    "tasks.make_task": ("ms",),
    "models.build_model": ("ms",),
    "models.count_forward": ("ms",),
    "harness.train": ("ms",),
}

# whole-run figures of the traced run, reported beside the span statistics
TRACE_METRICS = {"trace.overhead_pct": "%", "trace.unspanned_macs": "MAC",
                 "trace.spans": "count"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{name}.{stat}": UNITS[stat]
           for name, stats in STATS.items() for stat in stats}
    out.update(TRACE_METRICS)
    return out


# spans that report a peak, sampled on their first call per cell
PEAK_SPANS = frozenset(n for n, stats in STATS.items() if "peak_mb" in stats)


class Span:
    __slots__ = ("name", "index", "parent", "cell", "start", "end", "macs",
                 "tracked", "base", "peak")

    def __init__(self, name, index, parent, cell, start):
        self.name = name
        self.index = index
        self.parent = parent
        self.cell = cell
        self.start = start
        self.end = start
        self.macs = 0
        self.tracked = False
        self.base = 0
        self.peak = 0

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "cell": self.cell, "macs": self.macs,
                "peak_bytes": self.peak - self.base}


class Recorder:
    """Collects spans in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self.cell = None
        self._open = []
        self._started_tracing = None
        self._sampled = set()

    def open(self, name):
        parent = self._open[-1] if self._open else None
        span = Span(name, len(self.spans),
                    None if parent is None else parent.index, self.cell,
                    time.perf_counter())
        if parent is not None and parent.tracked:
            span.tracked = True
        elif name in PEAK_SPANS and (self.cell, name) not in self._sampled:
            self._sampled.add((self.cell, name))
            span.tracked = True
        if span.tracked:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracing = span
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None and parent.tracked:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span, macs):
        span.end = time.perf_counter()
        span.macs = macs
        self._open.pop()
        if span.tracked:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            parent = self._open[-1] if self._open else None
            if parent is not None and parent.tracked:
                parent.peak = max(parent.peak, span.peak)
            if self._started_tracing is span:
                tracemalloc.stop()
                self._started_tracing = None

    def wrap(self, name, fn, counting):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            with counting() as counter:
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.close(span, counter.macs)

        return traced

    @contextmanager
    def instrument(self):
        """Wrap every function in FUNCTIONS; restore the originals on exit."""
        counting = importlib.import_module("attnlab.tensor").counting
        patches = []
        for name, (module_name, attr) in FUNCTIONS.items():
            for owner, key, fn in _bindings(module_name, attr):
                patches.append((owner, key, fn, self.wrap(name, fn, counting)))
        try:
            _apply(patches)
            yield self
        finally:
            _restore(patches)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _bindings(module_name, attr):
    """(owner, attribute, function) for every place the target is bound.

    A method is bound on the class that defines it; ``*`` stands for
    every class of the module that defines the method itself. A module
    function is bound in its own module and in each attnlab module that
    imported it by name. A target the program no longer has is skipped,
    and its metrics read zero.
    """
    module = importlib.import_module(module_name)
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        classes = [c for c in vars(module).values() if isinstance(c, type)
                   and c.__module__ == module_name
                   and (cls_name == "*" or c.__name__ == cls_name)]
        return [(c, method, vars(c)[method]) for c in classes
                if method in vars(c)]
    fn = getattr(module, attr, None)
    if fn is None:
        return []
    return [(mod, key, fn)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "attnlab" or mod_name.startswith("attnlab.")
            for key, value in list(vars(mod).items()) if value is fn]


def _apply(patches):
    for owner, key, _, wrapper in patches:
        setattr(owner, key, wrapper)


def _restore(patches):
    for owner, key, fn, _ in reversed(patches):
        setattr(owner, key, fn)


def self_values(spans):
    """Per span, (self seconds, self MACs): its own minus its children's."""
    self_s = [s.end - s.start for s in spans]
    self_macs = [s.macs for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[s.parent] -= s.end - s.start
            self_macs[s.parent] -= s.macs
    return self_s, self_macs


def layer_metrics(spans):
    """The STATS table summed over spans: self ms, calls, self MACs,
    self MACs per self second, and the largest peak in MB."""
    self_s, self_macs = self_values(spans)
    acc = {name: {"s": 0.0, "calls": 0, "macs": 0, "peak": 0} for name in STATS}
    for span, sec, macs in zip(spans, self_s, self_macs):
        a = acc.get(span.name)
        if a is None:
            continue
        a["s"] += sec
        a["calls"] += 1
        a["macs"] += macs
        a["peak"] = max(a["peak"], span.peak - span.base)
    out = {}
    for name, stats in STATS.items():
        a = acc[name]
        values = {"ms": a["s"] * 1000.0, "calls": a["calls"], "macs": a["macs"],
                  "mac_per_s": a["macs"] / a["s"] if a["s"] > 0 else 0.0,
                  "peak_mb": a["peak"] / 1e6}
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    return out


def forward_mac_split(spans):
    """Per cell, (layer MACs, un-spanned MACs) inside its count_forward.

    Layer MACs are the self MACs of the LAYERS spans under the cell's
    ``models.count_forward`` span; the remainder is the self MACs of
    every other span there, the count_forward span included. Together
    they should equal the count that count_forward itself returned.
    """
    _, self_macs = self_values(spans)
    root_of = {}
    out = {}
    for span in spans:
        if span.name == "models.count_forward":
            root = span.index
        elif span.parent is not None and span.parent in root_of:
            root = root_of[span.parent]
        else:
            continue
        root_of[span.index] = root
        layer, rest = out.get(span.cell, (0, 0))
        if span.name in LAYERS:
            layer += self_macs[span.index]
        else:
            rest += self_macs[span.index]
        out[span.cell] = (layer, rest)
    return out
