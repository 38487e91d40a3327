"""Spans around every call the benchmark makes into the package.

The workloads reach the five package modules only through an ``Api``. An
untraced ``Api`` holds the modules themselves, so an untraced run pays
nothing. A traced one holds proxies that open a span around each call of a
public function or dataclass constructor and keep boundary counts (bytes
read, outliers replaced, samples encoded). Nothing inside the package is
instrumented, so a call that the package makes internally is part of its
caller's span.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 for none) and ``op`` numbers the timed operation (a
capture, step, query or enrollment batch) it belongs to, 0 being set-up.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

from csireid import augment, autodiff, csi_core, encoders, preprocess

MODULES = {
    "core": (csi_core, "csi_core"),
    "pre": (preprocess, "preprocess"),
    "aug": (augment, "augment"),
    "ad": (autodiff, "autodiff"),
    "enc": (encoders, "encoders"),
}
LAYERS = tuple(layer for _, layer in MODULES.values())
_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer for untraced runs: every span is a shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def op(self, name: str):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one timed operation; its children share its id."""
        self._ops += 1
        self._op = self._ops
        try:
            with self.span(name) as rec:
                yield rec
        finally:
            self._op = 0

    def summary(self) -> dict:
        """Calls, self seconds and timed-region shares by span name and layer.

        Self time is a span's duration minus that of its direct children.
        Spans never overlap their siblings, since one thread records them.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        secs: Counter = Counter()
        timed: Counter = Counter()
        wall = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            secs[name] += own
            if op > 0:
                if parent < 0:
                    wall += end - start
                    timed["unattributed"] += own
                else:
                    timed[name.split(".", 1)[0]] += own
        return {"calls": calls, "s": secs, "timed": timed, "wall": wall}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_cost(n: int = 2000) -> float:
    """Median seconds one span adds around a call, measured in blocks of n."""
    probe = Tracer()
    costs = []
    for _ in range(9):
        t0 = perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                _noop()
        t1 = perf_counter()
        for _ in range(n):
            _noop()
        costs.append((t1 - t0 - (perf_counter() - t1)) / n)
    return float(np.median(costs))


def _noop():
    return None


class Api:
    """The five package modules, as attributes core, pre, aug, ad and enc."""

    def __init__(self, tracer):
        for attr, (module, layer) in MODULES.items():
            setattr(self, attr, _TracedModule(module, layer, tracer) if tracer.enabled else module)


class _TracedModule:
    def __init__(self, module, layer: str, tracer: Tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name: str):
        obj = getattr(self._module, name)
        traceable = inspect.isfunction(obj) or (
            isinstance(obj, type) and dataclasses.is_dataclass(obj)
        )
        if name.startswith("_") or not traceable:
            return obj
        full = f"{self._layer}.{name}"
        wrapped = _traced(obj, full, self._tracer, _HOOKS.get(full))
        setattr(self, name, wrapped)
        return wrapped


def _traced(fn, name: str, tracer: Tracer, hook):
    def call(*args, **kwargs):
        try:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        except csi_core.CsbFormatError:
            tracer.counts[f"{name}.rejected"] += 1
            raise
        if hook is not None:
            out = hook(tracer, args, kwargs, out)
        return out

    return call


class _TracedModel:
    """A SignatureModel whose ``signatures`` calls are spans by mode."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def signatures(self, x, training: bool = False, rng=None):
        name = f"encoders.signatures.{'train' if training else 'eval'}"
        with self._tracer.span(name):
            out = self._model.signatures(x, training=training, rng=rng)
        self._tracer.counts[f"{name}.samples"] += x.values.shape[0]
        return out


def _read_hook(tracer, args, kwargs, out):
    tracer.counts["csi_core.read_sample.bytes"] += os.path.getsize(args[0])
    return out


def _write_hook(tracer, args, kwargs, out):
    tracer.counts["csi_core.write_sample.bytes"] += os.path.getsize(args[1])
    return out


def _hampel_hook(tracer, args, kwargs, out):
    tracer.counts["preprocess.hampel_filter.replaced"] += int(
        np.count_nonzero(out.data != args[0].data)
    )
    tracer.counts["preprocess.hampel_filter.values"] += out.data.size
    return out


def _policy_hook(tracer, args, kwargs, out):
    tracer.counts["augment.apply_policy.changed"] += int(not np.array_equal(out.data, args[0].data))
    return out


def _model_hook(tracer, args, kwargs, out):
    return _TracedModel(out, tracer)


_HOOKS = {
    "csi_core.read_sample": _read_hook,
    "csi_core.write_sample": _write_hook,
    "preprocess.hampel_filter": _hampel_hook,
    "augment.apply_policy": _policy_hook,
    "encoders.build_model": _model_hook,
}
