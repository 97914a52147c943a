"""Span tracing of chemp's layers from outside the package.

While a `Tracer` is installed, every public function of the traced modules
and the methods of the traced classes are replaced by wrappers that record
a span (name, start, end, parent). The wrappers are bound wherever another
chemp module imported the original, so calls from `harness` and `joint` are
caught too. `remove()` restores every original.

Self time of a span is its duration minus the durations of its direct
children, so the self times of an op's spans sum to the op's duration.
All layers run in the caller's thread with no queue: no layer waits, so
there is no wait time to report.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("mpd", "baselines", "estimate", "ldpc", "joint")
CLASSES = {"MpdEngine": "mpd", "SumProduct": "ldpc", "LdpcCode": "ldpc"}
SPAN_NAMES = {"MpdEngine.__init__": "mpd.engine_setup",
              "SumProduct.__init__": "ldpc.kernel_setup"}
ROOT = "harness.op"


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _rows(a: np.ndarray) -> int:
    """Number of vectors in an array whose last axis is the vector axis."""
    return a.size // a.shape[-1]


def _grams(j: np.ndarray) -> int:
    return j.size // (j.shape[-1] * j.shape[-2])


# Work counts taken at a span from its arguments and result:
# f(args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "mpd.matched_filter": lambda a, kw, r: {"grams": _grams(r.J), "uses": _rows(r.z)},
    "estimate.estimate_gram": lambda a, kw, r: {"grams": _grams(r)},
    "estimate.estimate_z": lambda a, kw, r: {"uses": _rows(r)},
    "mpd.engine_setup": lambda a, kw, r: {
        "grams": _grams(a[1].J), "state_bytes": _array_bytes(vars(a[0]).values())},
    "mpd.step": lambda a, kw, r: {
        "uses": _rows(a[1]),
        "bytes": (_array_bytes(vars(a[0]).values()) + _array_bytes(a[1:])
                  + _array_bytes(kw.values()) + _array_bytes(r))},
    "baselines.mmse_detect": lambda a, kw, r: {
        "uses": _rows(r[1]),
        "state_bytes": np.asarray(a[0]).nbytes + _rows(r[1]) * r[1].shape[-1] ** 2 * 8},
    "ldpc.check_update": lambda a, kw, r: {"edge_msgs": a[1].size},
    "joint.joint_detect_decode": lambda a, kw, r: {
        "outer_rounds": r.outer_rounds,
        "codewords": r.success.size, "converged": int(r.success.sum())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans around chemp's layer callables."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def targets(self):
        """(owner, attribute, original, span name) of every traced callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"chemp.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((mod, attr, obj, f"{layer}.{attr}"))
            for cls_name, cls_layer in CLASSES.items():
                if cls_layer != layer:
                    continue
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                        name = SPAN_NAMES.get(f"{cls_name}.{attr}", f"{layer}.{attr}")
                        out.append((cls, attr, obj, name))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, name in self.targets():
            wrapper = self._wrap(original, name)
            wrappers[id(original)] = (original, wrapper)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # rebind the originals wherever another chemp module imported them
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chemp" or mod_name.startswith("chemp.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result

        return traced

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, parent=parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def end(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def summary(self, under_root: bool = True) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and counts.

        With `under_root`, only spans inside a `harness.op` span count;
        otherwise only spans outside every op (set-up) count.
        """
        inside = []
        for s in self.spans:
            inside.append(s.name == ROOT or (s.parent >= 0 and inside[s.parent]))
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(float)})
        for s, keep, self_s in zip(self.spans, inside, selfs):
            if keep != under_root:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["s"] += s.end - s.start
            row["self_s"] += self_s
            for k, v in s.counts.items():
                row["counts"][k] += v
        return out
