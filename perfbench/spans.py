"""Span tracing of lvrc's public functions from outside the package.

`install` replaces every listed function with a recording wrapper at every
binding inside the loaded ``lvrc`` modules: ``lvrc.model.write_container``
is wrapped as well as ``lvrc.container.write_container``, and a method is
wrapped on its class. `Tracer.restore` puts the original objects back.
Nothing under ``src/`` is edited.

Each call records a span (name, start, end, parent span, op id). Spans are
kept in memory and written out only when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# layer (module) -> spans; "Class.method" names wrap the method on its class.
LAYERS = {
    "mol": ["constrain", "sample", "nll_grad", "reg_grad", "variance_grad"],
    "neural": ["GRUCell.step", "GRUCell.forward_sequence", "GRUCell.backward_sequence",
               "Adam.step"],
    "model": ["ConditioningStack.forward", "ConditioningStack.backward",
              "CodecModel.teacher_forced", "CodecModel.generate"],
    "filterbank": ["design_prototype", "Filterbank.analyze", "Filterbank.synthesize"],
    "features": ["log_mel_features", "mel_filterbank"],
    "trainer": ["voicing_per_frame", "ClipDataset.batch", "train"],
    "quantizer": ["fit_quantizer", "encode", "decode"],
    "container": ["write_container", "read_container"],
    "audio": ["load_wav", "save_wav"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
# Counters read at a span boundary: name -> (span, attribute read off `self`).
COUNTERS = {"neural.Adam.skipped_updates": ("neural.Adam.step", "skipped_updates")}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []  # (span id, start, end, parent index, op id)
        self.counters = {name: 0 for name in COUNTERS}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []  # (namespace, attribute, original)

    def _wrap(self, sid: int, name: str, original):
        spans, stack = self.spans, self._stack
        counter = next(((c, attr) for c, (span, attr) in COUNTERS.items() if span == name), None)
        clock = time.perf_counter

        def shim(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = getattr(args[0], counter[1]) if counter else 0
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (sid, start, end, parent, self.op_id)
                if counter:
                    self.counters[counter[0]] += getattr(args[0], counter[1]) - before

        shim.__wrapped__ = original
        shim.__name__ = getattr(original, "__name__", name)
        shim.__qualname__ = getattr(original, "__qualname__", name)
        return shim

    def install(self) -> None:
        """Wrap every listed span at each of its bindings in loaded lvrc modules."""
        if self._undo:
            raise RuntimeError("shims already installed")
        owners = {layer: importlib.import_module(f"lvrc.{layer}") for layer in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lvrc" or key.startswith("lvrc."))]
        for sid, name in enumerate(SPAN_NAMES):
            layer, _, attr = name.partition(".")
            owner = owners[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(sid, name, original))
                continue
            original = getattr(owner, attr)
            shim = self._wrap(sid, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, shim)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    def bindings(self) -> list:
        """(namespace, attribute, original) for every wrapped binding."""
        return list(self._undo)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def unrestored(bindings) -> list[str]:
    """Names of recorded bindings that no longer hold their original object."""
    bad = []
    for namespace, attr, original in bindings:
        current = namespace.__dict__.get(attr) if isinstance(namespace, type) \
            else getattr(namespace, attr, None)
        if current is not original:
            bad.append(f"{getattr(namespace, '__name__', namespace)}.{attr}")
    return bad


def rebase(spans, offset: int) -> list:
    """Spans from another process, with parent indices shifted by `offset`."""
    return [(sid, start, end, parent + offset if parent >= 0 else -1, op)
            for sid, start, end, parent, op in spans]


def summarize(spans, counters, op_wall_s: float, windows) -> dict:
    """Per span: calls, self time (duration minus child spans) and share of op wall time.

    Only spans inside one of the ops' timed `windows` (start, end) count, so
    the work of output checks after an op stays out. perf_counter is the
    system-wide monotonic clock, so spans from child processes compare too.
    """
    calls = [0] * len(SPAN_NAMES)
    self_s = [0.0] * len(SPAN_NAMES)
    for sid, start, end, parent, _ in spans:
        if not any(lo <= start and end <= hi for lo, hi in windows):
            continue
        calls[sid] += 1
        self_s[sid] += end - start
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    out = {}
    for sid, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = (calls[sid], "count")
        out[f"{name}.self_s"] = (self_s[sid], "s")
        out[f"{name}.share"] = (self_s[sid] / op_wall_s if op_wall_s > 0 else 0.0, "ratio")
    for name, value in counters.items():
        out[name] = (value, "count")
    return out
