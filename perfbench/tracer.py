"""Per-layer tracing of the bisparse package from outside it.

`Tracer.install` replaces every public function of the traced layers (and the
public methods of their classes, such as `MeasurementMap.apply`) with a timing
wrapper, in every `bisparse` namespace that holds a binding to it.  That
matters because the package imports by name (`from .symcore import
check_sym`), so patching only the defining module would miss most calls.
`Tracer.uninstall` puts every original object back.

Spans are kept in memory as (function id, parent span, start, end) rows; a
span's self time is its duration minus the durations of its direct children.
`Tracer.save` writes them out once the traced run is over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "bisparse"
# the package's modules; cli is left out because it only parses text and calls these
LAYERS = ("symcore", "projections", "measurements", "recovery", "bench")


def _public_callables(module):
    """(owner, attribute, function) for each public function defined in a module.

    Includes public methods defined directly on the module's classes.
    """
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((obj, attr, member))
    return out


def _payload_nbytes(mp) -> int:
    return sum(a.nbytes for a in (mp.matrices, mp.vectors, mp.basis) if a is not None)


class Tracer:
    """Records one span per call into a traced bisparse function."""

    def __init__(self):
        self.names = []            # function id -> "layer.function", kept across installs
        self.spans = []            # (function id, parent span or -1, start, end)
        self.results = {}          # span index -> (iterations, converged) of recovery calls
        self.apply_payload_bytes = 0
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, fn in _public_callables(module):
                qualname = f"{layer}.{attr}"
                if qualname not in self.names:
                    self.names.append(qualname)
                wrapper = self._wrap(self.names.index(qualname), fn, layer, qualname)
                wrappers[id(fn)] = (fn, wrapper)
                if inspect.isclass(owner):
                    self._patch(owner, attr, fn, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fid: int, fn, layer: str, qualname: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_apply = qualname == "measurements.apply"
        is_recovery = layer == "recovery"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, parent, start, end)
            if is_apply:
                tracer.apply_payload_bytes += _payload_nbytes(args[0])
            elif is_recovery and hasattr(out, "converged"):
                tracer.results[idx] = (out.iterations, bool(out.converged))
            return out

        return wrapper

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        fid = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return fid, parent, dur, dur - child

    def summary(self) -> dict:
        """Per-function calls, self ms and total ms; per-layer self ms; root ms."""
        fid, parent, dur, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        self_ms = np.bincount(fid, weights=self_time, minlength=k) * 1e3
        total_ms = np.bincount(fid, weights=dur, minlength=k) * 1e3
        functions = {
            name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                   "total_ms": float(total_ms[i])}
            for i, name in enumerate(self.names) if calls[i]
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(self_ms[i])
        return {
            "functions": functions,
            "layer_self_ms": layer_self,
            "root_ms": float(dur[parent < 0].sum() * 1e3),
            "spans": len(self.spans),
        }

    def outer_recovery_results(self) -> list:
        """(iterations, converged) of recovery calls with no recovery ancestor, in call order."""
        recovery_ids = {i for i, name in enumerate(self.names) if name.startswith("recovery.")}
        out = []
        for idx in sorted(self.results):
            parent = self.spans[idx][1]
            while parent >= 0 and self.spans[parent][0] not in recovery_ids:
                parent = self.spans[parent][1]
            if parent < 0:
                out.append(self.results[idx])
        return out

    def save(self, path) -> None:
        """Write the spans (and the function names they index) as an .npz file."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez(path, function=rows[:, 0].astype(np.int32), parent=rows[:, 1].astype(np.int64),
                 start=rows[:, 2], end=rows[:, 3], names=np.array(self.names))
