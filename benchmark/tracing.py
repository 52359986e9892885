"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program, at layer boundaries only.  A
layer is one ``nlmedium`` module.  While the tracer is installed, every
function listed in a layer's ``__all__`` is replaced by a recording wrapper
in the namespaces of the *other* ``nlmedium`` modules, in ``sys.modules``
(so function-local ``from .layer import f`` statements see the wrapper)
and in the harness namespace ``api``.  The layer's own module keeps the
original, so calls that stay inside one layer record nothing.

Each span holds its name, start, end, parent span and op id.  Spans stay in
memory, in flat arrays, until ``save`` writes them out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import os
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "medium", "nonlinear", "wick", "fieldspace", "displacement", "duffing")


def _value_key(obj):
    """Hashable key that compares objects by value, arrays included."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(_value_key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return (type(obj).__name__,) + fields
    if isinstance(obj, dict):
        return ("dict",) + tuple(sorted((k, _value_key(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return ("seq",) + tuple(_value_key(v) for v in obj)
    return obj


class Tracer:
    """Layer-boundary spans plus the boundary counters of the per-layer metrics."""

    def __init__(self, api: types.SimpleNamespace):
        self.api = api
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.traced_ops = 0
        # medium requests: (medium value class, |omega|) pairs per boundary call
        self._medium_ids: dict[int, tuple[int, object]] = {}
        self._arg_keys: dict[object, int] = {}
        self.req_medium = array("q")
        self.req_omega = array("d")
        self.req_bounds = array("q", [0])
        self.loop_nodes = 0
        self.triples = 0
        self.artifact_bytes = 0
        self._modules = {name: importlib.import_module(f"nlmedium.{name}") for name in LAYERS}
        self._shadows = {}
        self._wrapped = {}  # id(original function) -> wrapper
        for layer, module in self._modules.items():
            shadow = types.ModuleType(module.__name__, module.__doc__)
            shadow.__dict__.update(module.__dict__)
            for fname in module.__all__:
                fn = getattr(module, fname)
                if inspect.isfunction(fn):
                    wrapper = self._wrap(f"{layer}.{fname}", fn, *self._hooks(layer, fname))
                    setattr(shadow, fname, wrapper)
                    self._wrapped[id(fn)] = wrapper
            self._shadows[layer] = shadow
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind boundary functions in every namespace but their own module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nlmedium" or name.startswith("nlmedium.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None and value.__module__ != name:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, shadow in self._shadows.items():
            self._saved.append((sys.modules, shadow.__name__, self._modules[layer]))
            sys.modules[shadow.__name__] = shadow
            self._saved.append((self.api, layer, getattr(self.api, layer)))
            setattr(self.api, layer, shadow)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._saved):
            if target is sys.modules:
                sys.modules[attr] = value
            else:
                setattr(target, attr, value)
        self._saved.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.traced_ops += 1

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(math.nan)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _hooks(self, layer, fname):
        """Boundary counters: (called before the span opens, called after it closes)."""
        if layer == "medium":
            return self._medium_request, None
        if (layer, fname) == ("fieldspace", "self_energy"):
            return self._loop_request, None
        if (layer, fname) == ("displacement", "displacement"):
            return self._comb_request, None
        if (layer, fname) in (("serialize", "write_json"), ("serialize", "write_csv")):
            return None, self._artifact_written
        return None, None

    def _medium_request(self, args, kwargs):
        args = args + tuple(kwargs.values())
        first = args[0] if args else None
        if isinstance(first, self._modules["medium"].MediumParams) and len(args) > 1:
            entry = self._medium_ids.get(id(first))
            if entry is None:
                entry = (len(self._medium_ids), first)  # holding the object keeps its id unique
                self._medium_ids[id(first)] = entry
            omega = args[1]
            if isinstance(omega, (float, int)):
                self.req_medium.append(entry[0])
                self.req_omega.append(abs(omega))
            else:
                omegas = np.abs(np.asarray(omega, dtype=float)).ravel()
                self.req_medium.extend([entry[0]] * omegas.size)
                self.req_omega.extend(omegas.tolist())
        else:
            # no medium argument (kk_reconstruct, nu_from_config): key on all arguments
            key = _value_key(args)
            index = self._arg_keys.setdefault(key, len(self._arg_keys))
            self.req_medium.append(-1 - index)
            self.req_omega.append(0.0)
        self.req_bounds.append(len(self.req_omega))

    def _loop_request(self, args, kwargs):
        quad = kwargs.get("quadrature", args[3] if len(args) > 3 else None)
        n = quad.n_points
        # full window at n nodes, Richardson pass at n // 2, half window at n // 2 + 1
        self.loop_nodes += n + n // 2 + (n // 2 + 1)

    def _comb_request(self, args, kwargs):
        comb = kwargs.get("comb", args[0] if args else None)
        self.triples += len(comb.lines) ** 3

    def _artifact_written(self, args, kwargs):
        self.artifact_bytes += os.path.getsize(kwargs.get("path", args[0] if args else None))

    # -- results ----------------------------------------------------------

    def _repeat_share(self) -> float:
        calls = len(self.req_bounds) - 1
        if calls == 0:
            return 0.0
        value_class = {}
        medium_class = {}
        for index, medium in self._medium_ids.values():
            medium_class[index] = value_class.setdefault(_value_key(medium), len(value_class))
        mids = self.req_medium.tolist()
        omegas = self.req_omega.tolist()
        bounds = self.req_bounds.tolist()
        seen = set()
        repeats = 0
        for c in range(calls):
            pairs = [
                (medium_class.get(mids[j], mids[j]), omegas[j]) for j in range(bounds[c], bounds[c + 1])
            ]
            if all(p in seen for p in pairs):
                repeats += 1
            seen.update(pairs)
        return repeats / calls

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each normalised per traced op."""
        ops = max(self.traced_ops, 1)
        name = np.asarray(self.span_name, dtype=int)
        start = np.asarray(self.span_start)
        dur = np.asarray(self.span_end) - start
        parent = np.asarray(self.span_parent)
        child_time = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        layer_of_name = np.asarray([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)
        span_layer = layer_of_name[name]
        out = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            out[f"{layer}.calls_per_op"] = (int(np.count_nonzero(mask)) / ops, "count")
            out[f"{layer}.self_ms_per_op"] = (1e3 * float(self_time[mask].sum()) / ops, "ms")
        out["medium.repeat_share"] = (self._repeat_share(), "1")
        out["fieldspace.loop_nodes_per_op"] = (self.loop_nodes / ops, "count")
        out["displacement.triples_per_op"] = (self.triples / ops, "count")
        out["serialize.bytes_per_op"] = (self.artifact_bytes / ops, "B")
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            op=np.asarray(self.span_op),
        )
